"""Space, inner-product, orthonormalization and transform contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qestgeo import estimation, hilbert, symmetry
from qestgeo.errors import (
    NonRealOverlapError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)
from qestgeo.hilbert import (
    BasisSpace,
    GridSpace,
    StateVector,
    complete_basis,
    gram_schmidt_real,
    inner,
    inverse_momentum_transform,
    momentum_transform,
    projector,
)

from qestgeo.holonomy import quasi_parallel_states

from conftest import random_state


def basis_state(space, k):
    amp = np.zeros(space.dim, dtype=complex)
    amp[k] = 1.0
    return StateVector(space, amp)


def gaussian_state(space):
    x = space.points
    return StateVector(space, np.pi**-0.25 * np.exp(-0.5 * x * x) + 0j)


class TestInner:
    def test_orthonormal_basis(self):
        space = BasisSpace(4)
        e1, e2 = basis_state(space, 0), basis_state(space, 1)
        assert inner(e1, e1) == 1.0
        assert inner(e1, e2) == 0.0

    def test_gaussian_quadrature_matches_analytic_integral(self):
        # oracle: int |psi|^2 = 1 for psi = pi^{-1/4} exp(-x^2/2)
        space = GridSpace(512, -10.0, 10.0)
        g = gaussian_state(space)
        assert abs(inner(g, g) - 1.0) < 1e-8

    def test_space_mismatch_raises(self):
        u = basis_state(BasisSpace(3), 0)
        v = basis_state(BasisSpace(4), 0)
        with pytest.raises(SpaceMismatchError):
            inner(u, v)

    @pytest.mark.parametrize("build", [
        estimation.ProjectorPovm,
        complete_basis,
        symmetry.conjugation_in_basis,
        lambda family: hilbert.conjugation_residuals(family, family[:1]),
        lambda family: gram_schmidt_real(family, gram=np.eye(len(family))),
    ], ids=["ProjectorPovm", "complete_basis", "conjugation_in_basis",
            "conjugation_residuals", "gram_schmidt_real_with_gram"])
    def test_a_family_on_two_spaces_is_a_space_mismatch(self, build):
        # a full orthonormal family, but vector 1 lies on a grid of the same
        # dimension and another length: its coordinates stack without error
        family = [basis_state(GridSpace(4, 0.0, 2.0 if k == 1 else 1.0), k)
                  for k in range(4)]
        with pytest.raises(SpaceMismatchError, match="^vector 1 lives on a different space$"):
            build([StateVector(v.space, v.amplitudes, normalize=True) for v in family])

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        space = BasisSpace(6)
        u, v = random_state(space, rng), random_state(space, rng)
        assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        are=st.floats(-2, 2), aim=st.floats(-2, 2),
        bre=st.floats(-2, 2), bim=st.floats(-2, 2),
    )
    def test_sesquilinear_in_second_argument(self, seed, are, aim, bre, bim):
        rng = np.random.default_rng(seed)
        space = BasisSpace(5)
        u, v, w = (random_state(space, rng) for _ in range(3))
        a, b = are + 1j * aim, bre + 1j * bim
        combo = StateVector(space, a * v.amplitudes + b * w.amplitudes)
        lhs = inner(u, combo)
        rhs = a * inner(u, v) + b * inner(u, w)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_quadrature_monotone_refinement(self):
        # doubling the resolution moves the norm by less than the
        # previous truncation error
        errs = []
        for n in (8, 16, 32):
            g = gaussian_state(GridSpace(n, -10.0, 10.0))
            errs.append(abs(inner(g, g) - 1.0))
        floor = 1e-15
        assert errs[1] <= errs[0] + floor and errs[2] <= errs[1] + floor


class TestGramSchmidtReal:
    def test_orthonormal_real_pair_is_fixed_point(self):
        space = BasisSpace(3)
        vecs = [basis_state(space, 0), basis_state(space, 1)]
        out = gram_schmidt_real(vecs)
        assert len(out) == 2
        for a, b in zip(out, vecs):
            assert np.allclose(a.amplitudes, b.amplitudes)

    def test_overlapping_pair(self):
        space = BasisSpace(3)
        e1 = basis_state(space, 0)
        mix = StateVector(space, np.array([1, 1, 0]) / np.sqrt(2) + 0j)
        out = gram_schmidt_real([e1, mix])
        assert np.allclose(out[0].amplitudes, e1.amplitudes)
        assert np.allclose(out[1].amplitudes, basis_state(space, 1).amplitudes,
                           atol=1e-12)

    def test_zero_overlap_keeps_given_phase(self):
        # <e1 | i e2> = 0 is real, so the pair passes and the phase stays
        space = BasisSpace(3)
        e1 = basis_state(space, 0)
        ie2 = StateVector(space, np.array([0, 1j, 0], dtype=complex))
        out = gram_schmidt_real([e1, ie2])
        assert np.allclose(out[1].amplitudes, ie2.amplitudes)

    def test_nonreal_overlap_raises_with_pair(self):
        space = BasisSpace(2)
        e1 = basis_state(space, 0)
        rot = StateVector(space, np.array([1j, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(NonRealOverlapError) as err:
            gram_schmidt_real([e1, rot])
        assert err.value.pair == (0, 1)
        assert abs(err.value.imag) > 0.5

    def test_dependent_vectors_skipped(self):
        space = BasisSpace(3)
        e1 = basis_state(space, 0)
        again = StateVector(space, e1.amplitudes * 1.0)
        out = gram_schmidt_real([e1, again, basis_state(space, 2)])
        assert len(out) == 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
    def test_output_orthonormal_for_random_real_families(self, seed, n):
        rng = np.random.default_rng(seed)
        space = BasisSpace(6)
        vecs = [StateVector(space, rng.normal(size=6) + 0j) for _ in range(n)]
        out = gram_schmidt_real(vecs)
        for a in range(len(out)):
            for b in range(len(out)):
                target = 1.0 if a == b else 0.0
                assert abs(inner(out[a], out[b]) - target) < 1e-8

    def test_inputs_have_real_coefficients_in_output(self):
        rng = np.random.default_rng(3)
        space = BasisSpace(5)
        # random complex vectors with real mutual overlaps: rotate a real
        # family by one global unitary
        real_vecs = [rng.normal(size=5) for _ in range(3)]
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        vecs = [StateVector(space, q @ v) for v in real_vecs]
        out = gram_schmidt_real(vecs)
        for v in vecs:
            coeffs = [inner(b, v) for b in out]
            assert max(abs(c.imag) for c in coeffs) < 1e-8

    def test_reality_is_relative_to_the_overlap(self):
        # Im 8.2e-8 on an overlap of 0.82 is a ratio of 1e-7, below the
        # quasi-parallel tolerance: the inputs count as real
        space = BasisSpace(3)
        s3 = 3 ** -0.5
        vecs = [basis_state(space, 0),
                StateVector(space, np.array([1, 1, 0]) / np.sqrt(2) + 0j),
                StateVector(space, np.array([s3, s3 * np.exp(2e-7j), s3]))]
        assert abs(inner(vecs[1], vecs[2]).imag) > 1e-8
        assert len(gram_schmidt_real(vecs)) == 3

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), log_twist=st.floats(-9.0, -4.0))
    def test_precondition_is_the_quasi_parallel_verdict(self, seed, log_twist):
        rng = np.random.default_rng(seed)
        space = BasisSpace(5)
        vecs = [rng.normal(size=5) + 0j for _ in range(4)]
        vecs[-1][1] *= np.exp(1j * 10.0 ** log_twist)
        states = [StateVector(space, v, normalize=True) for v in vecs]
        thetas = [np.array([float(k)]) for k in range(4)]
        flag, _ = quasi_parallel_states(thetas, states)
        try:
            gram_schmidt_real(states)
        except NonRealOverlapError:
            assert not flag
        else:
            assert flag

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 6))
    def test_matches_the_state_vector_loop(self, seed, n):
        # amplitude arrays in place of StateVectors change no bit
        rng = np.random.default_rng(seed)
        space = GridSpace(12, -1.0, 2.0)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        vecs = [StateVector(space, q @ rng.normal(size=12)) for _ in range(n)]
        vecs.append(StateVector(space, vecs[0].amplitudes * 2.0))  # dependent
        skip_scale = max(v.norm() for v in vecs)
        want = []
        for v in vecs:
            resid = v.amplitudes.copy()
            for _ in range(2):
                for b in want:
                    resid -= inner(b, StateVector(space, resid)) * b.amplitudes
            rnorm = StateVector(space, resid).norm()
            if rnorm >= hilbert.GRAM_SCHMIDT_TOL * skip_scale:
                want.append(StateVector(space, resid / rnorm))
        got = gram_schmidt_real(vecs)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_overlap_matrix_is_the_inner_products(self):
        rng = np.random.default_rng(5)
        space = GridSpace(16, -2.0, 2.0)
        vecs = [random_state(space, rng) for _ in range(4)]
        g = hilbert.overlap_matrix(vecs)
        for a in range(4):
            for b in range(4):
                if a <= b:
                    assert g[a, b] == inner(vecs[a], vecs[b])
                else:
                    assert g[a, b] == np.conj(g[b, a])
        with pytest.raises(SpaceMismatchError):
            hilbert.overlap_matrix([vecs[0], basis_state(BasisSpace(16), 0)])

    def test_no_vectors_have_an_empty_overlap_matrix(self):
        g = hilbert.overlap_matrix([])
        assert g.shape == (0, 0) and g.dtype == complex

    def test_gram_entries_are_vdots_of_each_family_alone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5, 1024)) + 1j * rng.normal(size=(3, 5, 1024))
        g = hilbert._gram(x)
        for family, rows in zip(g, x):
            assert family.tobytes() == hilbert._gram(rows).tobytes()
            assert np.array_equal(family, family.conj().T)
            for a in range(5):
                for b in range(a, 5):
                    assert family[a, b] == np.vdot(rows[a], rows[b])

    def test_complete_basis_preserves_inputs(self):
        space = BasisSpace(5)
        first = [basis_state(space, 1), basis_state(space, 3)]
        full = complete_basis(first)
        assert len(full) == 5
        assert full[0] is first[0] and full[1] is first[1]
        for a in range(5):
            for b in range(5):
                target = 1.0 if a == b else 0.0
                assert abs(inner(full[a], full[b]) - target) < 1e-10


class TestMomentumTransform:
    def test_gaussian_pair(self):
        # oracle: the unit gaussian is its own transform
        space = GridSpace(512, -10.0, 10.0)
        g = gaussian_state(space)
        mom = momentum_transform(g)
        p = mom.space.points
        expected = np.pi**-0.25 * np.exp(-0.5 * p * p)
        assert np.max(np.abs(mom.amplitudes - expected)) < 1e-10
        assert abs(p[np.argmax(np.abs(mom.amplitudes))]) < 1e-12

    def test_modulation_shifts_momentum(self):
        space = GridSpace(256, -12.0, 12.0)
        g = gaussian_state(space)
        mom0 = momentum_transform(g)
        dp = mom0.space.weight
        shift_cells = 5
        boosted = StateVector(
            space, g.amplitudes * np.exp(1j * shift_cells * dp * space.points)
        )
        mom1 = momentum_transform(boosted)
        rolled = np.roll(mom0.amplitudes, shift_cells)
        # compare away from the wrapped band
        assert np.max(np.abs(mom1.amplitudes - rolled)[shift_cells:]) < 1e-8

    def test_unitary_on_random_states(self):
        rng = np.random.default_rng(7)
        space = GridSpace(128, -5.0, 5.0)
        for _ in range(5):
            s = random_state(space, rng)
            assert abs(momentum_transform(s).norm() - 1.0) < 1e-8

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        space = GridSpace(129, -4.0, 7.0)  # odd size, asymmetric window
        s = random_state(space, rng)
        back = inverse_momentum_transform(momentum_transform(s), space)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-8

    def test_basis_space_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            momentum_transform(basis_state(BasisSpace(4), 0))


class TestProjector:
    def test_basis_state(self):
        space = BasisSpace(3)
        rho = projector(basis_state(space, 0))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_plus_state_block(self):
        space = BasisSpace(2)
        plus = StateVector(space, np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert np.allclose(projector(plus), 0.5 * np.ones((2, 2)))

    def test_purity_and_hermiticity(self):
        rng = np.random.default_rng(9)
        for space in (BasisSpace(5), GridSpace(64, -6.0, 6.0)):
            rho = projector(random_state(space, rng))
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.max(np.abs(rho @ rho - rho)) < 1e-8
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-8
