"""Antiunitary operators, motion reversal, and the symmetry classification."""

import json

import numpy as np
import pytest

import qestgeo as qg
from qestgeo import hilbert, holonomy, symmetry
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
    conjugation_residuals,
    from_coords,
    gram_schmidt_real,
    inner,
)
from qestgeo.symmetry import (
    conjugation_in_basis,
    generalized_time_reversal,
    is_invariant,
    matched_reversal_phase,
    momentum_symmetry_check,
    time_reversal,
)

from conftest import random_state
from test_cli import run_to_doc, twisted_spec


def basis_state(space, k):
    amp = np.zeros(space.dim, dtype=complex)
    amp[k] = 1.0
    return StateVector(space, amp)


def standard_conjugation(space):
    return conjugation_in_basis([basis_state(space, k) for k in range(space.dim)])


def dense_residuals(full_basis, states):
    """Displacements under the dense conjugation in a completed basis."""
    op = conjugation_in_basis(complete_basis(full_basis))
    return np.array([
        StateVector(s.space, op.apply(s).amplitudes - s.amplitudes).norm()
        for s in states
    ])


class TestConjugationInBasis:
    def test_flips_imaginary_unit(self):
        space = BasisSpace(3)
        op = standard_conjugation(space)
        out = op.apply(StateVector(space, np.array([1j, 0, 0], dtype=complex)))
        assert np.allclose(out.amplitudes, [-1j, 0, 0])

    def test_fixes_real_span(self):
        rng = np.random.default_rng(2)
        space = BasisSpace(5)
        op = standard_conjugation(space)
        v = StateVector(space, rng.normal(size=5) + 0j)
        assert np.allclose(op.apply(v).amplitudes, v.amplitudes)

    def test_involution_and_antiunitarity(self):
        rng = np.random.default_rng(3)
        space = BasisSpace(6)
        # a rotated basis, not the standard one
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        basis = [StateVector(space, q[:, k]) for k in range(6)]
        op = conjugation_in_basis(basis)
        for _ in range(100):
            u, v = random_state(space, rng), random_state(space, rng)
            assert abs(inner(op.apply(u), op.apply(v)) - np.conj(inner(u, v))) < 1e-10
        w = random_state(space, rng)
        twice = op.apply(op.apply(w))
        assert np.max(np.abs(twice.amplitudes - w.amplitudes)) < 1e-10

    def test_incomplete_basis_rejected(self):
        space = BasisSpace(4)
        with pytest.raises(ValueError):
            conjugation_in_basis([basis_state(space, 0)])


class TestTimeReversal:
    def test_fixes_real_wave_functions(self):
        space = GridSpace(128, -8.0, 8.0)
        x = space.points
        g = StateVector(space, np.pi**-0.25 * np.exp(-0.5 * x * x) + 0j)
        assert np.allclose(time_reversal(g).amplitudes, g.amplitudes)

    def test_reverses_plane_wave_factor(self):
        space = GridSpace(256, -10.0, 10.0)
        x = space.points
        env = np.pi**-0.25 * np.exp(-0.5 * x * x)
        fwd = StateVector(space, env * np.exp(1j * 1.5 * x))
        rev = time_reversal(fwd)
        assert np.allclose(rev.amplitudes, env * np.exp(-1j * 1.5 * x))

    def test_involution_on_random_states(self):
        rng = np.random.default_rng(4)
        space = GridSpace(64, -3.0, 3.0)
        for _ in range(5):
            s = random_state(space, rng)
            assert np.max(np.abs(time_reversal(time_reversal(s)).amplitudes
                                 - s.amplitudes)) < 1e-12

    def test_needs_grid(self):
        with pytest.raises(UnsupportedSpaceError):
            time_reversal(basis_state(BasisSpace(3), 0))


class TestGeneralizedTimeReversal:
    def test_zero_phase_reduces_to_plain_reversal(self):
        mod = qg.catalog(
            "position_shift",
            {"profile": {"name": "chirped_gaussian", "chirp": 0.5},
             "grid": {"n": 512, "lower": -10, "upper": 10}},
        )
        s = mod.evaluate((0.3,))
        a = generalized_time_reversal(lambda p: np.zeros_like(p), s)
        b = time_reversal(s)
        assert StateVector(s.space, a.amplitudes - b.amplitudes).norm() < 1e-8

    def test_zero_phase_on_slowly_decaying_spectrum(self):
        # the phase step under the two-well node decays like 1/p^3, so the
        # unpaired Nyquist mode leaves a small but visible residual
        mod = qg.catalog("two_well", {"grid": {"n": 512, "lower": -8, "upper": 8}})
        s = mod.evaluate((0.3,))
        a = generalized_time_reversal(lambda p: np.zeros_like(p), s)
        b = time_reversal(s)
        assert StateVector(s.space, a.amplitudes - b.amplitudes).norm() < 1e-4

    def test_constant_phase_is_global(self):
        space = GridSpace(256, -10.0, 10.0)
        x = space.points
        s = StateVector(space, np.pi**-0.25 * np.exp(-0.5 * x * x) + 0j)
        a = generalized_time_reversal(lambda p: 0.7 * np.ones_like(p), s)
        b = time_reversal(s)
        assert StateVector(space, a.amplitudes - np.exp(0.7j) * b.amplitudes).norm() < 1e-8

    def test_antiunitarity(self):
        rng = np.random.default_rng(6)
        space = GridSpace(128, -6.0, 6.0)

        def alpha(p):
            return 0.3 * p + 0.1 * np.sin(p)

        for _ in range(20):
            u, v = random_state(space, rng), random_state(space, rng)
            lhs = inner(generalized_time_reversal(alpha, u),
                        generalized_time_reversal(alpha, v))
            assert abs(lhs - np.conj(inner(u, v))) < 1e-8

    def test_matched_phase_fixes_symmetric_spectrum_states(self):
        # shifted gaussian: momentum density symmetric, state complex in p
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        s = mod.evaluate((0.6,))
        alpha = matched_reversal_phase(s)
        fixed = generalized_time_reversal(alpha, s)
        assert StateVector(s.space, fixed.amplitudes - s.amplitudes).norm() < 1e-8

    def test_matched_phase_fixes_chirped_gaussian(self):
        mod = qg.catalog(
            "position_shift",
            {"profile": {"name": "chirped_gaussian", "chirp": 0.7},
             "grid": {"n": 512, "lower": -10, "upper": 10}},
        )
        s = mod.evaluate((0.0,))
        fixed = generalized_time_reversal(matched_reversal_phase(s), s)
        assert StateVector(s.space, fixed.amplitudes - s.amplitudes).norm() < 1e-8

    def test_dense_operator_form_matches_function(self):
        rng = np.random.default_rng(13)
        space = GridSpace(64, -5.0, 5.0)

        def alpha(p):
            return 0.4 * p

        op = symmetry.motion_reversal_op(space, alpha)
        assert op.post_phase is alpha
        for _ in range(5):
            s = random_state(space, rng)
            a = op.apply(s)
            b = generalized_time_reversal(alpha, s)
            assert StateVector(space, a.amplitudes - b.amplitudes).norm() < 1e-10

    def test_dense_plain_reversal_matches_conjugation_off_nyquist(self):
        # white random states put ~1/sqrt(N) weight on the unpaired
        # Nyquist mode, where the two reversal routes legitimately part
        # ways; band-limited states agree to machine precision
        rng = np.random.default_rng(14)
        space = GridSpace(64, -5.0, 5.0)
        plain = symmetry.motion_reversal_op(space)
        for _ in range(5):
            raw = random_state(space, rng)
            mom = hilbert.momentum_transform(raw)
            p = mom.space.points
            cut = mom.with_amplitudes(
                np.where(np.abs(p) < 0.7 * np.max(np.abs(p)), mom.amplitudes, 0.0)
            )
            s = hilbert.inverse_momentum_transform(cut, space)
            s = StateVector(space, s.amplitudes, normalize=True)
            assert StateVector(
                space, plain.apply(s).amplitudes - time_reversal(s).amplitudes
            ).norm() < 1e-10


class TestMomentumSymmetry:
    def test_real_profiles_pass(self):
        space = GridSpace(512, -10.0, 10.0)
        x = space.points
        skew = np.exp(-0.5 * (x - 0.4) ** 2) + 0.3 * np.exp(-2.0 * (x + 1.0) ** 2)
        s = StateVector(space, skew + 0j, normalize=True)
        flag, asym = momentum_symmetry_check(s)
        assert flag and asym < 1e-10

    def test_boosted_gaussian_fails(self):
        mod = qg.catalog(
            "position_shift",
            {"profile": {"name": "boosted_gaussian", "p0": 1.0},
             "grid": {"n": 512, "lower": -10, "upper": 10}},
        )
        flag, asym = momentum_symmetry_check(mod.evaluate((0.0,)))
        assert not flag and asym > 0.1

    def test_two_well_fails_and_matches_overlap_test(self):
        mod = qg.catalog("two_well", {"grid": {"n": 1024, "lower": -8, "upper": 8}})
        flag, _ = momentum_symmetry_check(mod.evaluate((0.0,)))
        qp_raw, _ = holonomy.is_quasi_parallel(
            mod, [(t,) for t in np.linspace(-1, 1, 9)], align=False
        )
        assert flag is False and qp_raw is False


class TestIsInvariant:
    def test_real_span_invariant(self):
        space = BasisSpace(4)
        op = standard_conjugation(space)
        states = [basis_state(space, 0), basis_state(space, 2)]
        assert is_invariant(op, states)

    def test_imaginary_vector_not_invariant(self):
        space = BasisSpace(4)
        op = standard_conjugation(space)
        iv = StateVector(space, np.array([1j, 0, 0, 0], dtype=complex))
        assert not is_invariant(op, [iv])

    def test_quasi_parallel_lift_family_invariant(self):
        mod = qg.catalog(
            "position_shift",
            {"profile": {"name": "hermite", "n": 2},
             "grid": {"n": 512, "lower": -9, "upper": 9}},
        )
        samples = [(t,) for t in np.linspace(-2, 2, 11)]
        states = [mod.evaluate(t) for t in samples]
        aligned, _ = holonomy.align_phases(states)
        basis = gram_schmidt_real(aligned)
        op = conjugation_in_basis(complete_basis(basis))
        assert is_invariant(op, states)

    def test_dense_verdict_matches_check_on_a_twisted_family(self, capsys, tmp_path):
        # dense displacement and O(n k) residual are both 2.31e-7 here:
        # one threshold gives one verdict
        doc = run_to_doc(capsys, ["check", "--model", twisted_spec(tmp_path),
                                  "--samples=0;0.1;0.2"])
        rows = json.loads((tmp_path / "twisted.json").read_text())["amplitudes"]
        states = [StateVector(BasisSpace(3), np.array([complex(*a) for a in row]))
                  for row in rows]
        aligned, _ = holonomy.align_phases(states)
        op = conjugation_in_basis(complete_basis(gram_schmidt_real(aligned)))
        assert doc["antiunitary"]["max_residual"] == pytest.approx(2.31e-7, rel=1e-2)
        assert is_invariant(op, aligned) is doc["antiunitary"]["invariant"] is True


class TestEquivalenceTheorems:
    def construction(self, mod, samples):
        states = [mod.evaluate(t) for t in samples]
        aligned, _ = holonomy.align_phases(states)
        basis = gram_schmidt_real(aligned)
        return conjugation_in_basis(complete_basis(basis)), states

    def test_quasi_parallel_iff_antiunitary_invariant(self, battery):
        for name, mod in battery.items():
            samples = mod.sample_grid
            qp, _ = holonomy.is_quasi_parallel(mod, samples)
            if qp:
                op, states = self.construction(mod, samples)
                assert is_invariant(op, states), name
            else:
                with pytest.raises(NonRealOverlapError):
                    self.construction(mod, samples)
                # the standard conjugation cannot fix them either
                if isinstance(mod.space, BasisSpace):
                    op = standard_conjugation(mod.space)
                    states = [mod.evaluate(t) for t in samples]
                    assert not is_invariant(op, states), name

    def test_position_shift_reversal_battery(self):
        # ten profiles; the momentum flag must match the overlap reality
        # of the shift family exactly as given
        profiles = [
            "gaussian",
            {"name": "hermite", "n": 1},
            {"name": "hermite", "n": 2},
            {"name": "gaussian", "width": 1.7},
            {"name": "chirped_gaussian", "chirp": 0.7},
            {"name": "chirped_gaussian", "chirp": -1.2, "width": 0.8},
            {"name": "boosted_gaussian", "p0": 1.0},
            {"name": "boosted_gaussian", "p0": 0.5},
            {"name": "two_well", "alpha": np.pi / 2},
            {"name": "two_well", "alpha": 1.0},
        ]
        samples = [(t,) for t in np.linspace(-1, 1, 9)]
        for prof in profiles:
            mod = qg.catalog(
                "position_shift",
                {"profile": prof, "grid": {"n": 512, "lower": -10, "upper": 10}},
            )
            mom_flag, _ = momentum_symmetry_check(mod.evaluate((0.0,)))
            qp_raw, _ = holonomy.is_quasi_parallel(mod, samples, align=False)
            assert mom_flag == qp_raw, prof

    def test_asymmetric_real_profile_with_symmetric_spectrum(self):
        # real but not symmetric about the origin: still reversal-fixed
        space = GridSpace(512, -10.0, 10.0)
        x = space.points
        skew = np.exp(-0.5 * (x - 0.5) ** 2) * (1.0 + 0.4 * np.tanh(x))
        s = StateVector(space, skew + 0j, normalize=True)
        flag, _ = momentum_symmetry_check(s)
        assert flag
        assert np.allclose(time_reversal(s).amplitudes, s.amplitudes)


class TestConjugationResiduals:
    """The O(n k) residual against the dense oracle, n <= 256."""

    MODELS = {
        "position_shift": lambda: qg.catalog(
            "position_shift",
            {"profile": "gaussian", "grid": {"n": 256, "lower": -10, "upper": 10}},
        ),
        "spin_jz": lambda: qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]}),
    }

    def real_basis(self, name, thetas=(-1.0, -0.4, 0.1, 0.5, 0.9)):
        mod = self.MODELS[name]()
        states = [mod.evaluate((t,)) for t in thetas]
        aligned, _ = holonomy.align_phases(states)
        return gram_schmidt_real(aligned), aligned

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_dense_on_aligned_samples(self, name):
        basis, aligned = self.real_basis(name)
        fast = conjugation_residuals(basis, aligned)
        assert fast.shape == (len(aligned),)
        assert np.max(fast) < 1e-12
        assert np.allclose(fast, dense_residuals(basis, aligned), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_imaginary_coefficients_in_span(self, name):
        # r = 0: perturb along i*b_j, so only Im a moves
        basis, aligned = self.real_basis(name)
        perturbed = [
            s.with_amplitudes(s.amplitudes + 1j * eps * basis[j % len(basis)].amplitudes)
            for j, (s, eps) in enumerate(zip(aligned, (3e-4, 1e-2, 0.2)))
        ]
        fast = conjugation_residuals(basis, perturbed)
        assert np.min(fast) > 1e-4
        assert np.allclose(fast, dense_residuals(basis, perturbed), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_out_of_span_bounds_every_completion(self, name):
        # two samples leave a complement even in the d = 3 spin space
        basis, aligned = self.real_basis(name, thetas=(-0.4, 0.5))
        space = basis[0].space
        rng = np.random.default_rng(5)
        kicks = [0.05 * random_state(space, rng).amplitudes for _ in aligned]
        states = [s.with_amplitudes(s.amplitudes + k) for s, k in zip(aligned, kicks)]
        fast = conjugation_residuals(basis, states)
        # the complement eigh picks is one completion: never above the bound
        assert np.all(dense_residuals(basis, states) <= fast + 1e-12)
        # the completion that starts with i r / |r| attains the bound
        u = np.column_stack([b.coords for b in basis])
        for s, value in zip(states, fast):
            r = s.coords - u @ (u.conj().T @ s.coords)
            worst = basis + [from_coords(space, 1j * r / np.linalg.norm(r))]
            assert dense_residuals(worst, [s])[0] == pytest.approx(value, rel=1e-9)

    def test_space_mismatch_rejected(self):
        basis = [basis_state(BasisSpace(3), 0)]
        with pytest.raises(SpaceMismatchError):
            conjugation_residuals(basis, [basis_state(BasisSpace(4), 0)])
