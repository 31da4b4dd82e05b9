"""Model evaluation, tangents, lifts, and the example-family catalog."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import qestgeo as qg
from qestgeo import hilbert, model
from qestgeo.errors import DomainError, ModelDefinitionError
from qestgeo.hilbert import BasisSpace, StateVector, inner, projector
from qestgeo.model import Curve, PureStateModel, rephased

from conftest import catalog_battery


def phase_only_model(dim=3):
    psi = np.arange(1.0, dim + 1.0)
    psi = psi / np.linalg.norm(psi) + 0j
    return PureStateModel(
        space=BasisSpace(dim),
        m=1,
        domain=((-10.0, 10.0),),
        evaluate_fn=lambda th: np.exp(1j * th[0]) * psi,
        tangent_fn=lambda th, i: 1j * np.exp(1j * th[0]) * psi,
        kind="phase_only",
    )


class TestEvaluate:
    def test_position_shift_identity_at_zero(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        state = mod.evaluate((0.0,))
        x = mod.space.points
        expected = np.pi**-0.25 * np.exp(-0.5 * x * x)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def test_spin_half_full_turn_flips_sign(self):
        # oracle: exp(-i 2 pi J_z) on spin-1/2 via the matrix exponential
        amps = np.array([1.0, 1.0]) / np.sqrt(2)
        mod = qg.catalog("spin_jz", {"amplitudes": amps})
        jz = np.diag([-0.5, 0.5])
        expected = expm(-2j * np.pi * jz) @ amps
        got = mod.evaluate((2.0 * np.pi,)).amplitudes
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(got + amps)) < 1e-12

    def test_ring_state_matches_profile_at_zero(self):
        alpha = 0.3
        mod = qg.catalog("ring_flux", {"alpha": alpha, "grid": {"n": 256}})
        omega = mod.space.points
        raw = (2.0 - np.cos(omega)) * np.exp(1j * alpha * omega)
        raw = raw / StateVector(mod.space, raw).norm()
        assert np.max(np.abs(mod.evaluate((0.0,)).amplitudes - raw)) < 1e-12

    def test_domain_violation(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 128, "lower": -10, "upper": 10}})
        with pytest.raises(DomainError):
            mod.evaluate((5.0,))

    def test_norm_drift_rejected(self):
        bad = PureStateModel(
            space=BasisSpace(2), m=1, domain=((-1.0, 1.0),),
            evaluate_fn=lambda th: np.array([1.0 + th[0] ** 2, 0.0], dtype=complex),
        )
        bad.evaluate((0.0,))
        with pytest.raises(ModelDefinitionError):
            bad.evaluate((0.5,))

    def test_nan_drift_rejected(self):
        bad = PureStateModel(
            space=BasisSpace(2), m=1, domain=((-1.0, 1.0),),
            evaluate_fn=lambda th: np.array([np.nan, 0.0], dtype=complex),
        )
        with pytest.raises(ModelDefinitionError, match="norm drift nan"):
            bad.evaluate((0.0,))

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    def test_non_finite_theta_outside_an_unbounded_domain(self, theta):
        mod = qg.catalog("spin_jz", {"amplitudes": [0.6, 0.8]})
        assert mod.domain == ((-np.inf, np.inf),)
        with pytest.raises(DomainError):
            mod.evaluate((theta,))
        with pytest.raises(DomainError):
            mod.horizontal_lift((theta,))


class TestTangent:
    def test_phase_only_analytic(self):
        mod = phase_only_model()
        th = (0.7,)
        t = mod.tangent(th, 0)
        assert np.allclose(t.amplitudes, 1j * mod.evaluate(th).amplitudes)

    def test_position_shift_fd_matches_analytic(self):
        params = {"grid": {"n": 512, "lower": -10, "upper": 10}}
        analytic = qg.catalog("position_shift", params)
        fd = PureStateModel(
            space=analytic.space, m=1, domain=analytic.domain,
            evaluate_fn=analytic.evaluate_fn, tangent_fn=None, fd_step=1e-4,
        )
        th = (0.3,)
        ta = analytic.tangent(th, 0)
        tf = fd.tangent(th, 0)
        diff = StateVector(analytic.space, ta.amplitudes - tf.amplitudes).norm()
        assert diff < 1e-7

    def test_spin_generator(self):
        mod = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        th = (0.4,)
        m_values = np.array(mod.space.labels)
        expected = -1j * m_values * mod.evaluate(th).amplitudes
        assert np.allclose(mod.tangent(th, 0).amplitudes, expected)

    @pytest.mark.parametrize("name, theta", [("position_shift", 5.0),
                                             ("spin_jz", np.inf)])
    def test_analytic_tangent_checks_the_point(self, battery, name, theta):
        mod = battery[name]
        assert mod.tangent_fn is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="outside domain"):
                mod.tangent((theta,), 0)

    def test_fd_step_error_at_boundary(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 128, "lower": -10, "upper": 10}})
        fd = PureStateModel(
            space=mod.space, m=1, domain=mod.domain,
            evaluate_fn=mod.evaluate_fn, tangent_fn=None,
        )
        with pytest.raises(DomainError):
            fd.tangent((2.0,), 0)  # domain edge


class TestHorizontalLift:
    def test_phase_only_direction_is_pure_gauge(self):
        lift = phase_only_model().horizontal_lift((0.2,))
        assert StateVector(lift.phi.space, lift.lifts[0].amplitudes).norm() < 1e-10

    def test_position_shift_lift_is_minus_two_profile_derivative(self):
        # oracle: symbolic derivative of the gaussian, checked by quadrature
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        th = (0.5,)
        lift = mod.horizontal_lift(th)
        x = mod.space.points
        s = x - th[0]
        dpsi = -(s) * np.pi**-0.25 * np.exp(-0.5 * s * s)
        diff = StateVector(mod.space, lift.lifts[0].amplitudes + 2.0 * dpsi).norm()
        assert diff < 1e-8

    def test_spin_lift_is_generator_action_when_centered(self):
        # <J_z> = 0 for symmetric amplitudes, so l = -2i J_z phi
        mod = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        th = (1.1,)
        lift = mod.horizontal_lift(th)
        m_values = np.array(mod.space.labels)
        mean = float(np.sum(m_values * np.abs(mod.evaluate(th).amplitudes) ** 2))
        assert abs(mean) < 1e-12
        expected = -2j * m_values * mod.evaluate(th).amplitudes
        assert np.allclose(lift.lifts[0].amplitudes, expected)

    @pytest.mark.parametrize("name", sorted(catalog_battery()))
    def test_orthogonality_across_catalog(self, battery, name):
        mod = battery[name]
        for th in mod.sample_grid:
            lift = mod.horizontal_lift(th)
            for l in lift.lifts:
                assert abs(inner(l, lift.phi)) < 1e-6

    @pytest.mark.parametrize("name", ["spin_jz", "bloch"])
    def test_defining_equation_reconstruction(self, battery, name):
        # finite differences of the projector against (|l><phi| + h.c.)/2
        mod = battery[name]
        h = 1e-4
        for th in mod.sample_grid[:3]:
            th = np.asarray(th, dtype=float)
            lift = mod.horizontal_lift(th)
            for i in range(mod.m):
                up, dn = th.copy(), th.copy()
                up[i] += h
                dn[i] -= h
                drho = (projector(mod.evaluate(up)) - projector(mod.evaluate(dn))) / (2 * h)
                l, phi = lift.lifts[i].coords, lift.phi.coords
                lifted = 0.5 * (np.outer(l, phi.conj()) + np.outer(phi, l.conj()))
                assert np.max(np.abs(drho - lifted)) < 1e-6

    def test_analytic_and_fd_lifts_agree(self, battery):
        # ring excluded: its transported profile has a phase step that
        # finite differences in theta cannot see
        for name, mod in battery.items():
            if mod.tangent_fn is None or name == "ring_flux":
                continue
            fd = PureStateModel(
                space=mod.space, m=mod.m, domain=mod.domain,
                evaluate_fn=mod.evaluate_fn, tangent_fn=None, fd_step=1e-4,
                kind=mod.kind,
            )
            th = mod.sample_grid[2]
            la = mod.horizontal_lift(th)
            lf = fd.horizontal_lift(th)
            for a, b in zip(la.lifts, lf.lifts):
                scale = max(1.0, a.norm())
                diff = StateVector(mod.space, a.amplitudes - b.amplitudes).norm()
                assert diff / scale < 1e-6


class TestGaugeCovariance:
    def test_lift_rotates_by_the_same_phase_only(self, battery):
        rng = np.random.default_rng(17)
        for name, mod in battery.items():
            coeffs = rng.normal(scale=0.3, size=(3, mod.m))

            def alpha(th):
                th = np.asarray(th)
                return float(coeffs[0] @ th + coeffs[1] @ th**2 + coeffs[2] @ th**3)

            def grad_alpha(th):
                th = np.asarray(th)
                return coeffs[0] + 2 * coeffs[1] * th + 3 * coeffs[2] * th**2

            twisted = rephased(mod, alpha, grad_alpha)
            th = mod.sample_grid[1]
            base = mod.horizontal_lift(th)
            new = twisted.horizontal_lift(th)
            phase = np.exp(1j * alpha(np.asarray(th)))
            for a, b in zip(base.lifts, new.lifts):
                diff = StateVector(mod.space, b.amplitudes - phase * a.amplitudes)
                assert diff.norm() < 1e-6 * max(1.0, a.norm())

    def test_a_phase_per_call_is_exact_without_a_tangent_fn(self, battery):
        # a solver's ground state carries a fresh phase on every call; with
        # tangent_fn=None the transported difference does not see it
        rng = np.random.default_rng(23)
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

        def ground_state(theta):
            pol, az = theta
            n = np.array([np.sin(pol) * np.cos(az), np.sin(pol) * np.sin(az), np.cos(pol)])
            vecs = np.linalg.eigh(-np.tensordot(n, paulis, axes=1))[1]
            return np.exp(2j * np.pi * rng.uniform()) * vecs[:, 0]

        bloch = battery["bloch"]
        solver = PureStateModel(space=bloch.space, m=2, domain=bloch.domain,
                                evaluate_fn=ground_state)
        for theta in [(0.7, 0.3), (1.2, -2.0), (2.5, 4.0), (0.4, 5.0)]:
            got, want = qg.analyze(solver, theta), qg.analyze(bloch, theta)
            assert np.max(np.abs(got.sld_fisher - want.sld_fisher)) < 1e-7
            assert np.max(np.abs(got.berry_curvature - want.berry_curvature)) < 1e-7
            assert got.betas == pytest.approx(want.betas, abs=1e-7)


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            qg.catalog("nope")

    def test_missing_params(self):
        with pytest.raises(KeyError):
            qg.catalog("spin_jz", {})

    def test_two_well_profile_formula(self):
        alpha = np.pi / 2
        mod = qg.catalog("two_well", {"alpha": alpha, "grid": {"n": 512, "lower": -8, "upper": 8}})
        th = 0.25
        state = mod.evaluate((th,))
        x = mod.space.points
        s = x - th
        raw = s**2 * np.exp(-(s**2) + 1j * np.where(s >= 0, 0.0, alpha))
        raw = raw / StateVector(mod.space, raw).norm()
        assert np.max(np.abs(state.amplitudes - raw)) < 1e-12

    def test_two_well_overlaps_are_complex(self):
        mod = qg.catalog("two_well", {"grid": {"n": 1024, "lower": -8, "upper": 8}})
        ov = inner(mod.evaluate((0.0,)), mod.evaluate((0.5,)))
        assert abs(ov.imag) > 1e-3

    def test_spin_dimension(self):
        mod = qg.catalog("spin_jz", {"amplitudes": [1, 0, 0, 0, 0]})
        assert mod.space.dim == 5
        assert mod.space.labels == (-2.0, -1.0, 0.0, 1.0, 2.0)

    def test_normalization_constant_cached_per_instance(self):
        mod = qg.catalog("two_well", {"grid": {"n": 512, "lower": -8, "upper": 8}})
        for th in (-0.5, 0.0, 0.5):
            assert abs(mod.evaluate((th,)).norm() - 1.0) < 1e-12


class TestCurve:
    def test_closed_curve_requires_ray_closure(self, battery):
        mod = battery["spin_jz"]
        # a full 2 pi turn of an integer-spin family returns to the ray
        pts = tuple((t,) for t in np.linspace(0.0, 2.0 * np.pi, 9))
        curve = Curve(mod, pts, closed=True)
        first = projector(mod.evaluate(curve.points[0]))
        last = projector(mod.evaluate(curve.points[-1]))
        assert np.linalg.norm(first - last) < 1e-8

    def test_too_short(self, battery):
        with pytest.raises(ValueError):
            Curve(battery["spin_jz"], ((0.0,),), closed=False)


class TestPhaseTables:
    """Phases linear in the grid index come from the two-level table of
    ``model._affine_phases``: ``coarse[j // B] * fine[j % B]``."""

    RATES = np.array([0.0, 1e-7, -1e-7, 2.0, -2.0])

    @pytest.mark.parametrize("n", [512, 1000, 4096, 65536])
    def test_phases_match_the_complex_exponential(self, n):
        space = hilbert.GridSpace(n, -10.0, 10.0)
        got = model._affine_phases(self.RATES, space.lower, space.weight, range(n))
        want = np.exp(1j * self.RATES[:, None] * space.points)
        assert got.shape == (len(self.RATES), n)
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("width", [1, 37, 63, 100, 333])
    def test_tiles_are_bitwise_the_whole_row(self, width):
        # tiles that start off a multiple of B, cross it and end short
        space = hilbert.GridSpace(1000, -10.0, 10.0)
        rates = self.RATES.reshape(1, -1)
        columns = range(1000)
        whole = model._affine_phases(rates, space.lower, space.weight, columns)
        tiles = [model._affine_phases(rates, space.lower, space.weight,
                                      columns[start:start + width])
                 for start in range(0, 1000, width)]
        assert np.concatenate(tiles, axis=-1).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("name", ["position_momentum_shift", "momentum_shift",
                                      "ring_flux", "spin_jz"])
    def test_states_and_lifts_do_not_depend_on_the_block(self, monkeypatch, name):
        mod = catalog_battery()[name]
        rng = np.random.default_rng(8)
        lo, hi = np.clip(np.asarray(mod.domain, dtype=float).T, -3.0, 3.0)
        thetas = rng.uniform(lo, hi, size=(7, mod.m))

        def run():
            rows = [mod.evaluate_many(thetas)]
            for lift in mod.horizontal_lifts(thetas):
                rows += [lift.phi.amplitudes, *(v.amplitudes for v in lift.lifts)]
            return [r.tobytes() for r in rows]

        want = run()
        for block in (97, 333, 3 * mod.space.dim):  # tiles of 97 or 333 columns, rows of 3
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
            assert run() == want

    def test_ring_flux_matches_the_direct_formula(self):
        alpha = 0.3
        mod = qg.catalog("ring_flux", {"alpha": alpha, "grid": {"n": 512}})
        omega = mod.space.points
        c = 1.0 / StateVector(mod.space, 2.0 - np.cos(omega) + 0j).norm()
        # on grid points the phase step sits on the point itself
        thetas = np.r_[omega[::5], omega[::5] - 2.0 * np.pi, omega[::5] + 2.0 * np.pi,
                       -2.0 * np.pi, 4.0 * np.pi][:, None]
        s = np.mod(omega - thetas, 2.0 * np.pi)
        phase = np.exp(1j * alpha * (s + thetas))
        states, tangents = mod.evaluate_fn(thetas), mod.tangent_fn(thetas, 0)
        assert np.max(np.abs(states - c * (2.0 - np.cos(s)) * phase)) < 1e-15
        assert np.max(np.abs(tangents + c * np.sin(s) * phase)) < 1e-15

    def test_ring_wrap_counts_are_the_floor_division(self):
        omega = qg.catalog("ring_flux", {"grid": {"n": 256}}).space.points
        ulp = np.spacing(omega)
        near = np.concatenate([omega - ulp, omega, omega + ulp])
        rng = np.random.default_rng(29)
        thetas = np.concatenate([near, near - 2.0 * np.pi, near + 2.0 * np.pi,
                                 [-2.0 * np.pi, 4.0 * np.pi],
                                 rng.uniform(-2.0 * np.pi, 4.0 * np.pi, 200)])[:, None]
        want = (omega - thetas) // (2.0 * np.pi)
        assert np.array_equal(model._wrap_counts(omega - thetas), want)
        tiles = [model._wrap_counts(omega[j:j + 1] - thetas) for j in range(len(omega))]
        assert np.array_equal(np.concatenate(tiles, axis=-1), want)

    @pytest.mark.parametrize("name", ["momentum_shift", "spin_jz"])
    def test_phase_generator_states_are_the_rotated_state(self, name):
        mod = catalog_battery()[name]
        if name == "momentum_shift":
            generator = -mod.space.points
        else:
            generator = np.asarray(mod.space.labels, dtype=float)
        thetas = np.array([[-2.0], [-0.3], [0.0], [1e-7], [0.7], [2.0]])
        psi0 = mod.evaluate((0.0,)).amplitudes
        want = np.exp(-1j * thetas * generator) * psi0
        assert np.max(np.abs(mod.evaluate_many(thetas) - want)) < 1e-14
