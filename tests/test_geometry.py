"""Metric, curvature, spectrum, bounds: values and invariances."""

import numpy as np
import pytest

import qestgeo as qg
from qestgeo import geometry
from qestgeo.errors import RankDeficiencyError, SpectralConsistencyError
from qestgeo.geometry import (
    WeightMatrix,
    attainable_cr_js,
    berry_curvature,
    d_transform,
    d_via_projection,
    is_quasi_classical,
    sld_bound,
    sld_fisher,
)
from qestgeo.hilbert import BasisSpace, StateVector
from qestgeo.model import PureStateModel, rephased

from conftest import random_unitary_family
from test_model import phase_only_model


def quadrature_oracle_gaussian_moments(grid):
    """<psi'|psi'> and <x^2> for the unit gaussian by direct quadrature."""
    x = grid.points
    psi = np.pi**-0.25 * np.exp(-0.5 * x * x)
    dpsi = -x * psi
    w = grid.weight
    return w * np.sum(dpsi * dpsi), w * np.sum(x * x * psi * psi)


class TestSldFisher:
    def test_position_shift_gaussian_value(self):
        # oracle: J = 4 <psi'|psi'> = 2 from the gaussian moment integral
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        kinetic, _ = quadrature_oracle_gaussian_moments(mod.space)
        j = sld_fisher(mod.horizontal_lift((0.0,)))
        assert j.shape == (1, 1)
        assert j[0, 0] == pytest.approx(4.0 * kinetic, rel=1e-12)
        assert j[0, 0] == pytest.approx(2.0, rel=1e-10)

    def test_position_momentum_gaussian_diag(self, pm_gaussian):
        kinetic, xsq = quadrature_oracle_gaussian_moments(pm_gaussian.space)
        j = sld_fisher(pm_gaussian.horizontal_lift((0.0, 0.0)))
        assert j[0, 0] == pytest.approx(4.0 * kinetic, rel=1e-12)
        assert j[1, 1] == pytest.approx(4.0 * xsq, rel=1e-12)
        assert abs(j[0, 1]) < 1e-10

    def test_degenerate_direction_gives_zero(self):
        j = sld_fisher(phase_only_model().horizontal_lift((0.0,)))
        assert abs(j[0, 0]) < 1e-12

    def test_symmetric_psd_on_random_models(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            mod = random_unitary_family(4, 3, rng)
            j = sld_fisher(mod.horizontal_lift(rng.uniform(-1, 1, 3)))
            assert np.allclose(j, j.T)
            assert np.min(np.linalg.eigvalsh(j)) > -1e-10


class TestBerryCurvature:
    def test_one_parameter_model_trivial(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        jt = berry_curvature(mod.horizontal_lift((0.0,)))
        assert jt.shape == (1, 1) and jt[0, 0] == 0.0

    def test_real_lift_family_has_zero_curvature(self):
        # two real parameters moving a real profile: all overlaps real
        space = BasisSpace(4)

        def ev(th):
            v = np.array([1.0, th[0], th[1], th[0] * th[1]])
            return (v / np.linalg.norm(v)) + 0j

        mod = PureStateModel(space=space, m=2, domain=((-1, 1), (-1, 1)),
                             evaluate_fn=ev)
        jt = berry_curvature(mod.horizontal_lift((0.3, -0.2)))
        assert np.max(np.abs(jt)) < 1e-9

    def test_position_momentum_gaussian_offdiagonal(self, pm_gaussian):
        # oracle: Im<l_x|l_p> = 4 Im<-psi'| i x psi> = -4 int psi' x psi = 2
        # by integration by parts, int x psi psi' = -1/2
        x = pm_gaussian.space.points
        w = pm_gaussian.space.weight
        psi = np.pi**-0.25 * np.exp(-0.5 * x * x)
        by_parts = w * np.sum(x * psi * (-x * psi))  # int x psi psi'
        assert by_parts == pytest.approx(-0.5, abs=1e-10)
        jt = berry_curvature(pm_gaussian.horizontal_lift((0.0, 0.0)))
        assert jt[0, 1] == pytest.approx(-4.0 * by_parts, rel=1e-10)
        assert jt[0, 1] == pytest.approx(2.0, rel=1e-10)
        assert jt[1, 0] == pytest.approx(-2.0, rel=1e-10)


class TestDTransform:
    def test_hand_checked_two_by_two(self):
        j_s = np.diag([2.0, 2.0])
        j_t = np.array([[0.0, 2.0], [-2.0, 0.0]])
        d, betas = d_transform(j_s, j_t)
        assert np.allclose(d, [[0.0, 1.0], [-1.0, 0.0]])
        assert betas == pytest.approx([1.0])

    def test_quasi_classical_spectrum_empty(self):
        d, betas = d_transform(np.diag([3.0, 5.0]), np.zeros((2, 2)))
        assert betas == []
        assert np.allclose(d, 0.0)

    def test_two_dim_closed_form(self):
        # beta_1 = |J~_12| / sqrt(det J_S)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.uniform(0.5, 3.0, size=(2, 2))
            j_s = a @ a.T + 0.5 * np.eye(2)
            off = rng.uniform(-1.0, 1.0)
            j_t = np.array([[0.0, off], [-off, 0.0]])
            _, betas = d_transform(j_s, j_t)
            expected = abs(off) / np.sqrt(np.linalg.det(j_s))
            if expected < 1e-10:
                assert betas == []
            else:
                assert betas[0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("call", [
        lambda j_s: d_transform(j_s, np.zeros((2, 2))),
        lambda j_s: geometry.sld_bound(np.eye(2), j_s),
    ], ids=["d_transform", "sld_bound"])
    def test_singular_metric_raises_with_null_directions(self, call):
        j_s = np.diag([2.0, 0.0])
        with pytest.raises(RankDeficiencyError) as err:
            call(j_s)
        null = err.value.null_directions
        assert null is not None and abs(abs(null[1, 0]) - 1.0) < 1e-12


class TestDViaProjection:
    def lstsq_oracle(self, lift, x):
        """Independent real least-squares projection of the rotated lift."""
        frame = np.column_stack([l.coords for l in lift.lifts])
        target = -1j * (frame @ np.asarray(x, dtype=float))
        a = np.concatenate([frame.real, frame.imag])
        b = np.concatenate([target.real, target.imag])
        return np.linalg.lstsq(a, b, rcond=None)[0]

    def test_quasi_classical_projects_to_zero(self):
        space = BasisSpace(4)

        def ev(th):
            v = np.array([1.0, th[0], th[1], 0.5 * th[0] * th[1]])
            return (v / np.linalg.norm(v)) + 0j

        mod = PureStateModel(space=space, m=2, domain=((-1, 1), (-1, 1)),
                             evaluate_fn=ev)
        lift = mod.horizontal_lift((0.2, 0.4))
        out = d_via_projection(lift, np.array([1.0, 0.0]))
        assert np.max(np.abs(out)) < 1e-8

    def test_matches_transform_on_gaussian(self, pm_gaussian):
        lift = pm_gaussian.horizontal_lift((0.0, 0.0))
        d, _ = d_transform(sld_fisher(lift), berry_curvature(lift))
        for x in (np.array([1.0, 0.0]), np.array([0.3, -0.7])):
            out = d_via_projection(lift, x)
            assert np.allclose(out, d @ x, atol=1e-8)
            assert np.allclose(out, self.lstsq_oracle(lift, x), atol=1e-10)

    def test_matches_transform_on_bloch_equator(self):
        mod = qg.catalog("bloch")
        lift = mod.horizontal_lift((np.pi / 2, 0.3))
        d, _ = d_transform(sld_fisher(lift), berry_curvature(lift))
        x = np.array([1.0, 0.0])
        assert np.allclose(d_via_projection(lift, x), d @ x, atol=1e-8)

    def test_rank_deficient_frame_raises(self):
        lift = phase_only_model().horizontal_lift((0.0,))
        with pytest.raises(RankDeficiencyError):
            d_via_projection(lift, np.array([1.0]))


class TestBounds:
    def test_sld_bound_at_own_metric_is_dimension(self):
        j_s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert sld_bound(j_s, j_s) == pytest.approx(2.0, abs=1e-14)

    def test_sld_bound_single_component(self):
        assert sld_bound(np.diag([1.0, 0.0]), np.diag([2.0, 2.0])) == pytest.approx(0.5)

    def test_sld_bound_identity_weight(self):
        assert sld_bound(np.eye(2), np.diag([2.0, 2.0])) == pytest.approx(1.0)

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        WeightMatrix(np.diag([1.0, 0.0]))

    def test_weight_matrix_tolerance_is_relative_to_the_weight(self):
        q = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
        g = q @ np.diag([1.0, 2.0, 3.0]) * 1e6 @ q.T
        assert np.max(np.abs(g - g.T)) > geometry.WEIGHT_TOL  # rounding of the product
        WeightMatrix(g)
        skew = g.copy()
        skew[0, 1] += 1e-9 * np.max(np.abs(g))
        with pytest.raises(ValueError, match="symmetric"):
            WeightMatrix(skew)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weight_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_attainable_cr_quasi_classical_is_m(self):
        for m in (1, 2, 3, 5):
            j_s = np.diag(np.arange(1.0, m + 1.0))
            assert attainable_cr_js(j_s, np.zeros((m, m))) == float(m)

    def test_attainable_cr_values(self):
        j_s = np.diag([2.0, 2.0])

        def jt(beta):
            off = beta * np.sqrt(np.linalg.det(j_s))
            return np.array([[0.0, off], [-off, 0.0]])

        assert attainable_cr_js(j_s, jt(1.0)) == pytest.approx(4.0)
        assert attainable_cr_js(j_s, jt(0.6)) == pytest.approx(4.0 / 1.8, rel=1e-12)

    def test_attainable_cr_strictly_increasing_in_beta(self):
        j_s = np.diag([2.0, 2.0])
        values = []
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            off = beta * np.sqrt(np.linalg.det(j_s))
            values.append(attainable_cr_js(j_s, [[0.0, off], [-off, 0.0]]))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_beta_above_one_rejected(self):
        j_s = np.eye(2)
        j_t = np.array([[0.0, 1.1], [-1.1, 0.0]])
        with pytest.raises(SpectralConsistencyError):
            attainable_cr_js(j_s, j_t)

    def test_odd_directions_contribute_classically(self):
        j_s = np.eye(3)
        j_t = np.zeros((3, 3))
        j_t[0, 1], j_t[1, 0] = 0.8, -0.8
        expected = 4.0 / (1.0 + 0.6) + 1.0
        assert attainable_cr_js(j_s, j_t) == pytest.approx(expected, rel=1e-12)


class TestQuasiClassicalFlag:
    def test_real_model_true(self):
        assert is_quasi_classical(np.zeros((2, 2)), np.eye(2))

    def test_gaussian_pm_false(self, pm_gaussian):
        lift = pm_gaussian.horizontal_lift((0.0, 0.0))
        assert not is_quasi_classical(berry_curvature(lift), sld_fisher(lift))

    def test_one_parameter_always_true(self):
        mod = qg.catalog("spin_jz", {"amplitudes": [0.3, 0.9539392014169457]})
        lift = mod.horizontal_lift((0.5,))
        assert is_quasi_classical(berry_curvature(lift), sld_fisher(lift))


class TestInvariants:
    def test_gauge_invariance_of_all_scalars(self, pm_gaussian):
        rng = np.random.default_rng(23)
        th = (0.2, -0.4)
        base = qg.analyze(pm_gaussian, th)
        for _ in range(5):
            c = rng.normal(scale=0.4, size=(2, pm_gaussian.m))

            def alpha(t):
                t = np.asarray(t)
                return float(c[0] @ t + c[1] @ t**2)

            def grad_alpha(t):
                t = np.asarray(t)
                return c[0] + 2 * c[1] * t

            rep = qg.analyze(rephased(pm_gaussian, alpha, grad_alpha), th)
            assert np.max(np.abs(rep.sld_fisher - base.sld_fisher)) < 1e-6
            assert np.max(np.abs(rep.berry_curvature - base.berry_curvature)) < 1e-6
            assert rep.betas == pytest.approx(base.betas, abs=1e-6)
            assert rep.cr_js == pytest.approx(base.cr_js, abs=1e-6)

    def test_fiber_distance_minimality(self, battery):
        # any vertical re-phasing can only lengthen the tangent:
        # 4 <phi'|phi'> = J_S + 4 alpha_dot^2 for horizontal base families
        rng = np.random.default_rng(31)
        for name in ("position_shift", "spin_jz", "ring_flux", "two_well"):
            mod = battery[name]
            th = np.asarray(mod.sample_grid[2], dtype=float)
            j = sld_fisher(mod.horizontal_lift(th))[0, 0]
            for _ in range(5):
                a_dot = rng.normal(scale=0.8)
                h = 1e-5
                up = mod.evaluate(th + h).amplitudes * np.exp(1j * a_dot * h)
                dn = mod.evaluate(th - h).amplitudes * np.exp(-1j * a_dot * h)
                der = StateVector(mod.space, (up - dn) / (2 * h))
                speed = 4.0 * der.norm() ** 2
                assert speed >= j - 1e-5
                assert speed - j == pytest.approx(4.0 * a_dot**2, abs=1e-4)

    def test_spectral_pairing_on_random_models(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = int(rng.integers(2, 4))
            mod = random_unitary_family(4, m, rng)
            lift = mod.horizontal_lift(rng.uniform(-1, 1, m))
            j_s, j_t = sld_fisher(lift), berry_curvature(lift)
            inv_sqrt = np.linalg.inv(np.linalg.cholesky(j_s)).T
            k = inv_sqrt.T @ j_t @ inv_sqrt
            eig = np.linalg.eigvals(0.5 * (k - k.T))
            assert np.max(np.abs(eig.real)) < 1e-8
            pos = np.sort(eig.imag[eig.imag > 1e-10])
            neg = np.sort(-eig.imag[eig.imag < -1e-10])
            assert np.allclose(pos, neg, atol=1e-10)
            _, betas = d_transform(j_s, j_t)
            assert all(b <= 1.0 + 1e-8 for b in betas)

    def test_report_flags_rank_deficiency(self):
        rep = qg.analyze(phase_only_model(), (0.1,))
        assert rep.rank_deficient
        assert rep.cr_js is None and rep.d_matrix is None
        with pytest.raises(RankDeficiencyError):
            rep.sld_bound(np.eye(1))


class TestSpectralPass:
    """``analyze`` does one eigh, one SVD and one solve per point."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        counts = {}
        for name in ("eigh", "eigvalsh", "svd", "solve"):
            counts[name] = 0

            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(geometry.np.linalg, name, counted)
        return counts

    def test_full_rank_point(self, spectral_calls):
        rep = qg.analyze(qg.catalog("bloch"), (1.0, 0.3))
        assert not rep.rank_deficient
        assert rep.betas == pytest.approx((1.0,), abs=1e-12)
        assert spectral_calls == {"eigh": 1, "eigvalsh": 0, "svd": 1, "solve": 1}

    def test_rank_deficient_point(self, spectral_calls):
        rep = qg.analyze(qg.catalog("bloch"), (0.0, 0.3))
        assert rep.rank_deficient and rep.d_matrix is None and rep.cr_js is None
        assert spectral_calls == {"eigh": 1, "eigvalsh": 0, "svd": 0, "solve": 0}

    def test_report_bound_reuses_rank_verdict(self, spectral_calls):
        bloch = qg.catalog("bloch")
        rep = qg.analyze(bloch, (1.0, 0.3))
        assert rep.sld_bound(rep.sld_fisher) == pytest.approx(2.0, abs=1e-14)
        assert spectral_calls["eigvalsh"] == 0
        deficient = qg.analyze(bloch, (0.0, 0.3))
        before = dict(spectral_calls)
        with pytest.raises(RankDeficiencyError):
            deficient.sld_bound(np.eye(2))
        assert spectral_calls == before

    def test_beta_above_one_still_rejected(self, spectral_calls, monkeypatch):
        # a Hermitian "Gram" matrix that no family of lift vectors has:
        # its whitened curvature exceeds 1
        fake = np.array([[1.0, 1.1j], [-1.1j, 1.0]])
        monkeypatch.setattr(geometry, "_gram", lambda lift: fake)
        with pytest.raises(SpectralConsistencyError):
            qg.analyze(qg.catalog("bloch"), (1.0, 0.3))
        assert spectral_calls == {"eigh": 1, "eigvalsh": 0, "svd": 1, "solve": 1}
        with pytest.raises(SpectralConsistencyError):
            attainable_cr_js(fake.real, fake.imag)

    def test_matches_separate_functions(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            mod = random_unitary_family(4, 3, rng)
            th = rng.uniform(-1, 1, 3)
            rep = qg.analyze(mod, th)
            lift = mod.horizontal_lift(th)
            j_s, j_t = sld_fisher(lift), berry_curvature(lift)
            d, betas = d_transform(j_s, j_t)
            assert np.array_equal(rep.sld_fisher, j_s)
            assert np.array_equal(rep.berry_curvature, j_t)
            assert np.array_equal(rep.d_matrix, d)
            assert rep.betas == tuple(betas)
            assert rep.cr_js == attainable_cr_js(j_s, j_t)
            assert rep.sld_bound(np.eye(3)) == sld_bound(np.eye(3), j_s)


def tilted_family(eps, s):
    """``psi ~ (1, t0 + i eps s t1, s t1)`` with closed-form tangents: at
    ``(0, 0)`` its one beta is ``eps`` for every scale ``s``, while the raw
    curvature ``eps s`` shrinks with ``s``."""

    def vec(t):
        return np.array([1.0, t[0] + 1j * eps * s * t[1], s * t[1]])

    def ev(t):
        v = vec(t)
        return v / np.linalg.norm(v)

    def tangent(t, i):
        v = vec(t)
        dv = np.array([0, 1, 0], complex) if i == 0 else np.array([0, 1j * eps * s, s])
        n = np.linalg.norm(v)
        return dv / n - v * np.real(np.vdot(v, dv)) / n**3

    return PureStateModel(space=BasisSpace(3), m=2, domain=((-1, 1), (-1, 1)),
                          evaluate_fn=ev, tangent_fn=tangent)


class TestOneQuasiClassicalRule:
    """At a regular metric the flag is read off the betas: one tolerance."""

    @pytest.mark.parametrize("eps", np.logspace(-12, -5, 57))
    def test_flag_is_no_betas_at_every_scale(self, eps):
        flags = set()
        for s in (1.0, 0.01):
            rep = qg.analyze(tilted_family(eps, s), (0.0, 0.0))
            assert not rep.rank_deficient
            assert rep.quasi_classical == (rep.betas == ())
            assert is_quasi_classical(rep.berry_curvature, rep.sld_fisher) == rep.quasi_classical
            flags.add(rep.quasi_classical)
        assert len(flags) == 1

    def test_beta_above_the_tolerance_is_not_quasi_classical(self):
        for s in (1.0, 0.01):
            rep = qg.analyze(tilted_family(1e-7, s), (0.0, 0.0))
            assert rep.betas == pytest.approx((1e-7,), rel=1e-9)
            assert rep.quasi_classical is False

    def test_singular_metric_falls_back_to_the_raw_curvature(self):
        j_s = np.diag([1.0, 0.0])
        j_t = np.array([[0.0, 1e-9], [-1e-9, 0.0]])
        assert is_quasi_classical(j_t, j_s)
        assert not is_quasi_classical(100 * j_t, j_s)
        rep = qg.analyze(qg.catalog("bloch"), (0.0, 0.3))
        assert rep.rank_deficient
        assert rep.quasi_classical == is_quasi_classical(rep.berry_curvature, rep.sld_fisher)
