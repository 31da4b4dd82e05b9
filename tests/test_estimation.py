"""Measurements, induced families, Fisher comparisons, Monte Carlo."""

import tracemalloc

import numpy as np
import pytest

import qestgeo as qg
from qestgeo import estimation as est
from qestgeo import geometry, hilbert
from qestgeo.errors import (
    MeasurementDefinitionError,
    NonRealOverlapError,
    SingularSupportError,
    SpaceMismatchError,
)
from qestgeo.estimation import (
    CellPovm,
    ClassicalFamily,
    MatrixPovm,
    classical_fisher,
    estimator_covariance,
    grid_pvm,
    induced_distribution,
    measurement_family,
    optimal_measurement_quasi_parallel,
    sample_counts,
    sample_outcomes,
    split_seeds,
)
from qestgeo.hilbert import BasisSpace, StateVector


def basis_state(space, k):
    amp = np.zeros(space.dim, dtype=complex)
    amp[k] = 1.0
    return StateVector(space, amp)


class TestInducedDistribution:
    def test_basis_pvm_on_basis_state(self):
        space = BasisSpace(4)
        p = induced_distribution(CellPovm(space), basis_state(space, 0))
        assert np.allclose(p, [1, 0, 0, 0])

    def test_basis_pvm_on_plus_state(self):
        space = BasisSpace(3)
        plus = StateVector(space, np.array([1, 1, 0]) / np.sqrt(2) + 0j)
        p = induced_distribution(CellPovm(space), plus)
        assert np.allclose(p, [0.5, 0.5, 0.0])

    def test_grid_cells_match_analytic_density(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        theta = 0.7
        p = induced_distribution(grid_pvm(mod.space), mod.evaluate((theta,)))
        x = mod.space.points
        w = mod.space.weight
        density = np.pi**-0.5 * np.exp(-((x - theta) ** 2))
        assert np.max(np.abs(p - w * density)) < 1e-8

    def test_matrix_povm_validation(self):
        space = BasisSpace(2)
        good = MatrixPovm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], space=space)
        assert good.n_outcomes == 2
        with pytest.raises(MeasurementDefinitionError):
            MatrixPovm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])
        with pytest.raises(MeasurementDefinitionError):
            MatrixPovm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_povm_rejects_non_finite_entries(self, bad):
        elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        elements[1][0, 1] = bad
        with pytest.raises(MeasurementDefinitionError, match="element 1 has a non-finite"):
            MatrixPovm(elements)

    def test_nan_probability_fails_the_checks(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        rho[2, 2] = np.nan
        with pytest.raises(MeasurementDefinitionError,
                           match="induced probability nan is non-finite"):
            induced_distribution(CellPovm(BasisSpace(3)), rho)

    def test_accepts_density_matrix(self):
        space = BasisSpace(3)
        from qestgeo.hilbert import projector

        rho = projector(basis_state(space, 1))
        p = induced_distribution(CellPovm(space), rho)
        assert np.allclose(p, [0, 1, 0])


class TestClassicalFisher:
    def test_binomial_closed_form(self):
        fam = ClassicalFamily.from_probability_fn(
            lambda th: np.array([th[0], 1.0 - th[0]]), m=1
        )
        j = classical_fisher(fam, np.array([0.25]))
        assert j[0, 0] == pytest.approx(1.0 / (0.25 * 0.75), rel=1e-8)

    def test_real_amplitude_chain_rule(self):
        # oracle: p_i = a_i(theta)^2 gives J = 4 sum (da_i)^2
        space = BasisSpace(3)

        def coeffs(th):
            raw = np.array([1.0, np.sin(th), th**2 + 0.2])
            return raw / np.linalg.norm(raw)

        def ev(theta):
            return coeffs(theta[0]) + 0j

        from qestgeo.model import PureStateModel

        mod = PureStateModel(space=space, m=1, domain=((-1.0, 1.0),),
                             evaluate_fn=ev, fd_step=1e-5)
        fam = measurement_family(mod, CellPovm(space))
        th = 0.3
        j = classical_fisher(fam, np.array([th]))
        h = 1e-6
        da = (coeffs(th + h) - coeffs(th - h)) / (2 * h)
        assert j[0, 0] == pytest.approx(4.0 * np.sum(da**2), rel=1e-4)

    def test_position_measurement_on_gaussian_shift_attains(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        fam = measurement_family(mod, grid_pvm(mod.space))
        j_c = classical_fisher(fam, np.array([0.25]))
        j_s = geometry.sld_fisher(mod.horizontal_lift((0.25,)))
        assert j_c[0, 0] == pytest.approx(j_s[0, 0], rel=1e-10)
        assert j_c[0, 0] == pytest.approx(2.0, rel=1e-8)

    def test_singular_support_detected(self):
        fam = ClassicalFamily.from_probability_fn(
            lambda th: np.array([th[0], 1.0 - th[0]]), m=1
        )
        with pytest.raises(SingularSupportError):
            classical_fisher(fam, np.array([1e-14]))


class TestOptimalMeasurement:
    def test_spin_attains_quantum_fisher_everywhere(self):
        mod = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        povm = optimal_measurement_quasi_parallel(mod, mod.sample_grid)
        fam = measurement_family(mod, povm)
        for th in mod.sample_grid:
            j_c = classical_fisher(fam, np.asarray(th))
            assert j_c[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_oscillator_ground_state_attains(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 1024, "lower": -10, "upper": 10}})
        samples = [(t,) for t in np.linspace(-2, 2, 21)]
        povm = optimal_measurement_quasi_parallel(mod, samples)
        fam = measurement_family(mod, povm)
        for th in samples[::4]:
            j_c = classical_fisher(fam, np.asarray(th))
            j_s = geometry.sld_fisher(mod.horizontal_lift(th))
            assert abs(j_c[0, 0] - j_s[0, 0]) / j_s[0, 0] < 5e-3

    def test_single_fixed_measurement(self):
        mod = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        povm = optimal_measurement_quasi_parallel(mod, mod.sample_grid)
        assert povm.n_outcomes == 3  # spans the whole spin-1 space

    def test_non_parallel_family_rejected(self):
        mod = qg.catalog("two_well", {"grid": {"n": 1024, "lower": -8, "upper": 8}})
        with pytest.raises(NonRealOverlapError):
            optimal_measurement_quasi_parallel(mod, mod.sample_grid)


class TestGridPvm:
    @pytest.mark.parametrize("name,params", [
        ("two_well", {"grid": {"n": 2048, "lower": -8, "upper": 8}}),
        ("ring_flux", {"alpha": 0.3, "grid": {"n": 1024}}),
    ])
    def test_attainment_despite_nonparallelism(self, name, params):
        mod = qg.catalog(name, params)
        fam = measurement_family(mod, grid_pvm(mod.space))
        for th in mod.sample_grid:
            j_c = classical_fisher(fam, np.asarray(th))
            j_s = geometry.sld_fisher(mod.horizontal_lift(th))
            assert abs(j_c[0, 0] - j_s[0, 0]) / j_s[0, 0] < 5e-3

    def test_indicator_on_basis_state(self):
        space = BasisSpace(5)
        p = induced_distribution(grid_pvm(space), basis_state(space, 3))
        assert np.allclose(p, np.eye(5)[3])


class TestSampling:
    def test_deterministic_distribution(self):
        space = BasisSpace(3)
        out = sample_outcomes(CellPovm(space), basis_state(space, 1), 200, seed=1)
        assert np.all(out == 1)

    def test_binomial_concentration(self):
        space = BasisSpace(2)
        plus = StateVector(space, np.array([1, 1]) / np.sqrt(2) + 0j)
        n = 100000
        out = sample_outcomes(CellPovm(space), plus, n, seed=42)
        freq = np.mean(out == 0)
        assert abs(freq - 0.5) < 5 * 0.5 / np.sqrt(n)

    def test_seed_determinism(self):
        space = BasisSpace(4)
        s = StateVector(space, np.array([1, 1, 1, 1]) / 2.0 + 0j)
        a = sample_outcomes(CellPovm(space), s, 1000, seed=9)
        b = sample_outcomes(CellPovm(space), s, 1000, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 9, 20260808])
    def test_outcomes_are_the_generator_choice_draws(self, seed):
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        povm = grid_pvm(mod.space)
        state = mod.evaluate((0.3,))
        p = induced_distribution(povm, state)
        want = np.random.default_rng(seed).choice(p.size, size=5000, p=p / np.sum(p))
        got = sample_outcomes(povm, state, 5000, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["grid", "schmidt_complement", "octahedral", "zeros"])
    @pytest.mark.parametrize("n, chunk", [(1, est.SAMPLE_CHUNK), (1000, 64), (4096, 1024)])
    def test_counts_are_the_bincount_of_the_outcomes(self, monkeypatch, case, n, chunk):
        povm, state = sampling_case(case)
        want = np.bincount(sample_outcomes(povm, state, n, 5), minlength=povm.n_outcomes)
        monkeypatch.setattr(est, "SAMPLE_CHUNK", chunk)
        got = sample_counts(povm, state, n, 5)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_counts_memory_is_one_chunk(self, monkeypatch):
        chunk = 1 << 15
        monkeypatch.setattr(est, "SAMPLE_CHUNK", chunk)
        space = BasisSpace(64)
        povm = CellPovm(space)
        state = StateVector(space, np.full(64, 1 / 8, dtype=complex))
        sample_counts(povm, state, 10, 1)  # lazy set-up outside the trace

        def peak(n):
            tracemalloc.start()
            try:
                sample_counts(povm, state, n, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        buffer_bytes = 8 * chunk
        one, eight = peak(chunk), peak(8 * chunk)
        assert eight < 2 * buffer_bytes + 100 * 8 * space.dim
        assert eight < 1.1 * one

    def test_split_seeds_are_distinct(self):
        seeds = split_seeds(7, 4)
        assert len(set(int(s) for s in seeds)) == 4


class TestEstimatorCovariance:
    def test_constant_estimator(self):
        stats = estimator_covariance(np.zeros(50, dtype=int), lambda idx: idx * 0.0)
        assert stats.covariance[0, 0] == 0.0

    def test_gaussian_sample_mean_variance(self):
        # oracle: Var(x) = 1/2 for the unit gaussian density
        mod = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
        povm = grid_pvm(mod.space)
        out = sample_outcomes(povm, mod.evaluate((0.0,)), 100000, seed=20260808)
        x = mod.space.points
        stats = estimator_covariance(out, lambda idx: x[idx])
        assert abs(stats.covariance[0, 0] - 0.5) / 0.5 < 0.02
        assert abs(stats.mean[0]) < 0.02

    def test_two_well_score_estimator(self):
        # locally unbiased at theta0 via the efficient score
        mod = qg.catalog("two_well", {"grid": {"n": 2048, "lower": -8, "upper": 8}})
        theta0 = np.array([0.0])
        povm = grid_pvm(mod.space)
        fam = measurement_family(mod, povm)
        p = fam.probabilities(theta0)
        s = fam.scores(theta0)[0]
        j = classical_fisher(fam, theta0)[0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(p > 1e-12, s / np.clip(p, 1e-300, None), 0.0)
        estimates = theta0[0] + score / j
        out = sample_outcomes(povm, mod.evaluate(theta0), 100000, seed=77)
        stats = estimator_covariance(out, lambda idx: estimates[idx])
        assert abs(stats.mean[0] - theta0[0]) < 0.01
        assert abs(stats.covariance[0, 0] - 1.0 / j) / (1.0 / j) < 0.05

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            estimator_covariance(np.array([1]), lambda idx: idx)


class TestOrderingInvariants:
    def test_quantum_dominates_classical_across_battery(self, battery):
        for name, mod in battery.items():
            povm = grid_pvm(mod.space)
            fam = measurement_family(mod, povm)
            for th in mod.sample_grid[:3]:
                j_c = classical_fisher(fam, np.asarray(th))
                j_s = geometry.sld_fisher(mod.horizontal_lift(th))
                gap_eigs = np.linalg.eigvalsh(j_s - j_c)
                assert np.min(gap_eigs) > -1e-6, name

    def test_coarse_graining_never_gains(self):
        rng = np.random.default_rng(3)
        mod = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        povm = optimal_measurement_quasi_parallel(mod, mod.sample_grid)
        fam = measurement_family(mod, povm)
        th = np.array([0.7])
        j_full = classical_fisher(fam, th)
        p = fam.probabilities(th)
        s = fam.scores(th)
        for _ in range(5):
            a, b = rng.choice(len(p), size=2, replace=False)
            keep = [k for k in range(len(p)) if k not in (a, b)]
            p_merged = np.concatenate([p[keep], [p[a] + p[b]]])
            s_merged = np.concatenate([s[:, keep], s[:, [a]] + s[:, [b]]], axis=1)
            fam_merged = ClassicalFamily(
                m=1, n_outcomes=len(p_merged),
                probabilities=lambda t: p_merged,
                scores=lambda t: s_merged,
            )
            j_merged = classical_fisher(fam_merged, th)
            assert np.min(np.linalg.eigvalsh(j_full - j_merged)) > -1e-6

    def test_empirical_variance_respects_classical_bound(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        povm = grid_pvm(mod.space)
        fam = measurement_family(mod, povm)
        j_c = classical_fisher(fam, np.array([0.0]))[0, 0]
        out = sample_outcomes(povm, mod.evaluate((0.0,)), 40000, seed=5)
        x = mod.space.points
        stats = estimator_covariance(out, lambda idx: x[idx])
        v = stats.covariance[0, 0]
        draws = x[out]
        fourth = np.mean((draws - draws.mean()) ** 4)
        se = np.sqrt(max(fourth - v**2, 0.0) / stats.n)
        assert v >= 1.0 / j_c - 3.0 * se


def octahedral_elements():
    """Six elements |v><v| / 3 along the +-x, +-y, +-z Bloch axes."""
    s = 2**-0.5
    kets = [(1, 0), (0, 1), (s, s), (s, -s), (s, 1j * s), (s, -1j * s)]
    return [np.outer(v, np.conj(v)) / 3.0 for v in np.asarray(kets, dtype=complex)]


def sampling_case(name):
    """A POVM and a state for the sampling tests."""
    if name == "grid":
        mod = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        return grid_pvm(mod.space), mod.evaluate((0.3,))
    if name == "schmidt_complement":
        # three sample states of 256 dimensions: the complement outcome carries mass
        mod = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        povm = optimal_measurement_quasi_parallel(mod, [(-1.0,), (0.0,), (1.0,)])
        assert povm.has_complement
        return povm, mod.evaluate((0.5,))
    if name == "octahedral":
        bloch = qg.catalog("bloch")
        povm = MatrixPovm(octahedral_elements(), space=bloch.space)
        assert povm.rank == 2
        return povm, bloch.evaluate((0.7, 0.2))
    space = BasisSpace(7)
    return grid_pvm(space), StateVector(space, np.array([0, 0.6, 0, 0, 0.8, 0, 0]) + 0j)


def node_case():
    """Odd oscillator state whose node sits exactly on a grid point at theta = 0."""
    mod = qg.catalog("position_shift", {"profile": {"name": "hermite", "n": 1},
                                        "grid": {"n": 257, "lower": -8, "upper": 8}})
    return mod, grid_pvm(mod.space), [(0.0,)]


def lift_fisher_cases():
    ps = qg.catalog("position_shift", {"grid": {"n": 512, "lower": -10, "upper": 10}})
    spin = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
    bloch = qg.catalog("bloch")
    samples = [(t,) for t in np.linspace(-1, 1, 9)]
    return {
        "cell": (ps, grid_pvm(ps.space), [(0.25,), (-0.6,)]),
        "schmidt": (ps, optimal_measurement_quasi_parallel(ps, samples), samples[::3]),
        "schmidt_spin": (spin, optimal_measurement_quasi_parallel(spin, spin.sample_grid),
                         spin.sample_grid),
        "matrix": (bloch, MatrixPovm(octahedral_elements(), space=bloch.space),
                   [(0.7, 0.2), (1.1, 4.0)]),
        "node": node_case(),
    }


class TestLiftFisher:
    @pytest.mark.parametrize("case", ["cell", "schmidt", "schmidt_spin", "matrix", "node"])
    def test_matches_measurement_family(self, case):
        mod, povm, thetas = lift_fisher_cases()[case]
        fam = measurement_family(mod, povm)
        for th in thetas:
            want = classical_fisher(fam, np.asarray(th))
            got = est.lift_fisher(povm, mod.horizontal_lift(th))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_node_case_takes_the_node_path(self):
        mod, povm, thetas = node_case()
        p = induced_distribution(povm, mod.evaluate(thetas[0]))
        assert np.min(p) <= est.PROB_CLIP
        lift = mod.horizontal_lift(thetas[0])
        dropped = p <= est.PROB_CLIP
        node = povm.node_fisher(lift.lifts, dropped)
        assert node[0, 0] > 1e-3
        # the node term is what lets the grid PVM attain J_S
        j_c = est.lift_fisher(povm, lift)
        assert j_c[0, 0] == pytest.approx(geometry.sld_fisher(lift)[0, 0], rel=1e-8)

    @pytest.mark.parametrize("povm_kind", ["basis", "matrix", "schmidt"])
    def test_cli_fisher_evaluates_each_theta_once(self, monkeypatch, capsys, tmp_path,
                                                  povm_kind):
        import dataclasses
        import json

        from qestgeo import cli

        if povm_kind == "schmidt":
            base = qg.catalog("position_shift",
                              {"grid": {"n": 256, "lower": -10, "upper": 10}})
            thetas, extra = "-0.5;0;0.5", ["--samples=-1;-0.5;0;0.5;1"]
        else:
            base = qg.catalog("bloch")
            thetas, extra = "0.7,0.2;1.1,4;2,1;0.5,0.5", []
        povm_arg = povm_kind
        if povm_kind == "matrix":
            path = tmp_path / "octahedral.json"
            path.write_text(json.dumps({"kind": "matrices", "elements": [
                [[[z.real, z.imag] for z in row] for row in e]
                for e in octahedral_elements()]}))
            povm_arg = str(path)
        calls = {"evaluate": 0, "tangent": 0}

        def ev(theta):
            calls["evaluate"] += 1
            return base.evaluate_fn(theta)

        def tangent(theta, i):
            calls["tangent"] += 1
            return base.tangent_fn(theta, i)

        counted = dataclasses.replace(base, evaluate_fn=ev, tangent_fn=tangent)
        monkeypatch.setattr(cli, "_load_model", lambda path: (counted, {"kind": "test"}))
        make_povm = cli._make_povm

        def make_then_reset(*args):
            # POVM construction (schmidt samples) is not per-theta work
            out = make_povm(*args)
            calls.update(evaluate=0, tangent=0)
            return out

        monkeypatch.setattr(cli, "_make_povm", make_then_reset)
        code = cli.main(["fisher", "--model", "-", "--povm", povm_arg,
                         "--theta=" + thetas, *extra])
        assert code == 0
        n = len(json.loads(capsys.readouterr().out)["entries"])
        assert calls == {"evaluate": n, "tangent": n * base.m}


class TestOneLiftRoute:
    @pytest.mark.parametrize("name", ["bloch", "position_shift"])
    def test_measurement_family_takes_one_lift_per_theta(self, name):
        import dataclasses

        if name == "bloch":
            base, thetas = qg.catalog("bloch"), [(0.7, 0.2), (1.1, 4.0)]
        else:
            base = qg.catalog(name, {"grid": {"n": 256, "lower": -10, "upper": 10}})
            thetas = [(0.0,), (0.3,)]
        calls = {"evaluate": 0, "tangent": 0}

        def ev(theta):
            calls["evaluate"] += 1
            return base.evaluate_fn(theta)

        def tangent(theta, i):
            calls["tangent"] += 1
            return base.tangent_fn(theta, i)

        povm = grid_pvm(base.space)
        fam = measurement_family(dataclasses.replace(base, evaluate_fn=ev, tangent_fn=tangent),
                                 povm)
        for th in thetas:
            calls.update(evaluate=0, tangent=0)
            got = classical_fisher(fam, th)
            assert calls == {"evaluate": 1, "tangent": base.m}
            assert np.array_equal(got, est.lift_fisher(povm, base.horizontal_lift(th)))

    @pytest.mark.parametrize("n", [512, 4096, 16384, 65536])
    def test_grid_pvm_attains_js_at_every_grid_size(self, n):
        # the clip is relative to the outcome count: however many tail
        # cells fall below it, they drop less than PROB_CLIP of the mass
        mod = qg.catalog("position_shift", {"grid": {"n": n, "lower": -10, "upper": 10}})
        fam = measurement_family(mod, grid_pvm(mod.space))
        for th in ((0.0,), (0.123456789,)):
            j_c = classical_fisher(fam, th)
            j_s = geometry.sld_fisher(mod.horizontal_lift(th))
            assert j_s[0, 0] == pytest.approx(2.0, abs=1e-12)
            assert abs(j_c[0, 0] - j_s[0, 0]) < 1e-12


class TestStackedPovms:
    def test_matrix_povm_matches_elementwise(self):
        rng = np.random.default_rng(8)
        d, w = 3, 5
        raw = []
        for _ in range(w):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append(a @ a.conj().T)
        vals, vecs = np.linalg.eigh(sum(raw))
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        elements = [inv_sqrt @ a @ inv_sqrt for a in raw]
        elements = [0.5 * (e + e.conj().T) for e in elements]
        space = BasisSpace(d)
        povm = MatrixPovm(elements, space=space)
        assert povm.elements.shape == (w, d, d)
        state = StateVector(space, rng.normal(size=d) + 1j * rng.normal(size=d),
                            normalize=True)
        lifts = [StateVector(space, rng.normal(size=d) + 1j * rng.normal(size=d))
                 for _ in range(2)]
        c = state.coords
        p = [np.vdot(c, e @ c).real for e in elements]
        s = [[np.vdot(c, e @ l.coords).real for e in elements] for l in lifts]
        mask = np.array([True, False, True, False, False])
        node = [[sum(np.vdot(a.coords, e @ b.coords).real
                     for e, keep in zip(elements, mask) if keep)
                 for b in lifts] for a in lifts]
        np.testing.assert_allclose(povm.probabilities(state), p, rtol=0, atol=1e-15)
        np.testing.assert_allclose(povm.scores(state, lifts), s, rtol=0, atol=1e-15)
        np.testing.assert_allclose(povm.node_fisher(lifts, mask), node, rtol=0, atol=1e-15)

    def test_projector_products_keep_their_rounding(self):
        # U^dagger is conjugated once; each product must still round as
        # the per-call conjugate did, so documents keep their bytes
        mod = qg.catalog("position_momentum_shift",
                         {"grid": {"n": 512, "lower": -10, "upper": 10}})
        space = mod.space
        rng = np.random.default_rng(9)
        basis = hilbert.gram_schmidt_real(
            [StateVector(space, rng.normal(size=space.dim)) for _ in range(7)])
        povm = est.ProjectorPovm(basis)
        lift = mod.horizontal_lift((0.3, -0.2))
        u = np.column_stack([b.coords for b in basis])
        phi_amp = u.conj().T @ lift.phi.coords
        rows = [(np.conj(phi_amp) * (u.conj().T @ l.coords)).real for l in lift.lifts]
        want = np.stack([np.concatenate([r, [-np.sum(r)]]) for r in rows])
        assert np.array_equal(povm.scores(lift.phi, lift.lifts), want)
        p = np.abs(phi_amp) ** 2
        assert np.array_equal(povm.probabilities(lift.phi)[:-1], p)


def random_density_matrix(dim, rank, rng):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestAgainstElements:
    """Povm results equal their formulas in the explicit elements E_w."""

    def test_projector_povm_with_complement(self):
        rng = np.random.default_rng(21)
        space = hilbert.GridSpace(40, -3.0, 3.0)
        basis = hilbert.gram_schmidt_real(
            [StateVector(space, rng.normal(size=space.dim)) for _ in range(4)])
        povm = est.ProjectorPovm(basis)
        assert povm.n_outcomes == 5
        u = np.column_stack([b.coords for b in basis])
        elements = [np.outer(u[:, k], u[:, k].conj()) for k in range(4)]
        elements.append(np.eye(space.dim) - sum(elements))
        rho = random_density_matrix(space.dim, 3, rng)
        want = [np.trace(rho @ e).real for e in elements]
        np.testing.assert_allclose(induced_distribution(povm, rho), want,
                                   rtol=0, atol=1e-14)

    def test_projector_node_term_includes_the_complement(self):
        rng = np.random.default_rng(23)
        space = BasisSpace(6)
        basis = hilbert.gram_schmidt_real(
            [StateVector(space, rng.normal(size=6)) for _ in range(3)])
        povm = est.ProjectorPovm(basis)
        u = np.column_stack([b.coords for b in basis])
        elements = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
        elements.append(np.eye(6) - sum(elements))
        lifts = [StateVector(space, rng.normal(size=6) + 1j * rng.normal(size=6))
                 for _ in range(2)]
        for mask in ([True, False, True, False], [False, True, False, True]):
            want = [[sum(np.vdot(a.coords, e @ b.coords).real
                         for e, keep in zip(elements, mask) if keep)
                     for b in lifts] for a in lifts]
            np.testing.assert_allclose(povm.node_fisher(lifts, np.array(mask)), want,
                                       rtol=0, atol=1e-14)

    def test_matrix_povm_with_rank_two_elements(self):
        rng = np.random.default_rng(22)
        d = 4
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        top = q[:, :2] @ q[:, :2].conj().T
        elements = [0.7 * top, 0.3 * top + (np.eye(d) - top)]
        povm = MatrixPovm(elements, space=BasisSpace(d))
        assert povm.n_outcomes == 2
        rho = random_density_matrix(d, 2, rng)
        want = [np.trace(rho @ e).real for e in elements]
        np.testing.assert_allclose(induced_distribution(povm, rho), want,
                                   rtol=0, atol=1e-14)
        # a pure rho and its state vector give the same distribution
        state = StateVector(BasisSpace(d), q[:, 0] + 0.5 * q[:, 3], normalize=True)
        np.testing.assert_allclose(induced_distribution(povm, hilbert.projector(state)),
                                   induced_distribution(povm, state), rtol=0, atol=1e-14)

    def test_matrix_povm_rejects_elements_of_the_wrong_size(self):
        with pytest.raises(MeasurementDefinitionError, match="element 0 is not 2x2"):
            MatrixPovm([np.eye(3) / 2, np.eye(3) / 2], space=BasisSpace(2))

    def test_matrix_povm_without_space_measures_states_of_its_size(self):
        bloch = qg.catalog("bloch")
        theta = np.array([0.7, 0.4])
        bare = MatrixPovm(octahedral_elements())
        placed = MatrixPovm(octahedral_elements(), space=bloch.space)
        np.testing.assert_array_equal(induced_distribution(bare, bloch.evaluate(theta)),
                                      induced_distribution(placed, bloch.evaluate(theta)))
        np.testing.assert_array_equal(
            classical_fisher(measurement_family(bloch, bare), theta),
            classical_fisher(measurement_family(bloch, placed), theta))
        with pytest.raises(SpaceMismatchError):
            induced_distribution(bare, StateVector(BasisSpace(3), [1.0, 0.0, 0.0]))


MISMATCH = "^state does not live on the measured space$"


class TestPovmSpaces:
    """Scores and node terms check their vectors' space as probabilities do."""

    def setup_method(self):
        # same dimension, other bounds: a cell POVM of one grid measures no
        # state of the other
        self.state = StateVector(hilbert.GridSpace(4, 0.0, 2.0), np.ones(4), normalize=True)
        self.povm = grid_pvm(hilbert.GridSpace(4, 0.0, 1.0))

    def test_probabilities(self):
        with pytest.raises(SpaceMismatchError, match=MISMATCH):
            self.povm.probabilities(self.state)

    def test_scores_check_the_state_and_each_lift(self):
        own = StateVector(self.povm.space, np.ones(4), normalize=True)
        for state, lifts in [(self.state, [own]), (own, [own, self.state])]:
            with pytest.raises(SpaceMismatchError, match=MISMATCH):
                self.povm.scores(state, lifts)
        assert self.povm.scores(own, [own]).shape == (1, 4)

    def test_node_fisher_checks_each_lift(self):
        with pytest.raises(SpaceMismatchError, match=MISMATCH):
            self.povm.node_fisher([self.state], np.ones(4, dtype=bool))
