"""Transport phases: loops, open chains, curvature, parallelism."""

import numpy as np
import pytest

import qestgeo as qg
from qestgeo import cli, holonomy
from qestgeo.errors import AnchorError, DomainError, RefinementError, UndefinedPhaseError
from qestgeo.hilbert import BasisSpace, GridSpace, StateVector, inner
from qestgeo.holonomy import (
    align_phases,
    berry_phase_loop,
    berry_phase_open,
    curvature_check,
    is_quasi_parallel,
)
from qestgeo.model import Curve, PureStateModel

from conftest import random_state


def octant_points(n_total):
    """Quarter equator plus the two meridians bounding one octant."""
    pts = []
    k = n_total // 3
    for s in np.linspace(0, np.pi / 2, k, endpoint=False):
        pts.append((s, 0.0))
    for s in np.linspace(0, np.pi / 2, k, endpoint=False):
        pts.append((np.pi / 2, s))
    for s in np.linspace(np.pi / 2, 0, n_total - 2 * k, endpoint=False):
        pts.append((s, np.pi / 2))
    pts.append((0.0, 0.0))
    return tuple(pts)


def solid_angle_oracle():
    """Octant of the sphere: area pi/2, transport phase magnitude pi/4."""
    return 0.5 * (4.0 * np.pi / 8.0)


@pytest.fixture(scope="module")
def bloch():
    return qg.catalog("bloch")


class TestLoop:
    def test_constant_loop(self, battery):
        mod = battery["spin_jz"]
        curve = Curve(mod, ((0.5,), (0.5,), (0.5,), (0.5,)), closed=True)
        assert berry_phase_loop(curve).gamma == pytest.approx(0.0, abs=1e-12)

    def test_octant_matches_solid_angle(self, bloch):
        curve = Curve(bloch, octant_points(2000), closed=True)
        res = berry_phase_loop(curve)
        assert abs(res.gamma) == pytest.approx(solid_angle_oracle(), abs=1e-3)
        assert res.n_segments == 2000
        assert res.min_overlap > 0.999

    def test_reversed_loop_negates(self, bloch):
        pts = octant_points(300)
        fwd = berry_phase_loop(Curve(bloch, pts, closed=True)).gamma
        rev = berry_phase_loop(Curve(bloch, pts[::-1], closed=True)).gamma
        assert fwd == pytest.approx(-rev, abs=1e-12)

    def test_open_curve_rejected(self, bloch):
        with pytest.raises(ValueError):
            berry_phase_loop(Curve(bloch, ((0.3, 0.0), (0.4, 0.0)), closed=False))

    def test_ray_closure_enforced(self, bloch):
        curve = Curve(bloch, ((0.3, 0.0), (0.8, 0.0), (0.9, 0.2)), closed=True)
        with pytest.raises(ValueError):
            berry_phase_loop(curve)

    def test_gauge_invariance_under_random_rephasing(self, bloch):
        # rephase every curve point independently; each state enters the
        # chain once as bra and once as ket, so nothing changes
        rng = np.random.default_rng(12)
        pts = octant_points(120)
        base = berry_phase_loop(Curve(bloch, pts, closed=True)).gamma

        class PointwiseTwist:
            m = bloch.m

            @staticmethod
            def evaluate(th):
                s = bloch.evaluate(th)
                phase = np.exp(2j * np.pi * rng.uniform())
                return s.with_amplitudes(phase * s.amplitudes)

        class TwistedCurve:
            model = PointwiseTwist()
            points = pts
            closed = True

        assert berry_phase_loop(TwistedCurve).gamma == pytest.approx(base, abs=1e-10)

    def test_reparametrization_insensitive(self, bloch):
        pts = octant_points(300)
        doubled = []
        for a, b in zip(pts[:-1], pts[1:]):
            doubled.append(a)
            doubled.append(tuple(0.5 * (np.asarray(a) + np.asarray(b))))
        doubled.append(pts[-1])
        g1 = berry_phase_loop(Curve(bloch, pts, closed=True)).gamma
        g2 = berry_phase_loop(Curve(bloch, tuple(doubled), closed=True)).gamma
        assert g1 == pytest.approx(g2, abs=5e-4)

    def test_refinement_convergence(self, bloch):
        # latitude circles are not geodesics, so the chain phase carries a
        # genuine K-dependence that must die off under refinement
        def latitude(k):
            pts = [(1.0, phi) for phi in np.linspace(0, 2 * np.pi, k, endpoint=False)]
            pts.append((1.0, 2 * np.pi))
            return tuple(pts)

        gammas = {k: berry_phase_loop(Curve(bloch, latitude(k), closed=True)).gamma
                  for k in (50, 100, 200, 400)}
        d1 = abs(gammas[100] - gammas[50])
        d2 = abs(gammas[200] - gammas[100])
        d3 = abs(gammas[400] - gammas[200])
        assert d1 > 1e-8  # the effect being tested is visible
        assert d2 < d1 and d3 < d2

    def test_loop_composition(self, bloch):
        # two rectangles sharing a corner compose: phases add (mod 2pi)
        base = np.array([1.0, 0.5])

        def rect(theta0, eps, n_sub=12):
            e1, e2 = np.array([eps, 0.0]), np.array([0.0, eps])
            corners = [theta0, theta0 + e1, theta0 + e1 + e2, theta0 + e2, theta0]
            pts = []
            for a, b in zip(corners[:-1], corners[1:]):
                for s in range(n_sub):
                    pts.append(tuple(a + (b - a) * s / n_sub))
            pts.append(tuple(corners[-1]))
            return pts

        small = rect(base, 0.2)
        big = rect(base, 0.4)
        joined = small[:-1] + big  # share the base corner
        g_small = berry_phase_loop(Curve(bloch, tuple(small), closed=True)).gamma
        g_big = berry_phase_loop(Curve(bloch, tuple(big), closed=True)).gamma
        g_joined = berry_phase_loop(Curve(bloch, tuple(joined), closed=True)).gamma
        delta = (g_joined - g_small - g_big + np.pi) % (2 * np.pi) - np.pi
        assert abs(delta) < 1e-6

    def test_refinement_error_on_ray_jump(self):
        space = BasisSpace(2)

        def ev(th):
            if th[0] < 0.5:
                return np.array([1.0, 0.0], dtype=complex)
            return np.array([0.0, 1.0], dtype=complex)

        jumpy = PureStateModel(space=space, m=1, domain=((0.0, 1.0),),
                               evaluate_fn=ev)
        curve = Curve(jumpy, ((0.0,), (1.0,), (0.0,)), closed=True)
        with pytest.raises(RefinementError) as err:
            berry_phase_loop(curve)
        assert err.value.overlap < 1e-6


def dense_ray_distance(a, b):
    """Frobenius norm of the difference of the two outer products."""
    pa = np.outer(a.coords, a.coords.conj())
    pb = np.outer(b.coords, b.coords.conj())
    return float(np.linalg.norm(pa - pb))


class TestRayDistance:
    """The O(n) closure distance against the dense outer products, n <= 256."""

    @pytest.fixture(params=[BasisSpace(7), GridSpace(256, -10.0, 10.0)],
                    ids=["basis", "grid"])
    def pair_source(self, request):
        space = request.param
        rng = np.random.default_rng(11)
        a = random_state(space, rng)
        w = random_state(space, rng).coords
        w -= np.vdot(a.coords, w) * a.coords
        w /= np.linalg.norm(w)
        return space, a, w

    def nearby(self, space, a, w, eps):
        """Unit state whose ray is about sqrt(2) * eps away from a's."""
        return StateVector(space, a.amplitudes + eps * w / np.sqrt(space.weight),
                           normalize=True)

    def test_equal_rays_at_zero(self, pair_source):
        _, a, _ = pair_source
        for b in (a, a.with_amplitudes(np.exp(0.7j) * a.amplitudes),
                  a.with_amplitudes(-a.amplitudes)):
            fast = holonomy._ray_distance(a, b)
            assert fast <= 1e-15
            assert abs(fast - dense_ray_distance(a, b)) <= 1e-15

    @pytest.mark.parametrize("eps", [1e-9, 1e-7])
    def test_near_pairs(self, pair_source, eps):
        space, a, w = pair_source
        b = self.nearby(space, a, w, eps)
        b = b.with_amplitudes(np.exp(-1.3j) * b.amplitudes)
        fast = holonomy._ray_distance(a, b)
        assert fast > 1e-9
        assert fast == pytest.approx(dense_ray_distance(a, b), rel=1e-6)
        assert (fast < holonomy.RAY_CLOSURE_TOL) == (eps < holonomy.RAY_CLOSURE_TOL)

    def test_far_and_unnormalized_pairs(self, pair_source):
        space, a, w = pair_source
        rng = np.random.default_rng(4)
        c = random_state(space, rng)
        pairs = [
            (a, c),
            (a, self.nearby(space, a, w, 0.3)),
            (a.with_amplitudes(2.5 * a.amplitudes), c.with_amplitudes(0.3j * c.amplitudes)),
            (a.with_amplitudes(1.7 * a.amplitudes), a.with_amplitudes(1j * a.amplitudes)),
        ]
        for x, y in pairs:
            for p, q in ((x, y), (y, x)):
                assert holonomy._ray_distance(p, q) == pytest.approx(
                    dense_ray_distance(p, q), rel=1e-6)


class TestOpen:
    def test_real_family_phase_is_zero_or_pi(self, battery):
        mod = battery["position_shift"]
        curve = Curve(mod, tuple((t,) for t in np.linspace(-1, 1, 15)), closed=False)
        gamma = berry_phase_open(curve).gamma
        assert min(abs(gamma), abs(abs(gamma) - np.pi)) < 1e-8

    def test_half_meridian_between_real_states(self, bloch):
        pts = tuple((t, 0.0) for t in np.linspace(0.0, np.pi * 0.9, 40))
        gamma = berry_phase_open(Curve(bloch, pts, closed=False)).gamma
        assert min(abs(gamma), abs(abs(gamma) - np.pi)) < 1e-8

    def test_single_segment_is_horizontal(self, bloch):
        curve = Curve(bloch, ((0.4, 0.2), (0.5, 0.9)), closed=False)
        assert berry_phase_open(curve).gamma == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_loop_on_closed_curves(self, bloch):
        pts = octant_points(240)
        g_loop = berry_phase_loop(Curve(bloch, pts, closed=True)).gamma
        g_open = berry_phase_open(Curve(bloch, pts, closed=False)).gamma
        assert g_open == pytest.approx(g_loop, abs=1e-10)

    def test_orthogonal_endpoints_rejected(self, bloch):
        curve = Curve(bloch, ((0.0, 0.0), (np.pi, 0.0)), closed=False)
        with pytest.raises((UndefinedPhaseError, RefinementError)):
            berry_phase_open(curve)

    def test_malformed_points_are_domain_errors(self, bloch):
        for pts in (((0.3, 0.0), (0.4,)), ((0.3, 0.0, 0.1), (0.4, 0.0, 0.1))):
            with pytest.raises(DomainError):
                berry_phase_open(Curve(bloch, pts, closed=False))

    def test_scalar_points_of_a_one_parameter_model(self):
        # a jump the refinement cannot resolve; the segment holds 1-vectors
        def ev(theta):
            return np.array([1.0, 0.0]) if theta[0] < 0.5 else np.array([0.0, 1.0])

        mod = PureStateModel(space=BasisSpace(2), m=1, domain=((0.0, 1.0),),
                             evaluate_fn=ev)
        with pytest.raises(RefinementError) as info:
            berry_phase_open(Curve(mod, (0.0, 1.0), closed=False))
        lo, hi = info.value.segment
        assert len(lo) == len(hi) == 1 and lo[0] < 0.5 <= hi[0]

    def test_ring_flux_open_phase_is_nontrivial(self, battery):
        mod = battery["ring_flux"]
        curve = Curve(mod, tuple((t,) for t in np.linspace(0.0, np.pi / 2, 30)),
                      closed=False)
        gamma = berry_phase_open(curve).gamma
        assert min(abs(gamma), abs(abs(gamma) - np.pi)) > 1e-3


class TestCurvatureCheck:
    def test_quasi_classical_rectangle_is_flat(self):
        space = BasisSpace(4)

        def ev(th):
            v = np.array([1.0, th[0], th[1], th[0] + th[1]])
            return (v / np.linalg.norm(v)) + 0j

        mod = PureStateModel(space=space, m=2, domain=((-1, 1), (-1, 1)),
                             evaluate_fn=ev)
        measured, predicted = curvature_check(mod, (0.1, 0.2), 0, 1, 0.05)
        assert predicted == pytest.approx(0.0, abs=1e-10)
        assert measured == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_rectangle_exact_area(self, pm_gaussian):
        # coherent-state chains give exactly the enclosed area: the
        # measured phase equals half the curvature times eps^2 to
        # machine precision at any eps
        for eps in (0.1, 0.05, 0.025, 0.01):
            measured, predicted = curvature_check(pm_gaussian, (0.0, 0.0), 0, 1, eps)
            assert predicted == pytest.approx(eps * eps, rel=1e-9)
            assert measured == pytest.approx(predicted, abs=1e-10)

    def test_bloch_halving_ratio_shows_cubic_error(self, bloch):
        # away from the equator the rectangle chain has a genuine O(eps^3)
        # deviation from the curvature prediction; halving eps should
        # shrink it by about 8
        theta0 = (np.pi / 3, 0.5)
        errors = []
        for eps in (0.2, 0.1, 0.05):
            n_sub = int(round(25.6 / eps))
            measured, predicted = curvature_check(bloch, theta0, 0, 1, eps,
                                                  n_sub=n_sub)
            errors.append(abs(measured - predicted))
        assert errors[0] / errors[1] > 7.0
        assert errors[1] / errors[2] > 7.0

    def test_orientation_sign(self, pm_gaussian):
        m01, p01 = curvature_check(pm_gaussian, (0.0, 0.0), 0, 1, 0.05)
        m10, p10 = curvature_check(pm_gaussian, (0.0, 0.0), 1, 0, 0.05)
        assert m01 == pytest.approx(-m10, abs=1e-12)
        assert p01 == pytest.approx(-p10, abs=1e-12)
        assert m01 > 0  # (x-shift, p-shift) order gives positive curvature


class TestQuasiParallel:
    def test_harmonic_oscillator_shifts(self):
        for n in (0, 1, 2):
            mod = qg.catalog(
                "position_shift",
                {"profile": {"name": "hermite", "n": n},
                 "grid": {"n": 512, "lower": -9, "upper": 9}},
            )
            flag, witness = is_quasi_parallel(
                mod, [(t,) for t in np.linspace(-2, 2, 21)]
            )
            assert flag and witness["value"] < 1e-8

    def test_two_well_fails_with_witness(self, battery):
        flag, witness = is_quasi_parallel(
            battery["two_well"], [(t,) for t in np.linspace(-1, 1, 21)]
        )
        assert not flag
        assert witness["value"] > 1e-3

    def test_spin_amplitude_symmetry_decides(self):
        sym = qg.catalog("spin_jz", {"amplitudes": [0.5, 2**-0.5, 0.5]})
        asym = qg.catalog("spin_jz", {"amplitudes": [0.8, 0.6, 0.0]})
        assert is_quasi_parallel(sym, sym.sample_grid)[0]
        flag, witness = is_quasi_parallel(asym, asym.sample_grid)
        assert not flag and witness["value"] > 1e-3

    def test_ring_flux_not_parallel(self, battery):
        flag, witness = is_quasi_parallel(battery["ring_flux"],
                                          battery["ring_flux"].sample_grid)
        assert not flag and witness["value"] > 1e-3

    def test_geodesic_great_circle_arcs(self, bloch):
        # equator arc between real states: parallel after alignment
        eq = [(np.pi / 2, phi) for phi in np.linspace(0.0, 2.0, 9)]
        assert is_quasi_parallel(bloch, eq)[0]
        # meridian arc: amplitudes real outright
        mer = [(t, 0.0) for t in np.linspace(0.1, 2.8, 9)]
        assert is_quasi_parallel(bloch, mer)[0]

    def test_raw_flag_detects_nonhorizontal_twist(self):
        mod = qg.catalog(
            "position_shift",
            {"profile": {"name": "boosted_gaussian", "p0": 1.0},
             "grid": {"n": 512, "lower": -10, "upper": 10}},
        )
        samples = [(t,) for t in np.linspace(-1, 1, 9)]
        assert is_quasi_parallel(mod, samples)[0]
        assert not is_quasi_parallel(mod, samples, align=False)[0]

    def test_anchor_fallback_error(self):
        space = BasisSpace(2)

        def ev(th):
            k = int(round(th[0]))
            amp = np.zeros(2, dtype=complex)
            amp[k % 2] = 1.0
            return amp

        mod = PureStateModel(space=space, m=1, domain=((0.0, 3.0),),
                             evaluate_fn=ev)
        with pytest.raises(AnchorError):
            is_quasi_parallel(mod, [(0.0,), (1.0,)])

    def test_matrix_reads_match_the_pair_loops(self, battery):
        # one overlap matrix gives the anchor, the phases, the verdict and
        # the witness of one hilbert.inner call per pair, to the last bit
        space = BasisSpace(3)
        # state 0 is orthogonal to state 2, so state 1 is the anchor and
        # the phase of state 0 comes from below the diagonal
        skew = [StateVector(space, np.exp(1j * phase) * np.array(amp), normalize=True)
                for phase, amp in ((0.3, [1, 0, 0.0]), (1.1, [1, 1, 1j]),
                                   (-0.4, [0, 1, 2j]))]
        families = [(np.arange(3.0)[:, None], skew)]
        families += [holonomy.sample_states(mod, mod.sample_grid)
                     for mod in battery.values()]
        for thetas, states in families:
            aligned, anchor = align_phases(states)
            ref_anchor = next(a for a in range(len(states))
                              if all(abs(inner(states[a], s)) > holonomy.MIN_OVERLAP
                                     for s in states))
            assert anchor == ref_anchor
            for s, got in zip(states, aligned):
                ov = inner(states[anchor], s)
                want = np.exp(-1j * np.angle(ov)) * s.amplitudes
                assert np.array_equal(got.amplitudes, want)
            for family in (states, aligned):
                worst, pair = 0.0, (thetas[0], thetas[0])
                for a in range(len(family)):
                    for b in range(a + 1, len(family)):
                        ov = inner(family[a], family[b])
                        ratio = abs(ov.imag) / max(abs(ov), 1e-3)
                        if ratio > worst:
                            worst, pair = ratio, (thetas[a], thetas[b])
                flag, witness = holonomy.quasi_parallel_states(thetas, family)
                assert witness == {"pair": (pair[0].tolist(), pair[1].tolist()),
                                   "value": worst}
                assert flag is (worst < holonomy.QUASI_PARALLEL_TOL)
        assert align_phases(skew)[1] == 1

    def test_alignment_keeps_anchor_overlaps_real(self, battery):
        mod = battery["ring_flux"]
        states = [mod.evaluate(t) for t in mod.sample_grid]
        aligned, anchor = align_phases(states)
        from qestgeo.hilbert import inner

        for s in aligned:
            assert abs(inner(aligned[anchor], s).imag) < 1e-10


def reference_transport(model, points, closed):
    """Segment-by-segment transport over a list of states.

    Refines like the chain routine (a midpoint for every segment at or
    below ``MIN_OVERLAP``, up to ``MAX_REFINE_LEVELS`` levels) but keeps
    one ``StateVector`` per point and multiplies ``hilbert.inner``
    overlaps one at a time.  Returns ``(gamma, n_segments, min_overlap,
    levels)``.
    """
    thetas = [np.asarray(t, dtype=float) for t in points]
    states = [model.evaluate(t) for t in thetas]
    levels = 0
    for _ in range(holonomy.MAX_REFINE_LEVELS):
        new_thetas, new_states = [thetas[0]], [states[0]]
        for k in range(len(thetas) - 1):
            if abs(inner(states[k], states[k + 1])) <= holonomy.MIN_OVERLAP:
                mid = 0.5 * (thetas[k] + thetas[k + 1])
                new_thetas.append(mid)
                new_states.append(model.evaluate(mid))
            new_thetas.append(thetas[k + 1])
            new_states.append(states[k + 1])
        if len(new_states) == len(states):
            break
        thetas, states = new_thetas, new_states
        levels += 1
    for k in range(len(states) - 1):
        ov = abs(inner(states[k], states[k + 1]))
        if ov <= holonomy.MIN_OVERLAP:
            raise RefinementError("reference", segment=(thetas[k].tolist(),
                                                        thetas[k + 1].tolist()),
                                  overlap=ov)
    chain = states[:-1] + [states[0]] if closed else states
    prod = 1.0 + 0.0j
    min_ov = np.inf
    for a, b in zip(chain[:-1], chain[1:]):
        ov = inner(a, b)
        min_ov = min(min_ov, abs(ov))
        prod *= ov / abs(ov)
    if not closed:
        direct = inner(states[0], states[-1])
        prod *= np.conj(direct) / abs(direct)
    return float(np.angle(prod)), len(chain) - 1, float(min_ov), levels


def assert_matches_reference(model, points, closed, levels=0):
    curve = Curve(model, tuple(points), closed=closed)
    res = berry_phase_loop(curve) if closed else berry_phase_open(curve)
    gamma, n_segments, min_ov, ref_levels = reference_transport(model, points, closed)
    assert ref_levels == levels
    assert res.n_segments == n_segments
    assert abs(np.remainder(res.gamma - gamma + np.pi, 2 * np.pi) - np.pi) <= 1e-13
    assert abs(res.min_overlap - min_ov) <= 1e-13
    return res


@pytest.fixture(scope="module")
def wide_pm():
    """Phase-space displacements on a grid wide enough for far-apart points."""
    return qg.catalog("position_momentum_shift", {
        "grid": {"n": 2048, "lower": -40.0, "upper": 40.0},
        "domain": ((-32.0, 32.0), (-32.0, 32.0)),
    })


class TestArrayChain:
    """The array chain against per-vector overlaps multiplied one by one."""

    def test_closed_bloch_octant(self, bloch):
        assert_matches_reference(bloch, octant_points(300), closed=True)

    def test_closed_bloch_latitudes(self, bloch):
        for pol in (0.4, 1.0, 2.6):
            pts = [(pol, phi) for phi in np.linspace(0, 2 * np.pi, 400, endpoint=False)]
            pts.append((pol, 2 * np.pi))
            assert_matches_reference(bloch, pts, closed=True)

    def test_open_ring_flux_chain(self, battery):
        mod = battery["ring_flux"]
        pts = [(t,) for t in np.linspace(0.3, 2.8, 60)]
        res = assert_matches_reference(mod, pts, closed=False)
        assert min(abs(res.gamma), abs(abs(res.gamma) - np.pi)) > 1e-3

    @pytest.mark.parametrize("side, levels", [(10.0, 1), (20.0, 2), (30.0, 3)])
    def test_refinement_levels(self, wide_pm, side, levels):
        # coherent-state overlaps fall as exp(-|d|^2 / 4): a segment of
        # length d needs log2(d / 7.4) halvings to rise above MIN_OVERLAP
        pts = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, 0.0)]
        res = assert_matches_reference(wide_pm, pts, closed=True, levels=levels)
        assert res.n_segments > 3
        assert res.min_overlap > holonomy.MIN_OVERLAP

    def test_refinement_error_matches_reference(self):
        space = BasisSpace(2)

        def ev(th):
            return np.array([1.0, 0.0] if th[0] < 0.5 else [0.0, 1.0], dtype=complex)

        jumpy = PureStateModel(space=space, m=1, domain=((0.0, 1.0),), evaluate_fn=ev)
        pts = ((0.0,), (0.3,), (1.0,), (0.0,))
        with pytest.raises(RefinementError) as want:
            reference_transport(jumpy, pts, closed=True)
        with pytest.raises(RefinementError) as got:
            berry_phase_loop(Curve(jumpy, pts, closed=True))
        assert got.value.segment == want.value.segment
        assert got.value.overlap == pytest.approx(want.value.overlap, abs=1e-13)
        (lo,), (hi,) = got.value.segment
        assert lo < 0.5 <= hi and hi - lo == pytest.approx(0.7 / 8)


def rectangle_points(side, n_sub):
    corners = np.array([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side), (0.0, 0.0)])
    steps = np.linspace(0.0, 1.0, n_sub, endpoint=False)[:, None]
    sides = [a + steps * (b - a) for a, b in zip(corners[:-1], corners[1:])]
    return [tuple(p) for p in np.concatenate(sides)] + [(0.0, 0.0)]


def phase_table():
    from test_batched import table_spec  # a tabulated spin-1 rotation

    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 11)
    return cli.parse_model_spec(table_spec(phases))[0]


CHAINS = {
    "bloch_latitude": (lambda: qg.catalog("bloch"), True,
                       [(1.0, phi) for phi in np.linspace(0.0, 2.0 * np.pi, 201)]),
    "pm_rectangle": (lambda: qg.catalog("position_momentum_shift"), True,
                     rectangle_points(1.0, 16)),
    "ring_open": (lambda: qg.catalog("ring_flux"), False,
                  [(t,) for t in np.linspace(0.3, 2.8, 60)]),
    "table": (phase_table, False, [(0.1 * k,) for k in range(11)]),
    "refined_rectangle": (None, True, [(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 0.0)]),
}


class TestLinks:
    """Every transport link is bitwise the ``hilbert.inner`` of its states."""

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_links_are_the_inner_products(self, monkeypatch, wide_pm, name):
        build, closed, pts = CHAINS[name]
        mod = wide_pm if build is None else build()
        space, amps, overlaps = holonomy._refined_states(mod, pts)
        states = [StateVector(space, a) for a in amps]
        want = np.array([inner(u, v) for u, v in zip(states[:-1], states[1:])])
        assert (len(amps) > len(pts)) == (build is None)  # wide_pm refines
        assert overlaps.tobytes() == want.tobytes()
        if closed:
            chains, chain = [], holonomy._chain

            def recorded(ov):
                chains.append(ov)
                return chain(ov)

            monkeypatch.setattr(holonomy, "_chain", recorded)
            berry_phase_loop(Curve(mod, tuple(pts), closed=True))
            want[-1] = inner(states[-2], states[0])
            assert chains[0].tobytes() == want.tobytes()
