"""The schmidt measurement on one sample array against the StateVector route.

``estimation.schmidt_povm`` aligns the sample amplitudes in place, reads
the quasi-parallel verdict from the raw overlap matrix rotated by the
alignment phases, and drops a vector whose first-pass residual is already
below the Gram-Schmidt threshold by a margin without its second pass.
The reference below does none of that: it aligns one StateVector at a
time, builds the aligned overlap matrix anew and always runs both passes.
The bras must agree bit for bit, and a family that is not quasi-parallel
must fail with the same pair and message on both routes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qestgeo as qg
from qestgeo import estimation, hilbert, holonomy
from qestgeo.errors import AnchorError, NonRealOverlapError
from qestgeo.hilbert import BasisSpace, GridSpace, StateVector

SPACES = [BasisSpace(5), GridSpace(12, -1.0, 2.0), GridSpace(13, -1.0, 2.0)]


def reference(states):
    """``(bras, first_pass_norms)`` of the StateVector route, or the error
    it raises."""
    g = hilbert.overlap_matrix(states)
    anchors = [a for a in range(len(states))
               if np.all(np.hypot(g[a].real, g[a].imag) > holonomy.MIN_OVERLAP)]
    if not anchors:
        raise AnchorError("no anchor")
    aligned = [s.with_amplitudes(np.exp(-1j * np.angle(ov)) * s.amplitudes)
               for s, ov in zip(states, g[anchors[0]])]
    ga = hilbert.overlap_matrix(aligned)
    failing = np.argwhere(~(holonomy.pair_ratios(ga) < holonomy.QUASI_PARALLEL_TOL))
    if failing.size:
        a, b = (int(i) for i in failing[0])
        raise NonRealOverlapError(f"overlap of inputs {a} and {b} has Im = {ga[a, b].imag:.3e}",
                                  pair=(a, b))
    space, w = aligned[0].space, aligned[0].space.weight
    scale = max(v.norm() for v in aligned)
    basis, first_pass = [], []
    for v in aligned:
        resid = v.amplitudes.copy()
        for sweep in range(2):
            for e in basis:
                resid -= complex(w * np.vdot(e.amplitudes, resid)) * e.amplitudes
            if sweep == 0:
                first_pass.append(StateVector(space, resid).norm())
        rnorm = StateVector(space, resid).norm()
        if rnorm >= hilbert.GRAM_SCHMIDT_TOL * scale:
            basis.append(StateVector(space, resid / rnorm))
    u = np.column_stack([b.coords for b in basis])
    return u.conj().T, first_pass


def outcome(route, states):
    """The bras of ``route(states)``, or the class, message and pair of the
    error it raises."""
    try:
        bras = route(states)
    except (AnchorError, NonRealOverlapError) as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)
    return bras


def assert_same(states):
    want = outcome(lambda s: reference(s)[0], states)
    got = outcome(lambda s: estimation.schmidt_povm(s).bras, states)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape
        assert got.strides == want.strides  # the layout picks the kernel
        assert np.array_equal(got, want)


def family(seed, space, n, extra, twist=0.0):
    """``n`` random states with real mutual overlaps, each under its own
    global phase, followed by the members ``extra`` gives: real coefficients
    ``c`` on the first ``n`` real vectors plus ``eps`` times a fresh one.
    ``twist`` puts a phase on one component of the last state."""
    rng = np.random.default_rng(seed)
    d = space.dim
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    real = [rng.normal(size=d) for _ in range(n)]
    for coeffs, eps in extra:
        real.append(np.asarray(coeffs) @ np.array(real[:len(coeffs)]) + eps * rng.normal(size=d))
    amps = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * (q @ v) for v in real]
    amps[-1][1] *= np.exp(1j * twist)
    return [StateVector(space, a, normalize=True) for a in amps]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), space=st.sampled_from(SPACES), n=st.integers(1, 4),
       log_eps=st.floats(-13.0, -5.0))
def test_dependent_and_near_dependent_members(seed, space, n, log_eps):
    # an exact multiple of the first state, then a near-dependent mixture
    states = family(seed, space, n, [([2.0], 0.0), ([0.5] * n, 10.0 ** log_eps)])
    assert_same(states)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), space=st.sampled_from(SPACES), n=st.integers(1, 4),
       log_eps=st.floats(-10.0, -6.0),
       offset=st.sampled_from([-1e-11, -1e-12, 1e-12, 1e-11]),
       margin=st.booleans())
def test_a_tolerance_at_either_edge_of_the_early_drop_margin(seed, space, n, log_eps,
                                                             offset, margin):
    # the last member's first-pass residual, measured, sets the tolerance:
    # just below or above the early-drop threshold (1 - 1e-9) * tol * scale
    # when margin holds, else just below or above the final threshold
    states = family(seed, space, n, [([0.5] * n, 10.0 ** log_eps)])
    _, first_pass = reference(states)
    scale = max(s.norm() for s in states)
    tol = first_pass[-1] / scale * (1.0 + offset)
    if margin:
        tol /= 1.0 - 1e-9
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "GRAM_SCHMIDT_TOL", tol)
        assert_same(states)
        if margin and offset > 0:
            assert len(reference(states)[0]) == n  # dropped after its first pass


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), space=st.sampled_from(SPACES), n=st.integers(2, 4),
       log_twist=st.floats(-3.0, -1.0))
@example(seed=760, space=GridSpace(12, -1.0, 2.0), n=2, log_twist=-3.0)
def test_a_family_that_is_not_quasi_parallel_fails_alike(seed, space, n, log_twist):
    # three states at least: the alignment makes every overlap with the
    # anchor real, so a pair of states always passes; a twist too small for
    # the verdict on this draw is doubled until the verdict rejects
    for twist in 10.0 ** log_twist * 2.0 ** np.arange(12):
        states = family(seed, space, n, [([0.7] * n, 0.3)], twist=twist)
        if isinstance(outcome(lambda s: reference(s)[0], states), tuple):
            break
    want = outcome(lambda s: reference(s)[0], states)
    assert isinstance(want, tuple) and want[0] in (NonRealOverlapError, AnchorError)
    assert_same(states)


def test_the_model_route_is_the_state_route():
    mod = qg.catalog("position_shift", {"grid": {"n": 257, "lower": -8.0, "upper": 8.0}})
    samples = [(-1.0 + j / 10,) for j in range(21)]
    states = holonomy.sample_states(mod, samples)[1]
    before = [s.amplitudes.copy() for s in states]
    bras = estimation.optimal_measurement_quasi_parallel(mod, samples).bras
    assert np.array_equal(bras, estimation.schmidt_povm(states).bras)
    assert np.array_equal(bras, reference(states)[0])
    # the caller's states are not aligned in place
    assert all(np.array_equal(s.amplitudes, b) for s, b in zip(states, before))
