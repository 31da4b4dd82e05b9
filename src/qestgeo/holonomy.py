"""Discrete phase transport along curves of states.

The loop phase is the argument of the chain product of consecutive
overlaps <phi_k|phi_{k+1}>, closed with the starting vector.  Every
state appears once as a bra and once as a ket, so the result does not
depend on the phase of any individual state.  Open curves subtract the
direct overlap between the endpoints, which is the discrete version of
comparing the transported endpoint against the reference whose overlap
with the start is real.

Segments whose overlap magnitude falls below 1e-6 are refined by
inserting parameter midpoints, up to three levels, before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, hilbert
from .errors import AnchorError, ClosureError, RefinementError, UndefinedPhaseError
from .model import Curve, _theta_array

MIN_OVERLAP = 1e-6
MAX_REFINE_LEVELS = 3
RAY_CLOSURE_TOL = 1e-8
QUASI_PARALLEL_TOL = 1e-6


@dataclass(frozen=True)
class PhaseResult:
    gamma: float
    n_segments: int
    min_overlap: float


def _as_points(model, thetas):
    """``thetas`` as one float array; scalar points stand for 1-vectors."""
    thetas = _theta_array(thetas, model.m)
    return thetas[:, None] if thetas.ndim == 1 else thetas


def _evaluate(model, points):
    """``(space, amps)``: the space of the states of ``model`` at the rows of
    ``points`` and their ``(k, dim)`` amplitudes.

    A model without ``evaluate_many`` (any object with ``m`` and
    ``evaluate``) is evaluated row by row here, and nowhere else.
    """
    if hasattr(model, "evaluate_many"):
        return model.space, model.evaluate_many(points)
    states = [model.evaluate(theta) for theta in points]
    return states[0].space, np.array([s.amplitudes for s in states])


def _overlaps(space, amps):
    """Consecutive overlaps ``<phi_k|phi_{k+1}>``, each bitwise :func:`hilbert.inner`."""
    return space.weight * hilbert._dots(amps[:-1], amps[1:])


def _refined_states(model, thetas):
    """Evaluate the chain, inserting midpoints where overlaps collapse.

    Returns ``(space, amps, overlaps)``: the space of the states, the
    ``(K, dim)`` amplitudes of the refined chain and their ``K - 1``
    consecutive overlaps (:func:`_overlaps`).
    Only segments at or below ``MIN_OVERLAP`` get a midpoint; a segment
    still that small after ``MAX_REFINE_LEVELS`` levels raises
    :class:`RefinementError`.
    """
    thetas = _as_points(model, thetas)
    space, amps = _evaluate(model, thetas)
    for level in range(MAX_REFINE_LEVELS + 1):
        overlaps = _overlaps(space, amps)
        mags = np.abs(overlaps)
        bad = np.flatnonzero(mags <= MIN_OVERLAP)
        if bad.size == 0:
            break
        if level == MAX_REFINE_LEVELS:
            k = int(bad[0])
            ov = float(mags[k])
            raise RefinementError(
                f"segment {k} stays near-orthogonal (|overlap| = {ov:.2e}) "
                f"after {MAX_REFINE_LEVELS} refinement levels",
                segment=(thetas[k].tolist(), thetas[k + 1].tolist()),
                overlap=ov,
            )
        mids = 0.5 * (thetas[bad] + thetas[bad + 1])
        mid_amps = _evaluate(model, mids)[1]
        thetas = np.insert(thetas, bad + 1, mids, axis=0)
        amps = np.insert(amps, bad + 1, mid_amps, axis=0)
    return space, amps, overlaps


def unit_links(overlaps):
    """``(overlaps / |overlaps|, |overlaps|)``: the unit links that transport
    a phase across each overlap, and the overlap magnitudes.

    A magnitude at most ``MIN_OVERLAP`` leaves its link's phase undefined
    and raises :class:`RefinementError`, which names the link by its index
    along the last axis.
    """
    mags = np.abs(overlaps)
    bad = np.flatnonzero(mags <= MIN_OVERLAP)
    if bad.size:
        ov = float(mags.flat[bad[0]])
        raise RefinementError(f"link {int(bad[0]) % mags.shape[-1]} is near-orthogonal "
                              f"(|overlap| = {ov:.2e})", overlap=ov)
    return overlaps / mags, mags


def _chain(overlaps, closing=1.0):
    """Phase of the consecutive overlaps times a unit ``closing`` factor.

    The product runs over the :func:`unit_links` ``<phi_k|phi_{k+1}>/|...|``;
    ``min_overlap`` is the smallest overlap magnitude of the chain.
    """
    links, mags = unit_links(overlaps)
    prod = complex(np.prod(links)) * closing
    return PhaseResult(
        gamma=float(np.angle(prod)),
        n_segments=len(overlaps),
        min_overlap=float(np.min(mags)),
    )


def _ray_distance(a, b):
    """Frobenius distance ``||a a^dagger - b b^dagger||`` in O(n).

    Uses the identity

        ||a a^dagger - b b^dagger||^2
            = (|a|^2 - |b|^2)^2 + 2 |a|^2 |b - (<a|b> / |a|^2) a|^2,

    whose two terms are non-negative, so nearly equal rays lose no
    digits to cancellation.
    """
    ca, cb = a.coords, b.coords
    na2 = float(np.vdot(ca, ca).real)
    nb2 = float(np.vdot(cb, cb).real)
    perp = cb - (np.vdot(ca, cb) / na2) * ca
    return float(np.sqrt((na2 - nb2) ** 2 + 2.0 * na2 * np.vdot(perp, perp).real))


def berry_phase_loop(curve):
    """Holonomy phase of a closed curve, in (-pi, pi].

    The listed points must return to the starting ray; the closing
    vector is replaced by the starting one, so only ray closure (not
    vector equality) is required; :class:`ClosureError` reports endpoint
    rays that differ by ``RAY_CLOSURE_TOL`` or more.
    """
    if not curve.closed:
        raise ValueError("berry_phase_loop needs a closed curve")
    space, amps, overlaps = _refined_states(curve.model, curve.points)
    dist = _ray_distance(hilbert.StateVector(space, amps[0]),
                         hilbert.StateVector(space, amps[-1]))
    if dist >= RAY_CLOSURE_TOL:
        raise ClosureError(
            f"curve marked closed but endpoint rays differ by {dist:.2e}"
        )
    # close the chain with the starting vector itself: only the last link moves
    overlaps[-1] = _overlaps(space, amps[[-2, 0]])[0]
    return _chain(overlaps)


def berry_phase_open(curve):
    """Transport phase of an open chain, in (-pi, pi].

    Equals the argument of the chain product times the conjugated direct
    overlap <phi_0|phi_K>; for curves that happen to be closed it agrees
    with :func:`berry_phase_loop`.  Orthogonal endpoints leave the
    relative phase undefined.
    """
    space, amps, overlaps = _refined_states(curve.model, curve.points)
    direct = complex(space.weight * np.vdot(amps[0], amps[-1]))
    if abs(direct) <= MIN_OVERLAP:
        raise UndefinedPhaseError(
            f"endpoint overlap magnitude {abs(direct):.2e} leaves the phase undefined"
        )
    return _chain(overlaps, closing=np.conj(direct) / abs(direct))


def curvature_check(model, theta, i, j, eps, n_sub=8):
    """Loop phase of a small coordinate rectangle against the curvature.

    The rectangle runs theta -> theta+eps*e_i -> theta+eps*(e_i+e_j) ->
    theta+eps*e_j -> theta, each side cut into ``n_sub`` segments.  The
    second-order prediction for this orientation is half the (i, j)
    curvature entry times the enclosed coordinate area:

        predicted = 0.5 * J_tilde[i, j] * eps**2

    and the measured phase matches it to O(eps^3).  Returns
    ``(measured, predicted)``.
    """
    theta = np.asarray(theta, dtype=float)
    if model.m < 2:
        raise ValueError("curvature check needs at least two parameters")
    e_i = np.zeros(model.m)
    e_j = np.zeros(model.m)
    e_i[i] = 1.0
    e_j[j] = 1.0
    corners = [theta, theta + eps * e_i, theta + eps * (e_i + e_j), theta + eps * e_j,
               theta]
    points = []
    for a, b in zip(corners[:-1], corners[1:]):
        for s in range(n_sub):
            points.append(a + (b - a) * s / n_sub)
    points.append(corners[-1])
    measured = berry_phase_loop(Curve(model, tuple(points), closed=True)).gamma
    j_tilde = geometry.berry_curvature(model.horizontal_lift(theta))
    predicted = 0.5 * j_tilde[i, j] * eps * eps
    return float(measured), float(predicted)


def align_phases(states, gram=None):
    """Rotate each state so its overlap with a common anchor is real.

    The anchor is the first row of the overlap matrix ``gram`` (by
    default :func:`hilbert.overlap_matrix` of ``states``) whose entries
    all exceed ``MIN_OVERLAP`` in magnitude, and the phases come from that
    row; :class:`AnchorError` when no row qualifies.  Returns
    ``(aligned_states, anchor_index)``.
    """
    g = hilbert.overlap_matrix(states) if gram is None else gram
    anchors = np.flatnonzero(np.all(np.hypot(g.real, g.imag) > MIN_OVERLAP, axis=1))
    if anchors.size == 0:
        raise AnchorError(
            "no sample overlaps every other sample; cannot phase-align the family"
        )
    anchor = int(anchors[0])
    return [s.with_amplitudes(np.exp(-1j * np.angle(ov)) * s.amplitudes)
            for s, ov in zip(states, g[anchor])], anchor


def is_quasi_parallel(model, sample_thetas, align=True):
    """Test whether the family admits a joint phase gauge with real overlaps.

    Evaluates the model on the samples, aligns phases against an anchor,
    and compares the largest imaginary overlap relative to the overlap
    magnitude (floored at 1e-3 so near-orthogonal pairs do not inflate
    it) with ``QUASI_PARALLEL_TOL``.  Returns ``(flag, witness)`` where
    the witness holds the maximizing pair and its value.

    ``align=False`` skips the gauge fix and tests the family exactly as
    evaluated.  The two agree whenever the evaluated family is itself
    horizontal (``<phi|d phi> = 0``); a non-horizontal lift can carry a
    removable phase twist that only the aligned test forgives.
    """
    thetas, states = sample_states(model, sample_thetas)
    return quasi_parallel_states(thetas, align_phases(states)[0] if align else states)


def sample_states(model, sample_thetas):
    """``(thetas, states)``: the samples as float arrays and the model
    evaluated once at each."""
    thetas = [_theta_array(t, model.m) for t in sample_thetas]
    space, amps = _evaluate(model, _as_points(model, thetas))
    return thetas, [hilbert.StateVector._adopt(space, a) for a in amps]


def pair_ratios(gram):
    """``R[a, b]``: the ratio of :func:`is_quasi_parallel` for the pair
    ``a < b`` of an overlap matrix, 0 on and below the diagonal.  In row
    order the first entry is ``(0, 0)``, so one state has a verdict too."""
    # hypot, as abs() of one complex: numpy's complex abs rounds differently
    hyp = np.hypot(gram.real, gram.imag)
    return np.triu(np.abs(gram.imag) / np.maximum(hyp, 1e-3), 1)


def quasi_parallel_states(thetas, states, gram=None):
    """The verdict of :func:`is_quasi_parallel` on ``states[k]``, the state
    at the float array ``thetas[k]``, evaluated (and aligned) by the caller;
    ``gram`` is their overlap matrix when the caller has built it."""
    ratios = pair_ratios(hilbert.overlap_matrix(states) if gram is None else gram)
    a, b = np.unravel_index(np.argmax(ratios), ratios.shape)
    witness = {"pair": (thetas[a].tolist(), thetas[b].tolist()),
               "value": float(ratios[a, b])}
    return bool(ratios[a, b] < QUASI_PARALLEL_TOL), witness
