"""Measurements, induced statistics, and Fisher-information machinery.

POVMs act in the orthonormal coordinates of a space, so grid-cell
measurements carry the quadrature weight automatically.  Probability
derivatives are taken through the lift, d_i p = Re <phi| E |l_i>, which
is exact at the evaluation point and keeps the classical-vs-quantum
Fisher comparison free of finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (
    MeasurementDefinitionError,
    SingularSupportError,
    SpaceMismatchError,
)
from .geometry import _gram, _metric_and_curvature
from .holonomy import align_phases, sample_states
from .model import _norms

PSD_TOL = 1e-10
RESOLUTION_TOL = 1e-8
PROB_CLIP = 1e-12
SUPPORT_MASS_TOL = 1e-10
SUPPORT_SCORE_TOL = 1e-8
SCORE_FD_STEP = 1e-6
# uniforms sorted at once by sample_counts
SAMPLE_CHUNK = 1 << 18


class Povm:
    """Measurement with elements ``E_w = sum_r |k_r><k_r|``.

    Outcome ``w`` owns the ``rank`` rows ``<k_r|`` of ``bras`` from
    ``w*rank`` on, in the orthonormal coordinates of ``space`` (None: any
    space of dimension ``bras.shape[1]``).  ``bras=None`` is the coordinate
    basis, one outcome per index or grid cell, with no ``n x n`` matrix.
    ``has_complement`` appends ``I - sum_w E_w`` as the last outcome.
    :func:`grid_pvm`, :func:`ProjectorPovm` and :func:`MatrixPovm` build
    validated instances.
    """

    def __init__(self, space, bras=None, rank=1, has_complement=False):
        self.space = space
        self.bras = bras
        self.rank = rank
        self.has_complement = has_complement
        self.dim = space.dim if bras is None else bras.shape[1]
        rows = self.dim if bras is None else len(bras)
        self.n_outcomes = rows // rank + int(has_complement)

    def _check_space(self, space):
        if space.dim != self.dim or self.space not in (None, space):
            raise SpaceMismatchError("state does not live on the measured space")

    def _amps(self, coords):
        """Amplitudes ``<k_r|c>`` of orthonormal coordinates ``c``, one per bra,
        over the last axis: one stacked ``(rows, dim) @ (dim, 1)`` product per
        vector, so a row does not depend on its batch."""
        return coords if self.bras is None else (self.bras @ coords[..., None])[..., 0]

    def _by_outcome(self, x):
        """Sum the last axis of ``x`` over the ``rank`` bras of each outcome."""
        return x.reshape(*x.shape[:-1], -1, self.rank).sum(axis=-1)

    def _probabilities(self, phi):
        """Outcome probabilities ``(..., W)`` of state amplitudes ``phi``
        ``(..., rows)`` (:meth:`_amps`)."""
        p = self._by_outcome(np.abs(phi) ** 2)
        if self.has_complement:
            rest = np.maximum(0.0, 1.0 - np.sum(p, axis=-1, keepdims=True))
            p = np.concatenate([p, rest], axis=-1)
        return p

    def _scores(self, phi, amps):
        """``d_i p_w = Re <phi| E_w |l_i>``, shape ``(..., m, W)``, from the
        amplitudes of the states ``(..., rows)`` and of their lifts
        ``(..., m, rows)``: exact through the projector derivative."""
        s = self._by_outcome((np.conj(phi)[..., None, :] * amps).real)
        if self.has_complement:
            s = np.concatenate([s, -np.sum(s, axis=-1, keepdims=True)], axis=-1)
        return s

    def _node_term(self, amps, coords, mask):
        """Limit contribution ``Re <l_i| E_w |l_j>`` of the outcomes in ``mask``,
        whose probability vanishes quadratically, from the amplitudes
        ``(m, rows)`` and the coordinates ``(m, dim)`` of one point's lifts."""
        rows = np.repeat(mask[: self.n_outcomes - self.has_complement], self.rank)
        w = np.compress(rows, amps, axis=-1)
        out = (w.conj() @ w.T).real
        if self.has_complement and mask[-1]:
            out = out + (coords.conj() @ coords.T).real - (amps.conj() @ amps.T).real
        return out

    def probabilities(self, state):
        self._check_space(state.space)
        return self._probabilities(self._amps(state.coords))

    def rho_probabilities(self, rho):
        """``Re tr(rho E_w)`` of a ``d x d`` density matrix in orthonormal
        coordinates: ``O(d)`` in the coordinate basis, ``O(rows d^2)`` else."""
        diag = (np.diag(rho) if self.bras is None
                else np.sum((self.bras @ rho) * self.bras.conj(), axis=1))
        p = self._by_outcome(diag.real)
        if self.has_complement:
            rest = float(np.trace(rho).real) - float(np.sum(p))
            p = np.concatenate([p, [max(0.0, rest)]])
        return p

    def scores(self, state, lifts):
        coords = np.array([l.coords for l in lifts])
        return self._scores(self._amps(state.coords), self._amps(coords))

    def node_fisher(self, lifts, mask):
        coords = np.array([l.coords for l in lifts])
        return self._node_term(self._amps(coords), coords, mask)


def grid_pvm(space):
    """One rank-1 projector per basis index or quadrature-weighted grid cell."""
    return Povm(space)


CellPovm = grid_pvm


def ProjectorPovm(basis):
    """Rank-1 projectors onto an orthonormal family; when the family does
    not span the space, the remainder projector is the last outcome."""
    if not basis:
        raise MeasurementDefinitionError("projector POVM needs at least one vector")
    space = basis[0].space
    u = np.column_stack([b.coords for b in basis])
    # U^dagger as a transposed view, not a C-ordered copy: the memory order
    # picks the matrix-vector kernel, and so the last bits of every result
    bras = u.conj().T
    if np.max(np.abs(bras @ u - np.eye(u.shape[1]))) > RESOLUTION_TOL:
        raise MeasurementDefinitionError("projector POVM vectors are not orthonormal")
    return Povm(space, bras, has_complement=u.shape[1] < space.dim)


def MatrixPovm(elements, space=None):
    """Explicit PSD ``d x d`` elements, validated to resolve the identity.

    ``d`` is ``space.dim``, or the first element's size when ``space`` is
    None.  Each element enters as ``d`` bras ``sqrt(lambda) v^dagger`` from
    one ``eigh`` of the stack, kept as ``.elements`` (shape ``(W, d, d)``).
    """
    elements = [np.asarray(e, dtype=complex) for e in elements]
    if not elements:
        raise MeasurementDefinitionError("empty POVM")
    d = elements[0].shape[0] if space is None else space.dim
    for k, e in enumerate(elements):
        if e.shape != (d, d):
            raise MeasurementDefinitionError(f"element {k} is not {d}x{d}")
        if not np.all(np.isfinite(e)):
            raise MeasurementDefinitionError(f"element {k} has a non-finite entry")
    stack = np.stack(elements)
    adjoint = stack.conj().transpose(0, 2, 1)
    vals, vecs = np.linalg.eigh(0.5 * (stack + adjoint))
    for k in range(len(elements)):
        if np.max(np.abs(stack[k] - adjoint[k])) > PSD_TOL:
            raise MeasurementDefinitionError(f"element {k} is not Hermitian")
        if np.min(vals[k]) < -PSD_TOL:
            raise MeasurementDefinitionError(f"element {k} is not PSD")
    if np.max(np.abs(stack.sum(axis=0) - np.eye(d))) > RESOLUTION_TOL:
        raise MeasurementDefinitionError("elements do not sum to the identity")
    bras = np.sqrt(np.clip(vals, 0.0, None))[:, :, None] * vecs.conj().transpose(0, 2, 1)
    povm = Povm(space, bras.reshape(-1, d), rank=d)
    povm.elements = stack
    return povm


def induced_distribution(povm, state_or_rho):
    """Outcome probabilities tr(rho E_w), clipped of roundoff negatives.

    A density matrix is given in the orthonormal coordinates of the
    measured space.
    """
    if isinstance(state_or_rho, hilbert.StateVector):
        p = povm.probabilities(state_or_rho)
    else:
        p = povm.rho_probabilities(np.asarray(state_or_rho, dtype=complex))
    p, faults = _distributions(p[None])
    _raise_first(faults)
    return p[0]


def _distributions(p):
    """The rows of ``p`` ``(k, W)`` clipped of roundoff negatives, and the
    faults (:func:`_raise_first`) of the rows that are no distribution: a
    probability negative beyond ``PSD_TOL`` or non-finite, then a sum off 1
    beyond ``RESOLUTION_TOL``."""
    low = np.min(p, axis=-1)
    p = np.clip(p, 0.0, None)
    total = np.sum(p, axis=-1)
    # negated comparisons: a NaN fails too
    return p, [
        (~(-low <= PSD_TOL), lambda r: MeasurementDefinitionError(
            f"induced probability {low[r]:.2e} is "
            + ("negative beyond tolerance" if np.isfinite(low[r]) else "non-finite"))),
        (~(np.abs(total - 1.0) <= RESOLUTION_TOL), lambda r: MeasurementDefinitionError(
            f"induced probabilities sum to {total[r]:.12f}, not 1")),
    ]


def _raise_first(faults):
    """Raise the fault of the first row that has one.  ``faults`` lists
    ``(mask, error)`` pairs in the order a row is checked: ``mask`` flags the
    rows that fail the check and ``error(r)`` is the exception of row ``r``."""
    masks = np.array([mask for mask, _ in faults])
    if masks.any():
        r = masks.any(axis=0).argmax()
        raise faults[masks[:, r].argmax()][1](r)


@dataclass(frozen=True)
class ClassicalFamily:
    """Outcome distribution p(w|theta) with its parameter derivatives.

    ``fisher_fn``, when present, maps theta to the Fisher matrix through
    one horizontal lift (:func:`lift_fisher`); measurement-induced
    families provide it, plain probability tables cannot.
    """

    m: int
    n_outcomes: int
    probabilities: object
    scores: object
    fisher_fn: object = None

    @staticmethod
    def from_probability_fn(p_fn, m):
        """Wrap a plain probability function; scores by central differences."""

        def scores(theta):
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            rows = []
            for i in range(m):
                h = SCORE_FD_STEP * max(1.0, abs(theta[i]))
                up = theta.copy()
                dn = theta.copy()
                up[i] += h
                dn[i] -= h
                rows.append((np.asarray(p_fn(up)) - np.asarray(p_fn(dn))) / (2 * h))
            return np.stack(rows)

        probe = np.asarray(p_fn(np.zeros(m)))
        return ClassicalFamily(m=m, n_outcomes=probe.size,
                               probabilities=lambda th: np.asarray(p_fn(th)),
                               scores=scores)


def measurement_family(model, povm):
    """Classical family induced by measuring a model with a fixed POVM."""

    def scores(theta):
        lift = model.horizontal_lift(theta)
        return povm.scores(lift.phi, lift.lifts)

    return ClassicalFamily(
        m=model.m,
        n_outcomes=povm.n_outcomes,
        probabilities=lambda theta: induced_distribution(povm, model.evaluate(theta)),
        scores=scores,
        fisher_fn=lambda theta: lift_fisher(povm, model.horizontal_lift(theta)),
    )


def classical_fisher(family, theta):
    """Fisher matrix sum_w dp_i dp_j / p over the supported outcomes.

    A measurement-induced family takes its lift route: one evaluation
    and ``m`` tangents per theta (:func:`lift_fisher`).  Outcomes below
    the probability clip must carry negligible derivative, otherwise the
    family has a genuinely singular support and the computation aborts.
    """
    if family.fisher_fn is not None:
        return family.fisher_fn(theta)
    p, s = family.probabilities(theta), family.scores(theta)
    return _fishers(np.asarray(p, dtype=float)[None], np.asarray(s, dtype=float)[None])[0]


def lift_fisher(povm, lift):
    """Classical Fisher matrix of ``povm`` at the point of ``lift``.

    The state, the scores and the node-limit term all come from the one
    lift.  Clipped outcomes whose probability vanishes quadratically (a
    state node sitting exactly on the evaluation point) contribute their
    finite limit Re <l_i|E|l_j> instead of being dropped, which is what
    the chain-rule form 4 sum (da_i)^2 yields for real amplitude families.
    This is the one-row case of :func:`fisher_many`.
    """
    space = lift.phi.space
    povm._check_space(space)
    return _lift_fishers(povm, np.sqrt(space.weight), np.array([lift.phi.amplitudes]),
                         np.array([[l.amplitudes for l in lift.lifts]]))[0]


def fisher_many(povm, model, thetas):
    """``(J_C, J_S)`` of ``povm`` on ``model`` at each row of a ``(k, m)``
    theta array, two ``(k, m, m)`` arrays.

    The lifts come one block of points at a time
    (``PureStateModel._lift_blocks``), and each block takes one pass
    (:func:`_lift_fishers`), then ``J_S`` from one stacked
    ``geometry._gram``.  Each row is bitwise :func:`lift_fisher` and
    :func:`geometry.sld_fisher` of the lift at its theta alone, and the first
    row that fails a check raises what :func:`lift_fisher` raises there.
    """
    points = model._points(thetas)
    m, root_w = model.m, np.sqrt(model.space.weight)
    j_c, j_s = [np.empty((0, m, m))], [np.empty((0, m, m))]
    for _, states, lifts in model._lift_blocks(points):
        povm._check_space(model.space)
        j_c.append(_lift_fishers(povm, root_w, states, lifts))
        j_s.append(_metric_and_curvature(_gram(lifts))[0])  # lifts are coordinates now
        del states, lifts  # not alive while the next block is evaluated
    return np.concatenate(j_c), np.concatenate(j_s)


def _lift_fishers(povm, root_w, states, lifts):
    """:func:`lift_fisher` at each row of unit states ``(k, dim)`` and their
    lifts ``(k, m, dim)``, amplitudes on a space of quadrature weight
    ``root_w ** 2``; both arrays are scaled to orthonormal coordinates in
    place.

    One stacked POVM product each gives the amplitudes of the states and of
    the lifts, then the ``(k, W)`` probabilities and the ``(k, m, W)``
    scores.  The support check scales by the lift norms that
    ``StateVector.norm`` gives, so they are taken of the amplitudes, and
    only when a row clips an outcome.
    """
    phi = povm._amps(np.multiply(states, root_w, out=states))
    p, faults = _distributions(povm._probabilities(phi))
    norms = None if _support(p).all() else root_w * np.max(_norms(lifts), axis=-1)
    amps = povm._amps(np.multiply(lifts, root_w, out=lifts))
    return _fishers(p, povm._scores(phi, amps), faults, norms,
                    lambda r, dropped: povm._node_term(amps[r], lifts[r], dropped))


def _support(p):
    """The outcomes of each row of ``p`` above the clip, which is relative to
    the outcome count, so the dropped mass stays below ``PROB_CLIP`` however
    fine the grid."""
    return p > PROB_CLIP / p.shape[-1]


def _fishers(p, s, faults=(), lift_norms=None, node_term=None):
    """Fisher matrices ``sum_w dp_i dp_j / p`` ``(k, m, m)`` over the
    supported outcomes (:func:`_support`) of the rows of ``p`` ``(k, W)`` with
    scores ``s`` ``(k, m, W)``.

    A clipped outcome of row ``r`` may carry a score of at most
    ``SUPPORT_SCORE_TOL`` times ``lift_norms[r]``, the largest norm of the
    lifts behind the scores, which bounds it by Cauchy-Schwarz; the scale is
    floored at 1, the scale of a plain probability table (no
    ``lift_norms``).  ``node_term(r, dropped)`` gives the limit contribution
    of the clipped outcomes of row ``r``.

    A row takes the checks in ``faults`` first (:func:`_distributions`), then
    the support score and the support mass; the first row with a fault
    raises it (:func:`_raise_first`).  The rows that keep every outcome take
    one stacked product, the others one each, and each row is bitwise the
    row alone.
    """
    support = _support(p)
    whole = support.all(axis=-1)
    bad = np.abs(s, out=np.zeros(s.shape), where=~support[:, None]).max(axis=(-2, -1))
    score = bad > SUPPORT_SCORE_TOL
    if lift_norms is not None:
        score &= bad > SUPPORT_SCORE_TOL * lift_norms
    mass = np.sum(p, axis=-1)
    kept = {r: p[r][support[r]] for r in np.flatnonzero(~whole)}
    for r, p_r in kept.items():
        mass[r] = np.sum(p_r)
    _raise_first([
        *faults,
        (score, lambda r: SingularSupportError(
            f"outcome with p < {PROB_CLIP:.0e} carries score {bad[r]:.2e}")),
        (mass < 1.0 - SUPPORT_MASS_TOL, lambda r: SingularSupportError(
            f"support mass {mass[r]:.12f} is below 1 - {SUPPORT_MASS_TOL:.0e}")),
    ])
    j = np.empty(s.shape[:-1] + s.shape[-2:-1])
    w = s[whole] / np.sqrt(p[whole])[:, None]
    j[whole] = w @ np.swapaxes(w, -1, -2)
    for r, p_r in kept.items():
        w = np.compress(support[r], s[r], axis=-1) / np.sqrt(p_r)
        j[r] = w @ w.T
        if node_term is not None:
            j[r] += node_term(r, ~support[r])
    return 0.5 * (j + np.swapaxes(j, -1, -2))


def optimal_measurement_quasi_parallel(model, sample_thetas):
    """Fixed projective measurement attaining the quantum Fisher matrix.

    Requires the family to pass :func:`is_quasi_parallel` on the samples;
    :class:`NonRealOverlapError` otherwise.  The sample states are
    phase-aligned and orthonormalized over the reals; measuring in that
    basis gives a classical Fisher matrix equal to the quantum one at every
    sampled point, with a single measurement that never depends on the
    parameter.
    """
    return schmidt_povm(sample_states(model, sample_thetas)[1])


def schmidt_povm(states):
    """The construction of :func:`optimal_measurement_quasi_parallel` on
    sample states evaluated by the caller."""
    return ProjectorPovm(hilbert.gram_schmidt_real(align_phases(states)[0]))


def _inverse_cdf(povm, state_or_rho, n):
    """Normalised CDF of the induced distribution: the uniform ``u`` draws
    outcome ``w`` when ``cdf[w-1] <= u < cdf[w]``."""
    if n < 1:
        raise ValueError("need n >= 1 draws")
    p = induced_distribution(povm, state_or_rho)
    cdf = np.cumsum(p / np.sum(p))
    cdf /= cdf[-1]
    return cdf


def sample_outcomes(povm, state_or_rho, n, seed):
    """n i.i.d. outcome indices; identical seeds give identical draws.

    Inverse-transform sampling of ``default_rng(seed).random(n)``, the
    draws ``Generator.choice(W, size=n, p=p)`` makes for the same seed.
    """
    cdf = _inverse_cdf(povm, state_or_rho, n)
    return np.searchsorted(cdf, np.random.default_rng(seed).random(int(n)), side="right")


def sample_counts(povm, state_or_rho, n, seed):
    """Outcome counts of :func:`sample_outcomes` with the same arguments.

    The same uniforms are drawn ``SAMPLE_CHUNK`` at a time into one buffer
    and sorted; each ``cdf[w]`` then splits a chunk at the number of its
    draws with outcome ``<= w``.  O(n log chunk + W) time and O(chunk + W)
    memory for ``W`` outcomes.
    """
    cdf = _inverse_cdf(povm, state_or_rho, n)
    rng = np.random.default_rng(seed)
    n = int(n)
    at_most = np.zeros(cdf.size, dtype=np.int64)
    buf = np.empty(min(n, SAMPLE_CHUNK))
    for start in range(0, n, buf.size):
        u = buf[: min(buf.size, n - start)]
        rng.random(out=u)
        u.sort()
        at_most += np.searchsorted(u, cdf, side="left")
    return np.diff(at_most, prepend=0)


def split_seeds(seed, n_streams):
    """Independent child seeds for parallel workers."""
    return [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(n_streams)]


@dataclass(frozen=True)
class EstimatorStats:
    """Empirical moments of an estimator over sampled outcomes."""

    estimate_fn: object
    mean: np.ndarray
    covariance: np.ndarray
    n: int
    seed: object = None


def estimator_covariance(outcomes, estimate_fn, seed=None):
    """Unbiased sample mean and covariance of estimate_fn over outcomes.

    ``estimate_fn`` receives the whole outcome-index array and returns
    per-draw estimates, shape (n,) or (n, m).
    """
    outcomes = np.asarray(outcomes)
    n = outcomes.shape[0]
    if n < 2:
        raise ValueError("need at least two outcomes for a covariance")
    est = np.asarray(estimate_fn(outcomes), dtype=float)
    if est.ndim == 1:
        est = est[:, None]
    mean = est.mean(axis=0)
    centered = est - mean
    cov = centered.T @ centered / (n - 1)
    return EstimatorStats(estimate_fn=estimate_fn, mean=mean, covariance=cov,
                          n=n, seed=seed)
