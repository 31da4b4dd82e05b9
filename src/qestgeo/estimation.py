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
from .holonomy import align_phases, sample_states

PSD_TOL = 1e-10
RESOLUTION_TOL = 1e-8
PROB_CLIP = 1e-12
SUPPORT_MASS_TOL = 1e-10
SUPPORT_SCORE_TOL = 1e-8
SCORE_FD_STEP = 1e-6


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

    def _amps(self, coords):
        """Amplitudes ``<k_r|c>`` of orthonormal coordinates ``c``, one per bra."""
        return coords if self.bras is None else self.bras @ coords

    def _lift_amps(self, lifts):
        # one row per lift, each its own matrix-vector product: one matmul
        # of all the lifts would round differently
        return np.array([self._amps(l.coords) for l in lifts])

    def _by_outcome(self, x):
        """Sum the last axis of ``x`` over the ``rank`` bras of each outcome."""
        return x.reshape(*x.shape[:-1], -1, self.rank).sum(axis=-1)

    def probabilities(self, state):
        if state.space.dim != self.dim or self.space not in (None, state.space):
            raise SpaceMismatchError("state does not live on the measured space")
        p = self._by_outcome(np.abs(self._amps(state.coords)) ** 2)
        if self.has_complement:
            p = np.concatenate([p, [max(0.0, 1.0 - float(np.sum(p)))]])
        return p

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
        # d_i p_w = Re <phi| E_w |l_i>, exact through the projector derivative
        phi_amp = self._amps(state.coords)
        s = self._by_outcome((np.conj(phi_amp) * self._lift_amps(lifts)).real)
        if self.has_complement:
            s = np.concatenate([s, -np.sum(s, axis=1, keepdims=True)], axis=1)
        return s

    def node_fisher(self, lifts, mask):
        # limit contribution Re <l_i| E_w |l_j> of outcomes whose
        # probability vanishes quadratically
        rows = np.repeat(mask[: self.n_outcomes - self.has_complement], self.rank)
        amps = self._lift_amps(lifts)
        w = amps[:, rows]
        out = (w.conj() @ w.T).real
        if self.has_complement and mask[-1]:
            full = np.stack([l.coords for l in lifts])
            out = out + (full.conj() @ full.T).real - (amps.conj() @ amps.T).real
        return out


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
    if np.min(p) < -PSD_TOL:
        raise MeasurementDefinitionError(
            f"induced probability {np.min(p):.2e} is negative beyond tolerance"
        )
    p = np.clip(p, 0.0, None)
    total = float(np.sum(p))
    if abs(total - 1.0) > RESOLUTION_TOL:
        raise MeasurementDefinitionError(
            f"induced probabilities sum to {total:.12f}, not 1"
        )
    return p


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
    return _fisher(family.probabilities(theta), family.scores(theta), None, None)


def lift_fisher(povm, lift):
    """Classical Fisher matrix of ``povm`` at the point of ``lift``.

    The state, the scores and the node-limit term all come from the one
    lift.  Clipped outcomes whose probability vanishes quadratically (a
    state node sitting exactly on the evaluation point) contribute their
    finite limit Re <l_i|E|l_j> instead of being dropped, which is what
    the chain-rule form 4 sum (da_i)^2 yields for real amplitude families.
    """
    return _fisher(induced_distribution(povm, lift.phi),
                   povm.scores(lift.phi, lift.lifts), povm, lift.lifts)


def _fisher(p, s, povm, lifts):
    """Fisher core of :func:`classical_fisher` and :func:`lift_fisher`.

    The clip is relative to the outcome count, so the dropped mass stays
    below ``PROB_CLIP`` however fine the grid.  A clipped outcome may carry
    a score of at most ``SUPPORT_SCORE_TOL`` times the largest norm of the
    ``lifts`` behind the scores, which bounds it by Cauchy-Schwarz; the scale
    is floored at 1, the scale of a plain probability table.  With lifts,
    ``povm.node_fisher`` gives the limit contribution of the clipped outcomes.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    support = p > PROB_CLIP / p.size
    dropped = ~support
    if np.any(dropped):
        bad = np.max(np.abs(s[:, dropped])) if s[:, dropped].size else 0.0
        # the lift norms are needed only past the floor
        if bad > SUPPORT_SCORE_TOL and (
                lifts is None or bad > SUPPORT_SCORE_TOL * max(l.norm() for l in lifts)):
            raise SingularSupportError(
                f"outcome with p < {PROB_CLIP:.0e} carries score {bad:.2e}"
            )
    mass = float(np.sum(p[support]))
    if mass < 1.0 - SUPPORT_MASS_TOL:
        raise SingularSupportError(
            f"support mass {mass:.12f} is below 1 - {SUPPORT_MASS_TOL:.0e}"
        )
    w = s[:, support] / np.sqrt(p[support])
    j = w @ w.T
    if np.any(dropped) and lifts is not None:
        j = j + np.asarray(povm.node_fisher(lifts, dropped), dtype=float)
    return 0.5 * (j + j.T)


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


def sample_outcomes(povm, state_or_rho, n, seed):
    """n i.i.d. outcome indices; identical seeds give identical draws."""
    if n < 1:
        raise ValueError("need n >= 1 draws")
    p = induced_distribution(povm, state_or_rho)
    p = p / np.sum(p)
    rng = np.random.default_rng(seed)
    return rng.choice(len(p), size=int(n), p=p)


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
