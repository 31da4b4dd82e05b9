"""Metric, curvature, spectrum and error bounds at a parameter point.

From the lift vectors l_1..l_m the module assembles the real part of the
Gram matrix (the SLD Fisher matrix), its imaginary part (the curvature
matrix of the phase connection), and the spectrum of the metric-adjoint
map D = J_S^{-1} J_tilde.  The eigenvalues of D come in pairs +-i beta_j
with 0 <= beta_j <= 1; they quantify how far the family is from being
measurable classically, and they enter the attainable error bound

    CR(J_S) = sum_j 4 / (1 + sqrt(1 - beta_j^2))

which equals m exactly when the curvature vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError, SpectralConsistencyError
from .hilbert import _gram
from .model import _row

RANK_TOL = 1e-10
METRIC_SCALE_FLOOR = 1e-12
BETA_BOUND_TOL = 1e-6
QUASI_CLASSICAL_TOL = 1e-8
WEIGHT_TOL = 1e-12


def _is_singular(eigvals):
    # relative rank test over the last axis of ascending eigenvalues, with an
    # absolute floor so the all-zero metric (pure-gauge directions) is caught
    # as well
    largest = eigvals[..., -1]
    return (largest <= METRIC_SCALE_FLOOR) | (eigvals[..., 0] <= RANK_TOL * largest)


@dataclass(frozen=True)
class WeightMatrix:
    """Real symmetric nonnegative weight for the error functional."""

    matrix: np.ndarray

    def __post_init__(self):
        g = np.array(self.matrix, dtype=float, copy=True)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("weight must be a square matrix")
        if not np.all(np.isfinite(g)):
            raise ValueError("weight entries must be finite")
        tol = WEIGHT_TOL * max(1.0, np.max(np.abs(g)))
        if np.max(np.abs(g - g.T)) > tol:
            raise ValueError(f"weight must be symmetric within {WEIGHT_TOL:.0e} "
                             "times max(1, max abs G)")
        if np.min(np.linalg.eigvalsh(g)) < -tol:
            raise ValueError("weight must be positive semidefinite")
        g.setflags(write=False)
        object.__setattr__(self, "matrix", g)


def _lift_gram(lift):
    return _gram(np.array([l.coords for l in lift.lifts]))


def _metric_and_curvature(gram):
    re, im = gram.real, gram.imag
    return 0.5 * (re + np.swapaxes(re, -1, -2)), 0.5 * (im - np.swapaxes(im, -1, -2))


def sld_fisher(lift):
    """Real part of the lift Gram matrix; symmetric PSD."""
    return _metric_and_curvature(_lift_gram(lift))[0]


def berry_curvature(lift):
    """Imaginary part of the lift Gram matrix; antisymmetric."""
    return _metric_and_curvature(_lift_gram(lift))[1]


def _spectra(j_s, j_tilde):
    """The spectral pass over ``(k, m, m)`` stacks of metrics and curvatures.

    One ``eigh`` of the metrics gives the rank verdicts and J_S^{-1/2}, and
    one SVD of the whitened curvatures of the regular rows their singular
    values; no SVD runs when no row is regular.  Returns ``(eigvals,
    eigvecs, regular, svals)`` with one ``svals`` row per regular row.
    """
    eigvals, eigvecs = np.linalg.eigh(j_s)
    regular = ~_is_singular(eigvals)
    if not regular.any():
        return eigvals, eigvecs, regular, None
    vecs = eigvecs[regular]
    scale = np.zeros_like(vecs)
    diag = np.arange(scale.shape[-1])
    scale[:, diag, diag] = eigvals[regular] ** -0.5
    inv_sqrt = vecs @ scale @ np.swapaxes(vecs, -1, -2)
    k = inv_sqrt @ j_tilde[regular] @ inv_sqrt
    k = 0.5 * (k - np.swapaxes(k, -1, -2))
    return eigvals, eigvecs, regular, np.linalg.svd(k, compute_uv=False)


def _betas(svals):
    """Per row of singular values, the betas: one per pair (antisymmetric
    real matrices pair theirs as (b, b)) above ``QUASI_CLASSICAL_TOL``."""
    return [[b for b in row if b > QUASI_CLASSICAL_TOL] for row in svals[:, 0::2].tolist()]


def _single(j_s, j_tilde):
    """``j_s``, ``j_tilde`` as float ``(m, m)`` arrays and their spectral
    pass; :class:`RankDeficiencyError` right after the ``eigh`` when the
    metric is singular."""
    j_s = np.asarray(j_s, dtype=float)
    j_tilde = np.asarray(j_tilde, dtype=float)
    eigvals, eigvecs, regular, svals = _spectra(j_s[None], j_tilde[None])
    if not regular[0]:
        eigvals, eigvecs = eigvals[0], eigvecs[0]
        null = eigvals <= max(RANK_TOL * eigvals[-1], METRIC_SCALE_FLOOR)
        raise RankDeficiencyError(
            f"metric is singular: eigenvalues {eigvals.tolist()}",
            null_directions=eigvecs[:, null],
        )
    return j_s, j_tilde, svals


def d_transform(j_s, j_tilde):
    """Metric-adjoint of the curvature: D = J_S^{-1} J_tilde.

    Returns ``(D, betas)`` with betas the pair magnitudes of the spectrum
    +-i beta_j above ``QUASI_CLASSICAL_TOL``, sorted descending.  The
    spectrum comes from the symmetrized J_S^{-1/2} J_tilde J_S^{-1/2},
    exactly antisymmetric in the metric frame, so the pairing is
    numerically guaranteed.  Raises :class:`RankDeficiencyError` when the
    metric is singular at relative tolerance ``RANK_TOL``.
    """
    j_s, j_tilde, svals = _single(j_s, j_tilde)
    return np.linalg.solve(j_s, j_tilde), _betas(svals)[0]


def d_via_projection(lift, x):
    """Complex-structure action computed at the vector level.

    Multiplies the lift of the tangent X by the imaginary unit, projects
    the result back onto the real span of the lift frame with respect to
    Re<*|*>, and returns the frame coordinates of the projection.  The
    orientation of the unit (-i rather than +i) is fixed so that the
    result agrees with ``d_transform(J_S, J_tilde) @ x`` for the
    convention J_tilde = Im<l_i|l_j>; the opposite orientation yields the
    transposed map.
    """
    x = np.asarray(x, dtype=float)
    m = lift.m
    if x.shape != (m,):
        raise ValueError(f"tangent coefficients must have shape ({m},)")
    frame = np.column_stack([l.coords for l in lift.lifts])
    l_x = frame @ x
    rotated = -1j * l_x
    # least squares over the reals: stack real and imaginary parts
    a = np.concatenate([frame.real, frame.imag], axis=0)
    b = np.concatenate([rotated.real, rotated.imag], axis=0)
    coeffs, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < m:
        raise RankDeficiencyError(
            f"lift frame spans only {rank} of {m} real directions"
        )
    return coeffs


def _weighted_traces(g, j_s):
    """``Tr G J_S^{-1}`` over ``(k, m, m)`` stacks: one ``solve``."""
    return np.trace(np.linalg.solve(j_s, g), axis1=-2, axis2=-1).tolist()


def _weighted_trace(weight, j_s):
    g = weight.matrix if isinstance(weight, WeightMatrix) else np.asarray(weight, float)
    return _weighted_traces(g[None], np.asarray(j_s)[None])[0]


def sld_bound(weight, j_s):
    """Lower bound Tr G J_S^{-1} on the weighted estimation error; the
    rank verdict is that of :func:`d_transform`.  A raw ``weight`` passes
    the :class:`WeightMatrix` checks first."""
    if not isinstance(weight, WeightMatrix):
        weight = WeightMatrix(weight)
    return _weighted_trace(weight, _single(j_s, np.zeros(np.shape(j_s)))[0])


def _cr_from_svals(m, svals):
    """``CR(J_S)`` per row of singular values (:func:`_betas`).

    Raises :class:`SpectralConsistencyError` at the first row, in order,
    with a beta above 1 beyond ``BETA_BOUND_TOL``.
    """
    pairs = svals[:, 0::2]
    over = np.argwhere(pairs > 1.0 + BETA_BOUND_TOL)
    if over.size:
        raise SpectralConsistencyError(
            f"beta = {pairs[tuple(over[0])]:.8f} exceeds 1 beyond tolerance "
            f"{BETA_BOUND_TOL:.0e}; "
            "the inputs are not the metric and curvature of a pure-state family"
        )
    kept = pairs > QUASI_CLASSICAL_TOL
    clamped = np.minimum(pairs, 1.0)
    terms = np.where(kept, 4.0 / (1.0 + np.sqrt(1.0 - clamped * clamped)), 0.0)
    paired = np.zeros(len(pairs))
    for column in terms.T:  # in order, as the betas are summed one by one
        paired = paired + column
    return (paired + (m - 2 * np.count_nonzero(kept, axis=1))).tolist()


def attainable_cr_js(j_s, j_tilde):
    """Attainable error bound at weight G = J_S.

    Each curvature pair beta_j contributes 4 / (1 + sqrt(1 - beta_j^2));
    directions outside any pair contribute 1, the classical value, which
    is also the beta -> 0 limit of half a pair.  The total is >= m with
    equality exactly when the curvature vanishes.
    """
    j_s, _, svals = _single(j_s, j_tilde)
    return _cr_from_svals(j_s.shape[0], svals)[0]


def _curvature_below_scale(j_tilde, j_s):
    """``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)`` over
    the last two axes."""
    scale = np.maximum(1.0, np.max(np.abs(j_s), axis=(-2, -1)))
    return np.max(np.abs(j_tilde), axis=(-2, -1)) < QUASI_CLASSICAL_TOL * scale


def is_quasi_classical(j_tilde, j_s):
    """No beta left, as in ``analyze``; at a singular metric, where none
    exists, ``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)``."""
    try:
        return not _betas(_single(j_s, j_tilde)[2])[0]
    except RankDeficiencyError:
        return bool(_curvature_below_scale(j_tilde, j_s))


@dataclass(frozen=True)
class GeometryReport:
    """All point-local geometric quantities of a model at one theta."""

    theta: np.ndarray
    sld_fisher: np.ndarray
    berry_curvature: np.ndarray
    d_matrix: np.ndarray | None
    betas: tuple
    cr_js: float | None
    quasi_classical: bool
    rank_deficient: bool

    @property
    def m(self):
        return self.sld_fisher.shape[0]

    def sld_bound(self, weight):
        """Tr G J_S^{-1}; raises on a rank-deficient metric.  A raw
        ``weight`` is not checked, to keep an eigendecomposition off the
        report path: callers pass ``J_S`` or a checked diagonal."""
        if self.rank_deficient:
            raise RankDeficiencyError(
                f"metric is singular at theta {self.theta.tolist()}"
            )
        return _weighted_trace(weight, self.sld_fisher)


def analyze(model, theta):
    """Geometry report of ``model`` at ``theta``: :func:`analyze_many` on
    one row.

    Rank deficiency of the metric is reported as a flag here; only the
    bound computations (``sld_bound``, ``cr_js``) treat it as an error,
    so the corresponding fields come back as None.  ``quasi_classical`` is
    the verdict of :func:`is_quasi_classical`, from the same spectral pass.
    """
    return analyze_many(model, _row(theta, model.m))[0]


def analyze_many(model, thetas):
    """:func:`analyze` at each row of a ``(k, m)`` theta array, as a list.

    The arrays come from :func:`_analyze_columns`, and each row is bitwise
    the row :func:`analyze` gives alone.
    """
    points = model._points(thetas)
    if not len(points):
        return []
    j_s, j_t, regular, d, betas, cr, below = _analyze_columns(model, points)
    d_matrix, betas_r, cr_r = [None] * len(points), [()] * len(points), [None] * len(points)
    for r, d_r, b_r, c_r in zip(np.flatnonzero(regular).tolist(), d, betas, cr):
        d_matrix[r], betas_r[r], cr_r[r] = d_r, tuple(b_r), c_r
    return [
        GeometryReport(
            theta=points[r],
            sld_fisher=j_s[r],
            berry_curvature=j_t[r],
            d_matrix=d_matrix[r],
            betas=betas_r[r],
            cr_js=cr_r[r],
            quasi_classical=not betas_r[r] if ok else below[r],
            rank_deficient=not ok,
        )
        for r, ok in enumerate(regular.tolist())
    ]


def _analyze_columns(model, points):
    """The stacked arrays of :func:`analyze_many` at checked ``(k, m)``
    ``points``, ``k >= 1``: ``(j_s, j_t, regular, d, betas, cr, below)``.

    The lifts come one block of points at a time
    (``PureStateModel._lift_blocks``), and only their ``(m, m)`` Gram
    matrices are kept.  One ``eigh`` over all rows, one SVD and one
    ``solve`` over the regular rows then serve every point.  ``j_s`` and
    ``j_t`` are ``(k, m, m)``, ``regular`` is the boolean row mask, ``d``
    (an ``(r, m, m)`` array), ``betas`` (lists) and ``cr`` (floats) hold one
    item per regular row, in order, and ``below`` is the list of
    :func:`_curvature_below_scale` verdicts of every row.
    """
    m, root_w = model.m, np.sqrt(model.space.weight)
    # the lifts are scaled to coordinates in place: one block-sized temporary
    # less; a stand-in for _gram may give a one-row block as (m, m)
    grams = [np.reshape(_gram(np.multiply(lifts, root_w, out=lifts)), (len(block), m, m))
             for block, _, lifts in model._lift_blocks(points)]
    j_s, j_t = _metric_and_curvature(np.concatenate(grams))
    _, _, regular, svals = _spectra(j_s, j_t)
    d, betas, cr = np.empty((0, m, m)), [], []
    if svals is not None:
        # D before the beta check, so a rejected point costs the same calls
        d = np.linalg.solve(j_s[regular], j_t[regular])
        betas, cr = _betas(svals), _cr_from_svals(m, svals)
    return j_s, j_t, regular, d, betas, cr, _curvature_below_scale(j_t, j_s).tolist()


def sld_bounds(reports, weights):
    """``Tr G J_S^{-1}`` of each report with its weight ``G``, one ``(m, m)``
    matrix per report: None on a rank-deficient report, and one stacked
    ``solve`` over the others.  The weights are not checked, as in
    :meth:`GeometryReport.sld_bound`."""
    rows = [r for r, rep in enumerate(reports) if not rep.rank_deficient]
    bounds = [None] * len(reports)
    if rows:
        g = np.array([np.asarray(weights[r], dtype=float) for r in rows])
        j_s = np.array([reports[r].sld_fisher for r in rows])
        for r, value in zip(rows, _weighted_traces(g, j_s)):
            bounds[r] = value
    return bounds
