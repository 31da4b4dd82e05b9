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
    """``(pairs, counts)`` of rows of singular values: ``pairs`` holds one
    value per pair (antisymmetric real matrices pair theirs as (b, b)), in
    descending order, so a row's betas are its first ``counts`` pairs, those
    above ``QUASI_CLASSICAL_TOL``."""
    pairs = svals[:, 0::2]
    return pairs, np.count_nonzero(pairs > QUASI_CLASSICAL_TOL, axis=1)


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
    pairs, counts = _betas(svals)
    return np.linalg.solve(j_s, j_tilde), pairs[0, :counts[0]].tolist()


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


def _weight_matrix(weight):
    """The checked ``(m, m)`` array of a :class:`WeightMatrix`, or of a raw
    weight after the :class:`WeightMatrix` checks."""
    return (weight if isinstance(weight, WeightMatrix) else WeightMatrix(weight)).matrix


def _weighted_trace(g, j_s):
    return _weighted_traces(g[None], np.asarray(j_s)[None])[0]


def sld_bound(weight, j_s):
    """Lower bound Tr G J_S^{-1} on the weighted estimation error; the
    rank verdict is that of :func:`d_transform`.  A raw ``weight`` passes
    the :class:`WeightMatrix` checks first."""
    return _weighted_trace(_weight_matrix(weight), _single(j_s, np.zeros(np.shape(j_s)))[0])


def _cr_from_svals(m, svals):
    """``CR(J_S)`` per row of singular values (:func:`_betas`), as an array.

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
    return paired + (m - 2 * np.count_nonzero(kept, axis=1))


def attainable_cr_js(j_s, j_tilde):
    """Attainable error bound at weight G = J_S.

    Each curvature pair beta_j contributes 4 / (1 + sqrt(1 - beta_j^2));
    directions outside any pair contribute 1, the classical value, which
    is also the beta -> 0 limit of half a pair.  The total is >= m with
    equality exactly when the curvature vanishes.
    """
    j_s, _, svals = _single(j_s, j_tilde)
    return float(_cr_from_svals(j_s.shape[0], svals)[0])


def _curvature_below_scale(j_tilde, j_s):
    """``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)`` over
    the last two axes."""
    scale = np.maximum(1.0, np.max(np.abs(j_s), axis=(-2, -1)))
    return np.max(np.abs(j_tilde), axis=(-2, -1)) < QUASI_CLASSICAL_TOL * scale


def is_quasi_classical(j_tilde, j_s):
    """No beta left, as in ``analyze``; at a singular metric, where none
    exists, ``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)``."""
    try:
        return not _betas(_single(j_s, j_tilde)[2])[1][0]
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
        ``weight`` passes the :class:`WeightMatrix` checks first, except
        the report's own ``sld_fisher``, which its rank verdict already
        shows symmetric and positive definite: no eigendecomposition."""
        if self.rank_deficient:
            raise RankDeficiencyError(
                f"metric is singular at theta {self.theta.tolist()}"
            )
        g = weight if weight is self.sld_fisher else _weight_matrix(weight)
        return _weighted_trace(g, self.sld_fisher)


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

    Row ``r`` reads row ``r`` of the :func:`_analyze_columns` arrays, and is
    bitwise the row :func:`analyze` gives alone.
    """
    points = model._points(thetas)
    if not len(points):
        return []
    j_s, j_t, regular, d, pairs, n_betas, cr, quasi = _analyze_columns(model, points)
    rows = zip(regular.tolist(), pairs.tolist(), n_betas.tolist(), cr.tolist(), quasi.tolist())
    return [
        GeometryReport(
            theta=points[r],
            sld_fisher=j_s[r],
            berry_curvature=j_t[r],
            d_matrix=d[r] if ok else None,
            betas=tuple(betas[:n]),
            cr_js=cr_r if ok else None,
            quasi_classical=quasi_r,
            rank_deficient=not ok,
        )
        for r, (ok, betas, n, cr_r, quasi_r) in enumerate(rows)
    ]


def _analyze_columns(model, points):
    """The stacked arrays of :func:`analyze_many` at checked ``(k, m)``
    ``points``, ``k >= 1``: ``(j_s, j_t, regular, d, pairs, n_betas, cr,
    quasi)``, each with one row per point.

    The lifts come one block of points at a time
    (``PureStateModel._lift_blocks``), and only their ``(m, m)`` Gram
    matrices are kept.  One ``eigh`` over all rows, one SVD and one
    ``solve`` over the regular rows then serve every point.  ``j_s``,
    ``j_t`` and ``d`` are ``(k, m, m)``, ``regular`` is the boolean row
    mask, ``pairs`` the ``(k, (m + 1) // 2)`` pair values of
    :func:`_betas`, of which the first ``n_betas`` of a row are its betas,
    ``cr`` is ``CR(J_S)`` and ``quasi`` the quasi-classical verdict: no
    beta on a regular row, :func:`_curvature_below_scale` on the others.
    ``d``, ``pairs`` and ``cr`` are 0 on the rank-deficient rows.
    """
    m, root_w = model.m, np.sqrt(model.space.weight)
    # the lifts are scaled to coordinates in place: one block-sized temporary
    # less; a stand-in for _gram may give a one-row block as (m, m)
    grams = [np.reshape(_gram(np.multiply(lifts, root_w, out=lifts)), (len(block), m, m))
             for block, _, lifts in model._lift_blocks(points)]
    j_s, j_t = _metric_and_curvature(np.concatenate(grams))
    _, _, regular, svals = _spectra(j_s, j_t)
    k = len(j_s)
    d, pairs, n_betas, cr = (np.zeros((k, m, m)), np.zeros((k, (m + 1) // 2)),
                             np.zeros(k, dtype=int), np.zeros(k))
    if svals is not None:
        # D before the beta check, so a rejected point costs the same calls
        d[regular] = np.linalg.solve(j_s[regular], j_t[regular])
        pairs[regular], n_betas[regular] = _betas(svals)
        cr[regular] = _cr_from_svals(m, svals)
    quasi = np.where(regular, n_betas == 0, _curvature_below_scale(j_t, j_s))
    return j_s, j_t, regular, d, pairs, n_betas, cr, quasi


def sld_bounds(reports, weights):
    """``Tr G J_S^{-1}`` of each report with its weight ``G``, one ``(m, m)``
    matrix per report: None on a rank-deficient report, and one stacked
    ``solve`` over the others.  Raw weights pass the :class:`WeightMatrix`
    checks first, as in :meth:`GeometryReport.sld_bound`."""
    g = [_weight_matrix(w) for w in weights]
    rows = [r for r, rep in enumerate(reports) if not rep.rank_deficient]
    bounds = [None] * len(reports)
    if rows:
        j_s = np.array([reports[r].sld_fisher for r in rows])
        for r, value in zip(rows, _weighted_traces(np.array([g[r] for r in rows]), j_s)):
            bounds[r] = value
    return bounds
