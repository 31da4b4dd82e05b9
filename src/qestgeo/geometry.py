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

from .errors import ModelDefinitionError, RankDeficiencyError, SpectralConsistencyError
from .hilbert import _gram
from .model import _row

RANK_TOL = 1e-10
METRIC_SCALE_FLOOR = 1e-12
BETA_BOUND_TOL = 1e-6
QUASI_CLASSICAL_TOL = 1e-8
WEIGHT_TOL = 1e-12


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


def _lift_grams(points, coords):
    """The ``(k, m, m)`` Gram matrices of the lift coordinates ``coords``
    ``(k, m, dim)`` at the ``k`` points ``points``, overflow silenced:
    :class:`ModelDefinitionError` names the first point whose matrix is not
    finite, before a spectral call or any Fisher arithmetic."""
    k, m = np.shape(coords)[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        # a stand-in for _gram may give a one-row block as (m, m)
        g = np.reshape(_gram(np.asarray(coords)), (k, m, m))
    finite = np.isfinite(g).all(axis=(1, 2))
    if not finite.all():
        raise ModelDefinitionError("lift Gram matrix is not finite at theta "
                                   f"{np.asarray(points)[np.argmin(finite)].tolist()}")
    return g


def _metric_and_curvature(gram):
    re, im = gram.real, gram.imag
    return 0.5 * (re + np.swapaxes(re, -1, -2)), 0.5 * (im - np.swapaxes(im, -1, -2))


def sld_fisher(lift):
    """Real part of the lift Gram matrix; symmetric PSD."""
    return _metric_and_curvature(_lift_grams([lift.theta], [[l.coords for l in lift.lifts]]))[0][0]


def berry_curvature(lift):
    """Imaginary part of the lift Gram matrix; antisymmetric."""
    return _metric_and_curvature(_lift_grams([lift.theta], [[l.coords for l in lift.lifts]]))[1][0]


def _spectral_pass(j_s, j_tilde):
    """The spectral pass over ``(k, m, m)`` stacks of metrics and curvatures,
    and its verdicts: ``(eigvals, eigvecs, regular, pairs, n_betas, quasi)``.

    One ``eigh`` of the metrics gives the rank verdicts and J_S^{-1/2}: a row
    is ``regular`` unless its eigenvalues fail a relative rank test, with an
    absolute floor so the all-zero metric (pure-gauge directions) is caught as
    well.  One SVD of the whitened curvatures of the regular rows gives their
    singular values; no SVD runs when no row is regular.  Antisymmetric real
    matrices pair theirs as (b, b), so ``pairs`` keeps one value per pair, in
    descending order, shape ``(k, (m + 1) // 2)`` and 0 on the rank-deficient
    rows; a row's betas are its first ``n_betas`` pairs, those above
    ``QUASI_CLASSICAL_TOL``.  ``quasi`` is the quasi-classical verdict: no
    beta on a regular row, and ``max abs J_tilde < QUASI_CLASSICAL_TOL *
    max(1, max abs J_S)`` on the others, where no beta exists.
    """
    eigvals, eigvecs = np.linalg.eigh(j_s)
    largest = eigvals[..., -1]
    regular = ~((largest <= METRIC_SCALE_FLOOR) | (eigvals[..., 0] <= RANK_TOL * largest))
    pairs = np.zeros(j_s.shape[:1] + ((j_s.shape[-1] + 1) // 2,))
    if regular.any():
        vecs = eigvecs[regular]
        scale = np.zeros_like(vecs)
        diag = np.arange(scale.shape[-1])
        scale[:, diag, diag] = eigvals[regular] ** -0.5
        inv_sqrt = vecs @ scale @ np.swapaxes(vecs, -1, -2)
        k = inv_sqrt @ j_tilde[regular] @ inv_sqrt
        k = 0.5 * (k - np.swapaxes(k, -1, -2))
        pairs[regular] = np.linalg.svd(k, compute_uv=False)[:, 0::2]
    n_betas = np.count_nonzero(pairs > QUASI_CLASSICAL_TOL, axis=1)
    flat = (np.max(np.abs(j_tilde), axis=(-2, -1))
            < QUASI_CLASSICAL_TOL * np.maximum(1.0, np.max(np.abs(j_s), axis=(-2, -1))))
    return eigvals, eigvecs, regular, pairs, n_betas, np.where(regular, n_betas == 0, flat)


def _single(j_s, j_tilde):
    """``j_s``, ``j_tilde`` as float ``(m, m)`` arrays, the ``(1, (m + 1) //
    2)`` pairs of their :func:`_spectral_pass` and the row's beta count;
    :class:`RankDeficiencyError` when the metric is singular."""
    j_s = np.asarray(j_s, dtype=float)
    j_tilde = np.asarray(j_tilde, dtype=float)
    eigvals, eigvecs, regular, pairs, n_betas, _ = _spectral_pass(j_s[None], j_tilde[None])
    if not regular[0]:
        eigvals, eigvecs = eigvals[0], eigvecs[0]
        null = eigvals <= max(RANK_TOL * eigvals[-1], METRIC_SCALE_FLOOR)
        raise RankDeficiencyError(
            f"metric is singular: eigenvalues {eigvals.tolist()}",
            null_directions=eigvecs[:, null],
        )
    return j_s, j_tilde, pairs, n_betas[0]


def d_transform(j_s, j_tilde):
    """Metric-adjoint of the curvature: D = J_S^{-1} J_tilde.

    Returns ``(D, betas)`` with betas the pair magnitudes of the spectrum
    +-i beta_j above ``QUASI_CLASSICAL_TOL``, sorted descending.  The
    spectrum comes from the symmetrized J_S^{-1/2} J_tilde J_S^{-1/2},
    exactly antisymmetric in the metric frame, so the pairing is
    numerically guaranteed.  Raises :class:`RankDeficiencyError` when the
    metric is singular at relative tolerance ``RANK_TOL``.
    """
    j_s, j_tilde, pairs, n_betas = _single(j_s, j_tilde)
    return np.linalg.solve(j_s, j_tilde), pairs[0, :n_betas].tolist()


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


def _weight_matrix(weight):
    """The checked ``(m, m)`` array of a :class:`WeightMatrix`, or of a raw
    weight after the :class:`WeightMatrix` checks."""
    return (weight if isinstance(weight, WeightMatrix) else WeightMatrix(weight)).matrix


def _weighted_bounds(g, j_s, regular):
    """``Tr G J_S^{-1}`` over the ``regular`` rows of ``(k, m, m)`` stacks of
    weights and metrics, as a ``(k,)`` array: one ``solve``, none when no row
    is regular, and 0 on the other rows."""
    bounds = np.zeros(len(j_s))
    if regular.any():
        bounds[regular] = np.trace(np.linalg.solve(j_s[regular], g[regular]),
                                   axis1=-2, axis2=-1)
    return bounds


def sld_bound(weight, j_s):
    """Lower bound Tr G J_S^{-1} on the weighted estimation error; the
    rank verdict is that of :func:`d_transform`.  A raw ``weight`` passes
    the :class:`WeightMatrix` checks first."""
    g = _weight_matrix(weight)
    j_s = _single(j_s, np.zeros(np.shape(j_s)))[0]
    return _weighted_bounds(g[None], j_s[None], np.ones(1, dtype=bool)).item()


def _cr(m, pairs):
    """``CR(J_S)`` per row of the pairs of :func:`_spectral_pass`, as an
    array.

    Raises :class:`SpectralConsistencyError` at the first row, in order,
    with a beta above 1 beyond ``BETA_BOUND_TOL``.
    """
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
    j_s, _, pairs, _ = _single(j_s, j_tilde)
    return float(_cr(j_s.shape[0], pairs)[0])


def is_quasi_classical(j_tilde, j_s):
    """The verdict of :func:`_spectral_pass` on one row, as in ``analyze``:
    no beta left; at a singular metric, where none exists,
    ``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)``."""
    return bool(_spectral_pass(np.asarray(j_s, dtype=float)[None],
                               np.asarray(j_tilde, dtype=float)[None])[5][0])


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
        return _weighted_bounds(g[None], self.sld_fisher[None], np.ones(1, dtype=bool)).item()


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
    matrices are kept.  :func:`_spectral_pass` over all rows then gives
    ``regular``, the boolean row mask, ``pairs``, of which the first
    ``n_betas`` of a row are its betas, and ``quasi``, the quasi-classical
    verdict.  One ``solve`` over the regular rows gives ``d``, and ``cr`` is
    ``CR(J_S)`` from the pairs (:func:`_cr`).  ``j_s``, ``j_t`` and ``d`` are
    ``(k, m, m)``; ``d``, ``pairs`` and ``cr`` are 0 on the rank-deficient
    rows.  The bounds ``Tr G J_S^{-1}`` of these rows come from
    :func:`_weighted_bounds` on ``j_s`` and ``regular``.
    """
    m, root_w = model.m, np.sqrt(model.space.weight)
    # the lifts are scaled to coordinates in place: one block-sized temporary less
    grams = [_lift_grams(block, np.multiply(lifts, root_w, out=lifts))
             for block, _, lifts in model._lift_blocks(points)]
    j_s, j_t = _metric_and_curvature(np.concatenate(grams))
    _, _, regular, pairs, n_betas, quasi = _spectral_pass(j_s, j_t)
    d = np.zeros_like(j_s)
    if regular.any():
        # D before the beta check, so a rejected point costs the same calls
        d[regular] = np.linalg.solve(j_s[regular], j_t[regular])
    return j_s, j_t, regular, d, pairs, n_betas, np.where(regular, _cr(m, pairs), 0.0), quasi


def sld_bounds(reports, weights):
    """``Tr G J_S^{-1}`` of each report with its weight ``G``, one ``(m, m)``
    matrix per report, from :func:`_weighted_bounds`: one stacked ``solve``
    over the reports that :func:`_spectral_pass` found regular, and None on
    the rank-deficient ones.  Raw weights pass the :class:`WeightMatrix`
    checks first, as in :meth:`GeometryReport.sld_bound`."""
    g = np.array([_weight_matrix(w) for w in weights])
    regular = np.array([not rep.rank_deficient for rep in reports], dtype=bool)
    bounds = _weighted_bounds(g, np.array([rep.sld_fisher for rep in reports]), regular)
    return [b if ok else None for b, ok in zip(bounds.tolist(), regular.tolist())]
