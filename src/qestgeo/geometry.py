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

RANK_TOL = 1e-10
METRIC_SCALE_FLOOR = 1e-12
BETA_BOUND_TOL = 1e-6
QUASI_CLASSICAL_TOL = 1e-8
WEIGHT_TOL = 1e-12


def _is_singular(eigvals):
    # relative rank test, with an absolute floor so the all-zero metric
    # (pure-gauge directions) is caught as well
    largest = float(eigvals[-1])
    return largest <= METRIC_SCALE_FLOOR or eigvals[0] <= RANK_TOL * largest


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
        if np.max(np.abs(g - g.T)) > WEIGHT_TOL:
            raise ValueError(f"weight must be symmetric within {WEIGHT_TOL:.0e}")
        if np.min(np.linalg.eigvalsh(g)) < -WEIGHT_TOL:
            raise ValueError("weight must be positive semidefinite")
        g.setflags(write=False)
        object.__setattr__(self, "matrix", g)


def _gram(lift):
    vecs = [l.coords for l in lift.lifts]
    m = len(vecs)
    g = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(a, m):
            g[a, b] = np.vdot(vecs[a], vecs[b])
            g[b, a] = np.conj(g[a, b])
    return g


def _metric_and_curvature(gram):
    re, im = gram.real, gram.imag
    return 0.5 * (re + re.T), 0.5 * (im - im.T)


def sld_fisher(lift):
    """Real part of the lift Gram matrix; symmetric PSD."""
    return _metric_and_curvature(_gram(lift))[0]


def berry_curvature(lift):
    """Imaginary part of the lift Gram matrix; antisymmetric."""
    return _metric_and_curvature(_gram(lift))[1]


def _beta_spectrum(j_s, j_tilde):
    """Singular values of the metric-whitened curvature, one per pair.

    One ``eigh`` of J_S serves both the rank test and J_S^{-1/2}, and one
    SVD of the whitened curvature gives the betas above
    ``QUASI_CLASSICAL_TOL``.  Raises :class:`RankDeficiencyError` before
    the SVD when the metric is singular.
    """
    eigvals, eigvecs = np.linalg.eigh(j_s)
    if _is_singular(eigvals):
        null = eigvals <= max(RANK_TOL * eigvals[-1], METRIC_SCALE_FLOOR)
        raise RankDeficiencyError(
            f"metric is singular: eigenvalues {eigvals.tolist()}",
            null_directions=eigvecs[:, null],
        )
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
    k = inv_sqrt @ j_tilde @ inv_sqrt
    k = 0.5 * (k - k.T)
    svals = np.linalg.svd(k, compute_uv=False)
    # antisymmetric real: singular values pair up as (b, b); keep one of each
    return [float(b) for b in svals[0::2] if b > QUASI_CLASSICAL_TOL]


def d_transform(j_s, j_tilde):
    """Metric-adjoint of the curvature: D = J_S^{-1} J_tilde.

    Returns ``(D, betas)`` with betas the pair magnitudes of the spectrum
    +-i beta_j above ``QUASI_CLASSICAL_TOL``, sorted descending.  The
    spectrum comes from the symmetrized J_S^{-1/2} J_tilde J_S^{-1/2},
    exactly antisymmetric in the metric frame, so the pairing is
    numerically guaranteed.  Raises :class:`RankDeficiencyError` when the
    metric is singular at relative tolerance ``RANK_TOL``.
    """
    j_s = np.asarray(j_s, dtype=float)
    j_tilde = np.asarray(j_tilde, dtype=float)
    betas = _beta_spectrum(j_s, j_tilde)
    d = np.linalg.solve(j_s, j_tilde)
    return d, betas


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


def _weighted_trace(weight, j_s):
    g = weight.matrix if isinstance(weight, WeightMatrix) else np.asarray(weight, float)
    return float(np.trace(np.linalg.solve(j_s, g)))


def sld_bound(weight, j_s):
    """Lower bound Tr G J_S^{-1} on the weighted estimation error."""
    j_s = np.asarray(j_s, dtype=float)
    eigvals = np.linalg.eigvalsh(j_s)
    if _is_singular(eigvals):
        raise RankDeficiencyError(
            f"metric is singular: eigenvalues {eigvals.tolist()}"
        )
    return _weighted_trace(weight, j_s)


def _cr_from_betas(m, betas):
    for b in betas:
        if b > 1.0 + BETA_BOUND_TOL:
            raise SpectralConsistencyError(
                f"beta = {b:.8f} exceeds 1 beyond tolerance {BETA_BOUND_TOL:.0e}; "
                "the inputs are not the metric and curvature of a pure-state family"
            )
    clamped = [min(b, 1.0) for b in betas]
    paired = sum(4.0 / (1.0 + np.sqrt(1.0 - b * b)) for b in clamped)
    unpaired = m - 2 * len(clamped)
    return float(paired + unpaired)


def attainable_cr_js(j_s, j_tilde):
    """Attainable error bound at weight G = J_S.

    Each curvature pair beta_j contributes 4 / (1 + sqrt(1 - beta_j^2));
    directions outside any pair contribute 1, the classical value, which
    is also the beta -> 0 limit of half a pair.  The total is >= m with
    equality exactly when the curvature vanishes.
    """
    j_s = np.asarray(j_s, dtype=float)
    betas = _beta_spectrum(j_s, np.asarray(j_tilde, dtype=float))
    return _cr_from_betas(j_s.shape[0], betas)


def _curvature_below_scale(j_tilde, j_s):
    scale = max(1.0, float(np.max(np.abs(j_s))))
    return bool(np.max(np.abs(j_tilde)) < QUASI_CLASSICAL_TOL * scale)


def is_quasi_classical(j_tilde, j_s):
    """No beta left, as in ``analyze``; at a singular metric, where none
    exists, ``max abs J_tilde < QUASI_CLASSICAL_TOL * max(1, max abs J_S)``."""
    try:
        return not _beta_spectrum(np.asarray(j_s, float), np.asarray(j_tilde, float))
    except RankDeficiencyError:
        return _curvature_below_scale(j_tilde, j_s)


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
        """Tr G J_S^{-1}; raises on a rank-deficient metric."""
        if self.rank_deficient:
            raise RankDeficiencyError(
                f"metric is singular at theta {self.theta.tolist()}"
            )
        return _weighted_trace(weight, self.sld_fisher)


def analyze(model, theta):
    """Geometry report of ``model`` at ``theta``.

    Rank deficiency of the metric is reported as a flag here; only the
    bound computations (``sld_bound``, ``cr_js``) treat it as an error,
    so the corresponding fields come back as None.  ``quasi_classical`` is
    the verdict of :func:`is_quasi_classical`, from the same spectral pass.
    """
    lift = model.horizontal_lift(theta)
    j_s, j_t = _metric_and_curvature(_gram(lift))
    # one eigh, one SVD and one solve per point: d_transform shares its
    # spectral pass with the bound and reports a singular metric by raising
    # right after the eigh
    try:
        d_matrix, beta_list = d_transform(j_s, j_t)
    except RankDeficiencyError:
        d_matrix, betas, cr, deficient = None, (), None, True
    else:
        betas = tuple(beta_list)
        cr = _cr_from_betas(j_s.shape[0], beta_list)
        deficient = False
    return GeometryReport(
        theta=lift.theta,
        sld_fisher=j_s,
        berry_curvature=j_t,
        d_matrix=d_matrix,
        betas=betas,
        cr_js=cr,
        quasi_classical=_curvature_below_scale(j_t, j_s) if deficient else not betas,
        rank_deficient=deficient,
    )
