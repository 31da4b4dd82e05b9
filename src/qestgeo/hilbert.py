"""Complex inner-product space core.

Two kinds of spaces are supported: finite labelled bases and uniform 1-d
grids that discretize square-integrable wave functions.  Grid inner
products use the rectangle rule with weight ``(upper - lower)/n`` on
periodic grids and ``(upper - lower)/(n - 1)`` on open ones; the rule is
exact for band-limited periodic states and spectrally accurate for
states that decay before the boundary.  Everything downstream works in
the orthonormal coordinates ``sqrt(weight) * amplitudes``, so operators
and measurements are ordinary matrices.

Conventions: hbar = 1 throughout; inner products are conjugate-linear in
the first argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonRealOverlapError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)

NORM_TOL = 1e-8
GRAM_SCHMIDT_TOL = 1e-8


@dataclass(frozen=True)
class BasisSpace:
    """Finite orthonormal basis, optionally labelled (e.g. spin magnetic
    numbers m = -S..S)."""

    dimension: int
    labels: tuple | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.dimension:
                raise ValueError("labels length must match dimension")

    @property
    def dim(self):
        return self.dimension

    @property
    def weight(self):
        return 1.0


@dataclass(frozen=True)
class GridSpace:
    """Uniform 1-d spatial grid standing in for L^2 on an interval.

    Open grids include both endpoints; periodic grids omit the upper one
    (it is identified with the lower).
    """

    n_points: int
    lower: float
    upper: float
    periodic: bool = False

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")

    @property
    def dim(self):
        return self.n_points

    @property
    def weight(self):
        span = self.upper - self.lower
        if self.periodic:
            return span / self.n_points
        return span / (self.n_points - 1)

    @property
    def points(self):
        return self.lower + self.weight * np.arange(self.n_points)


class StateVector:
    """Complex amplitude vector over a space.

    Instances are treated as immutable values.  Unit norm is an invariant
    of *states*; intermediate vectors (tangents, lifts) reuse the same
    container without it.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space, amplitudes, normalize=False):
        amp = np.array(amplitudes, dtype=complex, copy=True)
        if amp.shape != (space.dim,):
            raise SpaceMismatchError(
                f"amplitudes have shape {amp.shape}, space has dimension {space.dim}"
            )
        if normalize:
            nrm = np.sqrt(space.weight) * np.linalg.norm(amp)
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amp /= nrm
        self.space = space
        self.amplitudes = amp

    @property
    def coords(self):
        """Coordinates in the orthonormal basis induced by the quadrature."""
        return np.sqrt(self.space.weight) * self.amplitudes

    def norm(self):
        return float(np.sqrt(self.space.weight) * np.linalg.norm(self.amplitudes))

    def with_amplitudes(self, amplitudes):
        return StateVector(self.space, amplitudes)

    def __repr__(self):
        return f"StateVector(dim={self.space.dim}, norm={self.norm():.6g})"


def from_coords(space, coords):
    """Inverse of :attr:`StateVector.coords`."""
    return StateVector(space, np.asarray(coords, dtype=complex) / np.sqrt(space.weight))


def inner(u, v):
    """Quadrature inner product ``sum_k w_k conj(u_k) v_k``.

    Conjugate-symmetric and linear in ``v``.  Raises
    :class:`SpaceMismatchError` when the two vectors live on different
    spaces.
    """
    if u.space != v.space:
        raise SpaceMismatchError(f"spaces differ: {u.space} vs {v.space}")
    return complex(u.space.weight * np.vdot(u.amplitudes, v.amplitudes))


def assert_normalized(state):
    drift = abs(state.norm() - 1.0)
    if drift >= NORM_TOL:
        raise ValueError(f"state norm drifts from 1 by {drift:.3e} (tol {NORM_TOL:.1e})")


def overlap_matrix(vectors):
    """``G[a, b] = <v_a|v_b>`` of vectors on one space: :func:`inner` on and
    above the diagonal, conjugates below."""
    k = len(vectors)
    g = np.empty((k, k), dtype=complex)
    for a, u in enumerate(vectors):
        if u.space != vectors[0].space:
            raise SpaceMismatchError(f"vector {a} lives on a different space")
        for b in range(a, k):
            g[a, b] = u.space.weight * np.vdot(u.amplitudes, vectors[b].amplitudes)
            g[b, a] = np.conj(g[a, b])
    return g


def gram_schmidt_real(vectors):
    """Orthonormalize vectors whose pairwise overlaps are real.

    Returns an orthonormal list spanning the same subspace over the
    reals, so every input has real coefficients in the output basis.
    Inputs linearly dependent on their predecessors (residual below
    ``GRAM_SCHMIDT_TOL`` times the largest input norm) are skipped silently.

    Raises
    ------
    NonRealOverlapError
        If the inputs fail the quasi-parallel verdict of
        :func:`holonomy.quasi_parallel_states`, the hypothesis under which
        real coefficients are guaranteed; the exception carries the first
        failing index pair and the imaginary part of its overlap.
    """
    from . import holonomy  # call time: holonomy imports this module

    vecs = list(vectors)
    if not vecs:
        return []
    g = overlap_matrix(vecs)
    failing = np.argwhere(~(holonomy.pair_ratios(g) < holonomy.QUASI_PARALLEL_TOL))
    if failing.size:
        a, b = (int(i) for i in failing[0])
        raise NonRealOverlapError(
            f"overlap of inputs {a} and {b} has Im = {g[a, b].imag:.3e}",
            pair=(a, b), imag=float(g[a, b].imag))
    space = vecs[0].space
    w = space.weight
    skip_scale = max(v.norm() for v in vecs)
    basis = []
    for v in vecs:
        resid = v.amplitudes.copy()
        # two orthogonalization passes: classic fix for near-dependent inputs
        for _ in range(2):
            for e in basis:
                resid -= complex(w * np.vdot(e, resid)) * e
        rnorm = float(np.sqrt(w) * np.linalg.norm(resid))
        if rnorm < GRAM_SCHMIDT_TOL * skip_scale:
            continue
        basis.append(resid / rnorm)
    return [StateVector(space, e) for e in basis]


def conjugation_residuals(basis, states):
    """Displacement of each state under conjugation in a real basis.

    ``basis`` is an orthonormal family with coordinate matrix ``U`` (k
    columns), typically the output of :func:`gram_schmidt_real`.  For a
    state with coordinates ``c`` let ``a = U^dagger c`` be its
    coefficients and ``r = c - U a`` its part outside the span.  The
    returned displacement is

        2 * sqrt(||Im a||^2 + ||r||^2)

    at O(n k) cost.  Conjugation in a full basis ``[U, C]`` moves the
    state by ``2 ||Im (a, C^dagger r)||``; the complement ``C`` enters
    only through ``Im C^dagger r``, whose norm is at most ``||r||`` and
    reaches it when ``C`` starts with ``i r / ||r||``.  So the value is
    the largest displacement over all completions of ``U``: it does not
    depend on which complement a dense construction happens to pick, and
    it equals the dense ``conjugation_in_basis(complete_basis(basis))``
    displacement whenever ``r = 0``.  Returns an array with one entry per
    state.
    """
    space = basis[0].space
    for k, s in enumerate(states):
        if s.space != space:
            raise SpaceMismatchError(f"state {k} lives on a different space")
    u = np.column_stack([b.coords for b in basis])
    c = np.column_stack([s.coords for s in states])
    a = u.conj().T @ c
    r = c - u @ a
    return 2.0 * np.sqrt(np.sum(a.imag ** 2, axis=0) + np.sum(np.abs(r) ** 2, axis=0))


def complete_basis(vectors):
    """Extend an orthonormal family to a full orthonormal basis.

    The input vectors are kept verbatim as the leading basis members;
    the complement is an eigenbasis of the orthogonal projector, so no
    spurious phases touch the given vectors.

    Dense oracle for small dimensions: it builds and diagonalizes an
    ``n x n`` projector, O(n^3).  No CLI path uses it;
    :func:`conjugation_residuals` measures invariance without a
    complement.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    space = vectors[0].space
    d = space.dim
    u = np.column_stack([v.coords for v in vectors])
    proj_perp = np.eye(d, dtype=complex) - u @ u.conj().T
    eigvals, eigvecs = np.linalg.eigh(proj_perp)
    comp = eigvecs[:, eigvals > 0.5]
    out = list(vectors)
    out.extend(from_coords(space, comp[:, k]) for k in range(comp.shape[1]))
    return out


def momentum_space(space):
    """Momentum-side grid conjugate to a position grid."""
    if not isinstance(space, GridSpace):
        raise UnsupportedSpaceError("momentum transform needs a grid space")
    n = space.n_points
    dx = space.weight
    dp = 2.0 * np.pi / (n * dx)
    p0 = -(n // 2) * dp
    return GridSpace(n, p0, p0 + n * dp, periodic=True)


def momentum_transform(state):
    """Unitary discrete realization of ``(2 pi)^{-1/2} int psi(x) e^{-ipx} dx``.

    The momentum grid spans ``[-pi/dx, pi/dx)``; the continuum Fourier
    pair is reproduced for states negligible at the grid boundary, and
    the transform is exactly norm-preserving regardless.  Boundary
    leakage (states not supported well inside the grid) is the caller's
    responsibility.
    """
    space = state.space
    pspace = momentum_space(space)
    n = space.n_points
    dx = space.weight
    k = np.arange(n)
    # phase factors absorb the grid offsets so that plain FFT applies
    g = state.amplitudes * np.exp(2j * np.pi * (n // 2) * k / n)
    f = np.fft.fft(g)
    phase = np.exp(-1j * pspace.points * space.lower)
    return StateVector(pspace, dx / np.sqrt(2.0 * np.pi) * phase * f)


def inverse_momentum_transform(state, position_space):
    """Inverse of :func:`momentum_transform` onto the given position grid."""
    if not isinstance(position_space, GridSpace):
        raise UnsupportedSpaceError("target of the inverse transform must be a grid")
    pspace = state.space
    if not isinstance(pspace, GridSpace):
        raise UnsupportedSpaceError("inverse transform needs a momentum grid state")
    n = position_space.n_points
    if pspace.n_points != n:
        raise SpaceMismatchError("momentum and position grids must share n_points")
    dp = pspace.weight
    k = np.arange(n)
    h = state.amplitudes * np.exp(1j * pspace.points * position_space.lower)
    f = n * np.fft.ifft(h)
    phase = np.exp(-2j * np.pi * (n // 2) * k / n)
    return StateVector(position_space, dp / np.sqrt(2.0 * np.pi) * phase * f)


def projector(state):
    """Rank-1 density matrix ``|phi><phi|`` in orthonormal coordinates."""
    assert_normalized(state)
    c = state.coords
    return np.outer(c, c.conj())
