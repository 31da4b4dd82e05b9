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
        if not np.isfinite(self.upper - self.lower):
            raise ValueError(f"upper - lower must be finite, got {self.upper - self.lower}")

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
            _scale(amp, nrm)
        self.space = space
        self.amplitudes = amp

    @classmethod
    def _adopt(cls, space, amplitudes):
        """A vector over ``amplitudes`` itself: a complex ``(dim,)`` array,
        fresh from the caller and written by no one else, so neither copied
        nor checked."""
        vec = cls.__new__(cls)
        vec.space, vec.amplitudes = space, amplitudes
        return vec

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
    return StateVector(space, _scale(np.array(coords, dtype=complex), np.sqrt(space.weight)))


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


def common_space(vectors, space=None):
    """The space of every vector of ``vectors``: ``space``, by default the
    first vector's; :class:`SpaceMismatchError` names the first vector on
    another space."""
    space = vectors[0].space if space is None else space
    for k, v in enumerate(vectors):
        if v.space != space:
            raise SpaceMismatchError(f"vector {k} lives on a different space")
    return space


def _dots(a, b):
    """``<a|b>`` over the last axis, broadcast over the others: each one the
    BLAS dot ``np.vdot`` takes, so a row does not depend on its batch."""
    return _bra_dots(np.conj(a), b)


def _bra_dots(bra, b):
    """:func:`_dots` of the state whose conjugate is ``bra``."""
    return (bra[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(amps):
    """``np.linalg.norm`` over the last axis, broadcast over the others:
    ``sqrt(re.re + im.im)``, each dot the ``(1, dim) @ (dim, 1)`` matmul
    ``np.linalg.norm`` takes, so a row does not depend on its batch."""
    re, im = amps.real[..., None, :], amps.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _scale(amps, divisor, out=None):
    """``amps / divisor`` of complex rows ``(..., dim)``, last axis contiguous,
    by reals ``divisor`` broadcast over the rows, written into ``out``
    (``amps`` itself when None) and returned: the float view times
    ``1.0 / divisor``.  numpy divides by ``d + 0j`` as ``(re + im 0) (1 / d)``
    in its scalar complex loop, so on an element whose two parts are finite
    the bits are its own, except that an exactly zero part keeps its sign.
    A part next to an infinite or NaN one is scaled on its own here, where
    numpy's ``im 0`` makes it NaN."""
    out = amps if out is None else out
    np.multiply(amps.view(float), (1.0 / np.asarray(divisor))[..., None], out=out.view(float))
    return out


def _gram(x):
    """``G[..., a, b] = <x_a|x_b>`` of rows ``(..., m, dim)``: row ``a`` on and
    above the diagonal from one :func:`_bra_dots` call, the conjugates below,
    so ``G`` is exactly Hermitian and a family does not depend on its batch."""
    m = x.shape[-2]
    g = np.empty(x.shape[:-1] + (m,), dtype=complex)
    for a in range(m):
        g[..., a, a:] = _bra_dots(np.conj(x[..., a, None, :]), x[..., a:, :])
        g[..., a + 1:, a] = np.conj(g[..., a, a + 1:])
    return g


def overlap_matrix(vectors):
    """``G[a, b] = <v_a|v_b>`` of vectors on one space, each entry on and
    above the diagonal bitwise :func:`inner`, the conjugates below."""
    if not vectors:
        return np.empty((0, 0), dtype=complex)
    return common_space(vectors).weight * _gram(np.array([v.amplitudes for v in vectors]))


def gram_schmidt_real(vectors, gram=None):
    """Orthonormalize vectors whose pairwise overlaps are real.

    Returns an orthonormal list spanning the same subspace over the
    reals, so every input has real coefficients in the output basis.
    Inputs linearly dependent on their predecessors (residual below
    ``GRAM_SCHMIDT_TOL`` times the largest input norm) are skipped silently.
    Each input takes two passes, the classic fix for near-dependent inputs,
    except one whose first-pass residual is already below ``1 - 1e-9`` of
    the threshold: it is dropped without the second pass, which only removes
    components, so its norm cannot climb back by more than rounding.  The
    kept vectors are the first rows of one new ``(k, dim)`` array.
    ``gram`` is the :func:`overlap_matrix` of the inputs when the caller
    has built it, or that matrix of the inputs before a phase alignment,
    rotated by the phases (``conj(u_a) u_b G[a, b]``), which only the
    verdict below reads.

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
    gram = overlap_matrix(vecs) if gram is None else gram
    failing = np.argwhere(~(holonomy.pair_ratios(gram) < holonomy.QUASI_PARALLEL_TOL))
    if failing.size:
        a, b = (int(i) for i in failing[0])
        raise NonRealOverlapError(
            f"overlap of inputs {a} and {b} has Im = {gram[a, b].imag:.3e}",
            pair=(a, b), imag=float(gram[a, b].imag))
    space = common_space(vecs)
    weight, root_w = space.weight, np.sqrt(space.weight)
    skip = GRAM_SCHMIDT_TOL * max(v.norm() for v in vecs)
    basis = np.empty((len(vecs), space.dim), dtype=complex)
    kept = 0
    for v in vecs:
        resid = basis[kept]
        resid[...] = v.amplitudes
        for threshold in ((1.0 - 1e-9) * skip, skip):
            for e in basis[:kept]:
                resid -= complex(weight * np.vdot(e, resid)) * e
            rnorm = float(root_w * np.linalg.norm(resid))
            if rnorm < threshold:
                break
        else:
            _scale(resid, rnorm)
            kept += 1
    return [StateVector._adopt(space, e) for e in basis[:kept]]


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
    space = common_space(states, common_space(basis))
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
    space = common_space(vectors)
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
