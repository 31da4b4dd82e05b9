"""Antiunitary operators and motion-reversal symmetry checks.

An antiunitary map is conjugation in some orthonormal basis followed by
a unitary; here it is stored through its unitary part V, acting as
v -> V conj(v) in orthonormal coordinates.  Conjugation in a basis B is
the special case V = U U^T with U the basis matrix.  Motion reversal on
grid states conjugates in position space; its generalization flips the
momentum with an extra momentum-dependent phase.
"""

from __future__ import annotations

import numpy as np

from . import hilbert, holonomy
from .errors import AnchorError, UnsupportedSpaceError

SPECTRAL_ZERO_TOL = 1e-10
INVARIANCE_TOL = 1e-6  # = cli.CONJUGATION_RESIDUAL_TOL: one displacement bound
UNITARY_TOL = 1e-8


class AntiunitaryOp:
    """Map v -> V conj(v) (coordinates); V must be unitary.

    ``post_phase`` records the momentum phase of a generalized reversal.
    """

    def __init__(self, unitary_part, space, post_phase=None):
        v = np.asarray(unitary_part, dtype=complex)
        d = space.dim
        if v.shape != (d, d):
            raise ValueError(f"unitary part must be {d}x{d}")
        if np.max(np.abs(v.conj().T @ v - np.eye(d))) > UNITARY_TOL:
            raise ValueError(f"unitary part is not unitary within {UNITARY_TOL:.0e}")
        self.unitary_part = v
        self.space = space
        self.post_phase = post_phase

    def apply(self, state):
        if state.space != self.space:
            raise UnsupportedSpaceError("state lives on a different space")
        return hilbert.from_coords(self.space, self.unitary_part @ np.conj(state.coords))

    __call__ = apply


def conjugation_in_basis(basis):
    """Antiunitary fixing exactly the real span of a full orthonormal basis.

    Acts as coefficient conjugation in the given basis.  A partial
    orthonormal family can be extended first with
    :func:`hilbert.complete_basis`.

    Dense oracle for small dimensions: the operator is ``n x n``.  No CLI
    path uses it; :func:`hilbert.conjugation_residuals` gives the
    displacement of sample states in O(n k).
    """
    if not basis:
        raise ValueError("need a basis")
    space = hilbert.common_space(basis)
    u = np.column_stack([b.coords for b in basis])
    if u.shape[1] != space.dim:
        raise ValueError(
            f"basis has {u.shape[1]} vectors, space dimension is {space.dim}; "
            "complete it first"
        )
    gram = u.conj().T @ u
    if np.max(np.abs(gram - np.eye(space.dim))) > UNITARY_TOL:
        raise ValueError(f"basis is not orthonormal within {UNITARY_TOL:.0e}")
    return AntiunitaryOp(u @ u.T, space)


def time_reversal(state):
    """Pointwise conjugation of a grid wave function; an involution."""
    if not isinstance(state.space, hilbert.GridSpace):
        raise UnsupportedSpaceError("time reversal acts on grid states")
    return state.with_amplitudes(np.conj(state.amplitudes))


def _reverse_momentum(amplitudes):
    # index j -> -j on the FFT momentum grid; the unpaired Nyquist mode
    # (even n) maps to itself and is untouched
    n = len(amplitudes)
    idx = (-np.arange(n)) % n
    return amplitudes[idx]


def generalized_time_reversal(alpha, state):
    """Momentum reversal with phase: e^{ipx} -> e^{i alpha(p)} e^{-ipx}.

    ``alpha`` is a real function of momentum (or an array on the
    momentum grid).  Implemented through the momentum transform:
    conjugate, reverse the momentum axis, apply the phase, transform
    back.  Antiunitary by construction.
    """
    if not isinstance(state.space, hilbert.GridSpace):
        raise UnsupportedSpaceError("generalized time reversal acts on grid states")
    mom = hilbert.momentum_transform(state)
    p = mom.space.points
    phase = np.exp(1j * (alpha(p) if callable(alpha) else np.asarray(alpha, float)))
    reversed_amp = _reverse_momentum(np.conj(mom.amplitudes))
    flipped = mom.with_amplitudes(phase * reversed_amp)
    return hilbert.inverse_momentum_transform(flipped, state.space)


def motion_reversal_op(space, alpha=None):
    """Generalized time reversal as a dense antiunitary operator.

    Materializing the map is O(n^2) in grid points; the function form
    :func:`generalized_time_reversal` stays the cheap path for single
    states.  ``alpha=None`` gives plain time reversal.

    Dense oracle for small dimensions; no CLI path uses it.
    """
    if not isinstance(space, hilbert.GridSpace):
        raise UnsupportedSpaceError("motion reversal acts on grid spaces")
    n = space.dim
    if alpha is None:
        def alpha(p):
            return np.zeros_like(p)
    cols = np.empty((n, n), dtype=complex)
    for k in range(n):
        unit = np.zeros(n, dtype=complex)
        unit[k] = 1.0
        # real coordinate unit vector: its image is the k-th column of
        # the unitary part
        cols[:, k] = generalized_time_reversal(
            alpha, hilbert.from_coords(space, unit)
        ).coords
    return AntiunitaryOp(cols, space, post_phase=alpha)


def matched_reversal_phase(state):
    """Phase alpha(p) = beta(p) + beta(-p) built from the state's own spectrum.

    With e^{i beta(p)} the phase of the momentum amplitude, the returned
    alpha makes :func:`generalized_time_reversal` fix the state whenever
    its momentum density is symmetric.  Spectral amplitudes below
    ``SPECTRAL_ZERO_TOL`` leave beta undefined and contribute zero phase.
    """
    mom = hilbert.momentum_transform(state)
    amp = mom.amplitudes
    beta = np.where(np.abs(amp) > SPECTRAL_ZERO_TOL, np.angle(amp), 0.0)
    return beta + _reverse_momentum(beta)


def momentum_symmetry_check(state):
    """Is the momentum density symmetric under p -> -p?

    Returns ``(flag, max_asymmetry)``, the asymmetry relative to the
    density peak and ``max_asymmetry < holonomy.QUASI_PARALLEL_TOL``.  The
    flag holds exactly when some generalized reversal fixes the wave
    function, which holds exactly when the position-shift family built on
    it has real pairwise overlaps as given (``is_quasi_parallel`` with
    ``align=False``, on the same tolerance); for base functions with
    ``<psi|psi'> = 0`` that is the same as the aligned quasi-parallel test.
    """
    if not isinstance(state.space, hilbert.GridSpace):
        raise UnsupportedSpaceError("momentum symmetry check needs a grid state")
    mom = hilbert.momentum_transform(state)
    dens = np.abs(mom.amplitudes) ** 2
    asym = float(np.max(np.abs(dens - _reverse_momentum(dens))) / np.max(dens))
    return bool(asym < holonomy.QUASI_PARALLEL_TOL), asym


def is_invariant(op, states):
    """True when the operator moves no state by ``INVARIANCE_TOL`` or more,
    the bound that ``check`` puts on its O(n k) conjugation residual.

    The states are first phase-aligned with the shared anchor procedure,
    because invariance of a lift family is a statement about one concrete
    phase gauge.  A family with no valid anchor (mutually orthogonal
    vectors) is tested as given.
    """
    states = list(states)
    if len(states) > 1:
        try:
            states, _ = holonomy.align_phases(states)
        except AnchorError:
            pass
    for s in states:
        delta = op.apply(s).amplitudes - s.amplitudes
        if np.sqrt(s.space.weight) * np.linalg.norm(delta) >= INVARIANCE_TOL:
            return False
    return True
