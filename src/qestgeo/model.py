"""Parametrized pure-state families and their horizontal lifts.

A model maps a parameter point to a unit state vector; derivatives come
either from user-supplied closed forms or from central differences.  The
horizontal lift of the i-th coordinate direction is

    l_i = 2 d_i phi - 2 <phi | d_i phi> phi,

which is orthogonal to phi and reproduces the projector derivative.  The
module also carries the catalog of concrete example families (shifted
wave packets, spin rotations, a two-well profile with a phase step, a
ring threaded by flux, and the full spin-1/2 ray family).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, ModelDefinitionError, SpaceMismatchError
from .hilbert import BasisSpace, GridSpace, StateVector, _bra_dots, _dots, _norms  # noqa: F401

NORM_DRIFT_TOL = 1e-6
DEFAULT_FD_STEP = 1e-4
# amplitudes per block of states and per formula call (rows times
# tile width): a grid finer than this takes one row a block, cut into column
# tiles, and a finite-difference stencil of 1 + 2m rows narrower tiles, so
# the formula's temporaries stay at 256 kB each; a tile's linear phases come
# from the two-level table of _affine_phases, bitwise whatever the tile.  At
# n = 65536 the per-row BLAS dots can stall for milliseconds on small hosts
# when OPENBLAS_NUM_THREADS is unset (README, numerical notes)
EVALUATE_BLOCK = 1 << 14


@dataclass(frozen=True)
class HorizontalLift:
    """States and lift vectors at one parameter point."""

    theta: np.ndarray
    phi: StateVector
    lifts: tuple

    @property
    def m(self):
        return len(self.lifts)


@dataclass(frozen=True)
class PureStateModel:
    """Family theta -> |phi(theta)> over a box domain in R^m.

    ``evaluate_fn`` must return amplitudes already normalized up to a
    drift below 1e-6 (catalog constructors cache their normalization
    constants to guarantee this).  ``tangent_fn(theta, i)``, when given,
    returns the closed-form derivative amplitudes; otherwise central
    differences with per-component step ``fd_step * max(1, |theta_i|)`` are
    used, of neighbours rephased onto the state: each point followed by its
    neighbours, evaluated by the pass that evaluates states (:meth:`_states`)
    and differenced in place (:meth:`_stencil`).  Each function is called on
    one ``(m,)`` point at a time, or on blocks of a ``(k, m)`` array when
    marked :func:`broadcasting`.  Both must fix a state's phase the same way
    on every call, or ``J_S`` and ``J~`` come out wrong without an error: a
    solver that returns an arbitrary phase per call belongs with
    ``tangent_fn=None``, whose differences rephase each neighbour onto the state.

    The model reads every state and tangent through one formula
    ``fn(theta, cols, components)`` (:attr:`_formula`), called on rows and
    column tiles (:meth:`_tiles`): evaluation asks it for the states alone,
    the horizontal lift for the states and all ``m`` tangents in one call,
    finite differences for the states of whole stencils.  When the two
    fields are the faces of one :class:`_Formula` (every catalog family
    and a tabulated table, built by :meth:`_Formula.model`), or
    ``evaluate_fn`` is one and ``tangent_fn`` is None, that formula is
    called itself, a tile of at most ``EVALUATE_BLOCK`` amplitudes at a
    time; otherwise :meth:`_adapter` calls the fields as given, over whole
    rows.  A replaced or wrapped field thus breaks the pair.
    """

    space: object
    m: int
    domain: tuple
    evaluate_fn: object
    tangent_fn: object = None
    fd_step: float = DEFAULT_FD_STEP
    kind: str = "custom"
    sample_grid: tuple = ()

    def _points(self, thetas):
        """``thetas`` as a float array of shape ``(k, m)`` inside the domain;
        :class:`DomainError` naming the first bad row otherwise."""
        arr = _theta_array(thetas, self.m)
        if arr.shape[1:] != (self.m,):
            raise DomainError(f"theta has shape {arr.shape[1:]}, model expects ({self.m},)")
        lo, hi = self._bounds
        inside = (lo <= arr) & (arr <= hi)
        if np.count_nonzero(inside) != inside.size:  # not .all(): slow on one row
            row = arr[np.flatnonzero(~inside.all(axis=1))[0]]
            raise DomainError(f"theta {row.tolist()} outside domain {self.domain}")
        return arr

    @cached_property
    def _bounds(self):
        """The domain's ends as arrays, an infinite end replaced by the
        largest float: a non-finite component then lies outside every
        domain, unbounded ones too."""
        lo, hi = np.asarray(self.domain, dtype=float).T
        big = np.finfo(float).max
        return np.maximum(lo, -big), np.minimum(hi, big)

    def _states(self, points, group=1):
        """Normalized ``(k, dim)`` amplitudes at checked ``points``, from the
        formula on :meth:`_block_rows` rows a call, whole groups of ``group``
        rows such as stencils (:meth:`_formula_block`), checked for drift.
        Each norm is the one ``np.linalg.norm`` takes of its row alone
        (:func:`_norms`).
        """
        out = np.empty((len(points), self.space.dim), dtype=complex)
        rows = self._block_rows(group)
        for start in range(0, len(points), rows):
            block = points[start:start + rows]
            dest = out[start:start + len(block)]
            amps = self._formula_block(block, (), dest)[0]
            np.divide(amps, self._unit_norms(block, amps)[:, None], out=dest)
        return out

    def _unit_norms(self, points, amps):
        """The norms of the states ``amps`` ``(..., dim)`` at ``points``;
        :class:`ModelDefinitionError` at the first that drifts from 1."""
        nrm = math.sqrt(self.space.weight) * _norms(amps)
        drift = np.abs(nrm - 1.0)
        ok = drift < NORM_DRIFT_TOL  # a NaN drift fails too
        if np.count_nonzero(ok) != ok.size:
            k = np.flatnonzero(~ok)[0]
            raise ModelDefinitionError(
                f"norm drift {drift.flat[k]:.3e} at theta "
                f"{points.reshape(-1, self.m)[k].tolist()} "
                f"(limit {NORM_DRIFT_TOL:.0e}); check grid truncation"
            )
        return nrm

    @cached_property
    def _formula(self):
        """The model's one formula ``fn(theta, cols, components)``: the
        :class:`_Formula` whose face ``evaluate_fn`` is, when
        ``tangent_fn`` is its other face or None, else :meth:`_adapter`."""
        formula = getattr(self.evaluate_fn, "__self__", None)
        if isinstance(formula, _Formula) and self.tangent_fn in (None, formula.tangent):
            return formula
        return self._adapter

    def _adapter(self, theta, cols, components):
        """The formula of fields that are not one formula's faces:
        ``evaluate_fn`` and, for non-empty ``components``, ``tangent_fn`` in
        each of them, called as given (:meth:`_called`) over whole rows, so
        ``cols`` is always all of them (:meth:`_tiles`)."""
        return (self._called(self.evaluate_fn, theta, [()])[:, 0],
                self._called(self.tangent_fn, theta, [(i,) for i in components])
                if components else None)

    def _called(self, fn, theta, args):
        """``fn(theta, *a)`` for each ``a`` in ``args``, ``(k, len(args), dim)``.

        A :func:`broadcasting` ``fn`` takes all ``k`` rows a call, an
        unmarked one a row a call, with each ``a`` in turn.  Amplitudes of
        another shape than the space's raise :class:`SpaceMismatchError`.
        """
        out = np.empty((len(theta), len(args), self.space.dim), dtype=complex)
        if getattr(fn, "broadcasts", False):
            calls = [(out[:, j], theta, a) for j, a in enumerate(args)]
        else:
            calls = [(out[r, j], point, a) for r, point in enumerate(theta)
                     for j, a in enumerate(args)]
        for dest, at, a in calls:
            amps = np.asarray(fn(at, *a))
            if amps.shape != dest.shape:
                raise SpaceMismatchError(f"amplitudes have shape {amps.shape[dest.ndim - 1:]}, "
                                         f"space has dimension {dest.shape[-1]}")
            dest[...] = amps
        return out

    def _tiles(self, rows):
        """Column slices of the formula's calls on ``rows`` rows: at most
        ``EVALUATE_BLOCK`` amplitudes a call for a :class:`_Formula`, whole
        rows for the adapter."""
        dim = self.space.dim
        width = (max(1, min(dim, EVALUATE_BLOCK // rows))
                 if isinstance(self._formula, _Formula) else dim)
        return [slice(start, start + width) for start in range(0, dim, width)]

    def _formula_block(self, block, components, states=None):
        """``(states, tangents)`` of the formula at ``block``, unnormalized,
        one call per column tile: ``(k, dim)`` and, for non-empty
        ``components``, ``(k, len(components), dim)``.

        One tile gives the formula's own arrays; more are put together in
        ``states`` (a new array when None) and a new tangent array.
        """
        tiles = self._tiles(len(block))
        if len(tiles) == 1:
            return self._formula(block, tiles[0], components)
        shape = (len(block), self.space.dim)
        states = np.empty(shape, dtype=complex) if states is None else states
        tangents = (np.empty((shape[0], len(components), shape[1]), dtype=complex)
                    if components else None)
        for tile in tiles:
            states[:, tile], part = self._formula(block, tile, components)
            if components:
                tangents[..., tile] = part
            del part  # not alive while the next tile is evaluated
        return states, tangents

    def _block_rows(self, group=1):
        """Rows per block: whole groups of ``group`` rows, as many as fit in
        ``EVALUATE_BLOCK`` amplitudes, at least one group."""
        return group * max(1, EVALUATE_BLOCK // (group * self.space.dim))

    def evaluate_many(self, thetas):
        """Normalized amplitudes, shape ``(k, dim)``, at the rows of a
        ``(k, m)`` theta array."""
        return self._states(self._points(thetas))

    def evaluate(self, theta):
        return StateVector._adopt(self.space, self.evaluate_many(_row(theta, self.m))[0])

    def tangent(self, theta, i):
        """Unnormalized derivative d_i |phi> at theta."""
        points = self._points(_row(theta, self.m))
        if not 0 <= i < self.m:
            raise IndexError(f"component {i} out of range for m={self.m}")
        fd = self.tangent_fn is None  # a copy of the + row, not the whole stencil
        amps = (self._stencil(points, (i,))[2].copy() if fd
                else self._called(self.tangent_fn, points, [(i,)]))
        return StateVector._adopt(self.space, amps[0, 0])

    def _stencil(self, points, components):
        """``(states, bra, tangents)`` at checked ``points`` by central
        differences with per-point step ``fd_step * max(1, |theta_i|)``.

        The stencil lies point by point, ``(k, 1 + 2c, m)``: each point, then
        ``theta + h e_i`` and ``theta - h e_i`` for each ``i`` in
        ``components``.  Its rows are evaluated, checked and normalized by
        :meth:`_states` in whole stencils; the states and the neighbour
        pairs are views of that one array.  ``bra`` is the states'
        conjugate; the tangents are written over the ``+`` rows.
        """
        k, c, m, dim = len(points), len(components), self.m, self.space.dim
        comps = list(components)
        h = self.fd_step * np.maximum(1.0, np.abs(points[:, comps]))
        stencil = np.repeat(points[:, None], 1 + 2 * c, axis=1)
        nbrs = stencil[:, 1:].reshape(k, c, 2, m)  # point, component, sign
        nbrs[:, np.arange(c), 0, comps] += h
        nbrs[:, np.arange(c), 1, comps] -= h
        lo, hi = self._bounds
        inside = ((lo <= nbrs) & (nbrs <= hi)).all(axis=(2, 3))
        if not inside.all():
            r, j = np.argwhere(~inside)[0]
            raise DomainError(
                f"finite-difference step {h[r, j]:.1e} in component {comps[j]} leaves the "
                f"domain at theta {points[r].tolist()}"
            )
        rows = self._states(stencil.reshape(-1, m), 1 + 2 * c).reshape(k, 1 + 2 * c, dim)
        states, bra = rows[:, 0], np.conj(rows[:, 0])
        up, dn = np.moveaxis(rows[:, 1:].reshape(k, c, 2, dim), 2, 0)
        return states, bra, _transported_difference(self.space, bra[:, None], up, dn, h)

    def _lift_blocks(self, points):
        """``(points, states, lifts)`` per block of :meth:`_block_rows` checked
        points: states ``(k, dim)`` and lifts ``(k, m, dim)``,

            l_i = 2 t_i - 2 <phi|t_i> phi,

        each row as it would be alone in its block.  A block's states and all
        ``m`` tangents come from one formula call per column tile
        (:meth:`_formula_block`), without ``tangent_fn`` from
        :meth:`_stencil`.  The projection runs a tile at a time."""
        rows, components = self._block_rows(), tuple(range(self.m))
        for start in range(0, len(points), rows):
            block = points[start:start + rows]
            if self.tangent_fn is None:
                amps, bra, lifts = self._stencil(block, components)
            else:
                amps, lifts = self._formula_block(block, components)
                amps /= self._unit_norms(block, amps)[:, None]
                bra = np.conj(amps)
            ov = self.space.weight * _bra_dots(bra[:, None], lifts)
            del bra  # not alive while the block is consumed
            lifts *= 2.0  # in place from here: a block of lifts is the largest array
            scale = (2.0 * ov)[..., None]
            for tile in self._tiles(len(block)):
                lifts[..., tile] -= scale * amps[:, None, tile]
            yield block, amps, lifts
            del amps, lifts  # not alive while the next block is evaluated

    def horizontal_lift(self, theta):
        return next(self.horizontal_lifts(_row(theta, self.m)))

    def horizontal_lifts(self, thetas):
        """:meth:`horizontal_lift` at each row of a ``(k, m)`` theta array,
        yielded in order.  One block of :meth:`_block_rows` points is
        evaluated at a time (:meth:`_lift_blocks`), so memory does not grow
        with ``k``."""
        space = self.space
        for block, states, lifts in self._lift_blocks(self._points(thetas)):
            for theta, amps, rows in zip(block, states, lifts):
                yield HorizontalLift(theta=theta, phi=StateVector._adopt(space, amps),
                                     lifts=tuple(StateVector._adopt(space, l) for l in rows))
            del states, lifts, amps, rows  # the views too: they hold the block


def _theta_array(thetas, m):
    """``thetas`` as a float array; :class:`DomainError` when its points,
    meant as ``m``-vectors, are ragged or not numeric."""
    try:
        return np.asarray(thetas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"points are not {m}-vectors: {exc}") from None


def _row(theta, m):
    """One theta as a ``(1, ...)`` array; a scalar is a 1-vector."""
    arr = _theta_array(theta, m)
    return arr.reshape(1, 1) if arr.ndim == 0 else arr[None]


def broadcasting(fn):
    """Mark ``fn`` as written over leading axes.

    A marked ``evaluate_fn`` maps a ``(k, m)`` theta array to the
    ``(k, dim)`` amplitudes of its rows, and a marked ``tangent_fn(theta, i)``
    to the ``(k, dim)`` derivatives of its rows, each row as the ``(m,)``
    call would give it.  The model's adapter
    (:meth:`PureStateModel._adapter`) then calls it on a block of whole
    rows, a tangent once per component; an unmarked function is called one
    point, and one component, at a time.  The faces of a :class:`_Formula`
    are marked, but a model whose fields are its faces calls the formula
    itself, a column tile at a time.
    """
    fn.broadcasts = True
    return fn


class _Formula:
    """A built-in model's one formula ``fn(theta, cols, components)``: a
    catalog family's, or a tabulated table's (``cli._tabulated_model``).

    ``fn`` maps the rows of ``theta`` to ``(states, tangents)``: the
    amplitudes at the columns ``cols`` (a slice) and, for non-empty
    ``components``, the derivatives in those components only, with shape
    ``(..., len(components), width)``; None otherwise.  Each factor they
    share is computed once, and each amplitude by one expression whatever
    else is asked for, so its bits do not depend on the call.  Phases
    linear in the column index come from :func:`_affine_phases`, a complex
    product per amplitude within 1e-14 of ``np.exp`` on grids up to
    ``n = 65536`` for rates up to 2.  Calling the
    formula calls ``fn``: it is the :attr:`PureStateModel._formula` of a
    model whose fields are its faces, as :meth:`model` builds it.  The
    bound methods :meth:`evaluate` and :meth:`tangent` are those faces,
    over whole rows.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, theta, cols, components):
        return self.fn(theta, cols, components)

    def model(self, **fields):
        """The :class:`PureStateModel` whose two function fields are these faces."""
        return PureStateModel(evaluate_fn=self.evaluate, tangent_fn=self.tangent, **fields)

    @broadcasting
    def evaluate(self, theta):
        return self.fn(theta, slice(None), ())[0]

    @broadcasting
    def tangent(self, theta, i):
        return self.fn(theta, slice(None), (i,))[1][..., 0, :]


def _transported_difference(space, bra, up, dn, h):
    """Central difference ``(up - dn) / 2h`` of the neighbours of the state
    whose conjugate is ``bra``, after rephasing each by its unit link
    ``<phi|nbr> / |<phi|nbr>|``, over the last axis and broadcast over the
    others (``h`` over all but the last).  It is written into ``up`` and
    returned, and ``dn`` is overwritten: both belong to the caller, the
    rows of a finite-difference stencil or copies of a table's rows.

    A neighbour's phase gauge would scale the lift by the cosine of the
    phase gap; the rephased pair is in the gauge parallel to ``phi``, so the
    lift does not see it.  A link of magnitude at most ``MIN_OVERLAP``
    raises :class:`RefinementError` (:func:`holonomy.unit_links`).
    """
    from .holonomy import unit_links  # call time: holonomy imports this module

    links, _ = unit_links(space.weight * np.stack([_bra_dots(bra, up), _bra_dots(bra, dn)],
                                                  axis=-1))
    np.multiply(np.conj(links[..., 0, None]), up, out=up)
    np.multiply(np.conj(links[..., 1, None]), dn, out=dn)
    up -= dn
    up /= 2.0 * np.asarray(h)[..., None]
    return up


PHASE_TABLE_STEP = 64


def _affine_phases(k, g0, dg, cols):
    """``exp(i k (g0 + dg j))`` for each ``k`` (an array) and each column
    ``j`` of the range ``cols``, shape ``k.shape + (len(cols),)``.

    Two-level table, as FFT codes take their twiddle factors: a coarse
    factor at every ``B``-th index and a fine factor over ``B`` steps
    (``B = PHASE_TABLE_STEP``), so that each amplitude is
    ``coarse[j // B] * fine[j % B]``, one complex product instead of one
    complex exponential, and its bits do not depend on the tile ``cols``.
    """
    step = PHASE_TABLE_STEP
    k = k[..., None]
    first, last = cols.start // step, -(-cols.stop // step)
    # dg j + g0 for j = step q: the bits of ``GridSpace.points`` there
    coarse = np.exp(1j * (k * (dg * np.arange(first * step, last * step, step) + g0)))
    # B steps, fewer when the tile ends inside its one coarse step
    fine = np.exp(1j * (k * (dg * np.arange(min(step, cols.stop - first * step)))))
    table = np.multiply(coarse[..., None], fine[..., None, :])
    start = cols.start - first * step
    return table.reshape(table.shape[:-2] + (-1,))[..., start:start + len(cols)]


@dataclass(frozen=True)
class Curve:
    """Ordered parameter points of a model, optionally closed as rays.

    ``points`` is a sequence of points or one ``(k, m)`` array.  They are
    checked when the curve is evaluated: a point of the wrong shape or
    outside the domain raises :class:`DomainError` there.
    """

    model: PureStateModel
    points: object
    closed: bool = False

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a curve needs at least two points")


def rephased(model, alpha, grad_alpha=None):
    """Gauge transform phi -> exp(i alpha(theta)) phi.

    ``alpha`` maps a theta array to a real phase.  With an analytic base
    tangent, ``grad_alpha(theta) -> array(m)`` must be supplied so the
    product rule stays closed form; finite-difference models need
    nothing extra.  The base is read through its formula in column tiles
    (:meth:`PureStateModel._formula_block`), a tangent's state from the
    same call.
    """

    def ev(theta):
        return np.exp(1j * alpha(theta)) * model._formula_block(theta[None], ())[0][0]

    tangent_fn = None
    if model.tangent_fn is not None:
        if grad_alpha is None:
            raise ValueError("grad_alpha is required to rephase an analytic model")

        def tangent_fn(theta, i):
            phi, base = model._formula_block(theta[None], (i,))  # one base call per tile
            return np.exp(1j * alpha(theta)) * (base[0, 0] + 1j * grad_alpha(theta)[i] * phi[0])

    return replace(model, evaluate_fn=ev, tangent_fn=tangent_fn, kind=f"rephased:{model.kind}")


# ---------------------------------------------------------------------------
# base profiles for the grid families


def _finite(name, value):
    """``value`` as a float; ValueError unless it is finite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _largest_phase(name, rate, power, reach):
    """ValueError unless ``|rate| reach**power``, the largest argument of a phase
    ``rate x**power`` at ``|x| <= reach``, is finite.  Every catalog phase is
    checked here from the grid bounds and the domain, before any array arithmetic."""
    arg = abs(rate) * reach * (reach if power == 2 else 1.0)
    if not math.isfinite(arg):
        raise ValueError(f"{name} = {rate} makes phase arguments up to {arg}")


def gaussian_profile(width=1.0, center=0.0):
    w, c = _finite("width", width), _finite("center", center)
    if w <= 0.0:
        raise ValueError(f"width must be positive, got {w}")
    if not np.finfo(float).tiny <= w * w < np.inf:  # the exponent divides by it
        raise ValueError(f"width squared must be a normal float, got {w * w}")
    norm = np.pi ** (-0.25) / np.sqrt(w)

    def fn(x, derivative):
        shifted = x - c
        with np.errstate(over="ignore"):  # a far tail overflows to exp(-inf) = 0
            f = norm * np.exp(-(shifted ** 2) / (2.0 * w * w)) + 0j
        return f, -shifted / (w * w) * f if derivative else None

    return fn


def hermite_profile(n):
    """n-th harmonic-oscillator eigenfunction (unit frequency)."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")

    def hpoly(k, x):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        return np.polynomial.hermite.hermval(x, coeffs)

    norm = (2.0**n * math.factorial(n) * np.sqrt(np.pi)) ** -0.5

    def fn(x, derivative):
        h, envelope = hpoly(n, x), np.exp(-0.5 * x * x)
        f = norm * h * envelope + 0j
        if not derivative:
            return f, None
        # H_n' = 2 n H_{n-1}
        lead = 2.0 * n * hpoly(n - 1, x) if n > 0 else 0.0
        return f, norm * (lead - x * h) * envelope + 0j

    return fn


def _phase_factor_profile(base, g, dg, phase):
    """Multiply a profile by exp(i g(x)); its derivative gains i g'(x) f.
    The profile keeps ``phase = (name, rate, power)``, ``g(x) = rate x**power``."""

    def fn(x, derivative):
        phase = np.exp(1j * g(x))
        f, df = base(x, derivative)
        if not derivative:
            return phase * f, None
        # not ``phase * (...)``: numpy computes an operator whose right operand
        # is a temporary of 256 kB or more in that temporary, operands swapped,
        # and a complex product is not bitwise symmetric
        return phase * f, np.multiply(phase, df + 1j * dg(x) * f)

    fn.phase = phase
    return fn


def boosted_profile(base, p0):
    """Multiply a profile by the plane-wave factor exp(i p0 x)."""
    p0 = _finite("p0", p0)
    return _phase_factor_profile(base, lambda x: p0 * x, lambda x: p0, ("p0", p0, 1))


def chirped_profile(chirp, width=1.0):
    """Gaussian with quadratic phase exp(i c x^2)."""
    c = _finite("chirp", chirp)
    return _phase_factor_profile(gaussian_profile(width), lambda x: c * x * x,
                                 lambda x: 2.0 * c * x, ("chirp", c, 2))


def two_well_profile(alpha):
    """Quartic-node packet with a phase step at the node.

    f(x) = x^2 exp(-x^2 + i g(x)), g = 0 for x >= 0 and alpha for x < 0.
    The step sits under the node, so the profile and its almost-
    everywhere derivative stay square-integrable.
    """
    a = _finite("alpha", alpha)

    def fn(x, derivative):
        factor = np.exp(-x * x + 1j * np.where(x >= 0.0, 0.0, a))
        return x * x * factor, (2.0 * x - 2.0 * x**3) * factor if derivative else None

    return fn


PROFILE_BUILDERS = {
    "gaussian": lambda p: gaussian_profile(p.get("width", 1.0), p.get("center", 0.0)),
    "hermite": lambda p: hermite_profile(p["n"]),
    "boosted_gaussian": lambda p: boosted_profile(
        gaussian_profile(p.get("width", 1.0)), p["p0"]
    ),
    "chirped_gaussian": lambda p: chirped_profile(p["chirp"], p.get("width", 1.0)),
    "two_well": lambda p: two_well_profile(p["alpha"]),
}


def make_profile(spec):
    """The profile named by a string or a {'name': ..., params...} mapping.

    A profile is its function ``fn(x, derivative)``: the complex 1-d
    ``(f(x), f'(x))``, the derivative None unless asked for, with the
    factors they share computed once; a phase factor adds ``fn.phase``.
    """
    if isinstance(spec, str):
        name, params = spec, {}
    else:
        params = dict(spec)
        name = params.pop("name")
    if name not in PROFILE_BUILDERS:
        raise ValueError(f"unknown profile {name!r}; known: {sorted(PROFILE_BUILDERS)}")
    return PROFILE_BUILDERS[name](params)


# ---------------------------------------------------------------------------
# catalog


def _grid_from_params(params, default_n=512, default_lower=-10.0, default_upper=10.0,
                      periodic=False):
    grid = params.get("grid", {})
    periodic = grid.get("periodic", periodic)
    if not isinstance(periodic, bool):
        raise ValueError(f"grid.periodic must be true or false, got {periodic!r}")
    return GridSpace(
        int(grid.get("n", default_n)),
        float(grid.get("lower", default_lower)),
        float(grid.get("upper", default_upper)),
        periodic=periodic,
    )


def _domain(params, default):
    """``params["domain"]`` as given, else ``default``: ``len(default)``
    pairs ``[lo, hi]`` of numbers with ``lo <= hi``; ValueError otherwise."""
    domain = params.get("domain", default)

    def is_pair(pair):
        return (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                        for v in pair)
                and pair[0] <= pair[1])

    if not (isinstance(domain, (list, tuple)) and len(domain) == len(default)
            and all(map(is_pair, domain))):
        raise ValueError(f"domain must be {len(default)} pair(s) [lo, hi] of numbers "
                         f"with lo <= hi, got {domain!r}")
    return tuple(domain)


def _grid_norm_factor(profile, space, shifts):
    """Normalization constant on the model's own grid, computed once, after
    :func:`_largest_phase` of the profile's phase at ``x - t``, ``t`` in ``shifts``."""
    lo, hi = shifts
    if hasattr(profile, "phase"):
        _largest_phase(*profile.phase, max(abs(space.lower - hi), abs(space.upper - lo)))
    nrm = math.sqrt(space.weight) * float(np.linalg.norm(profile(space.points, False)[0]))
    if nrm == 0.0:
        raise ValueError("profile vanishes on the grid")
    return 1.0 / nrm


def _shift_family(params, profile, space, kind):
    """The family ``c f(x - theta)`` of a profile translated on its grid."""
    domain = _domain(params, ((-2.0, 2.0),))
    c = _grid_norm_factor(profile, space, domain[0])
    x = space.points

    def fn(theta, cols, components):
        f, df = profile(x[cols] - theta[..., 0, None], bool(components))
        return c * f, (-c * df)[..., None, :] if components else None

    return _Formula(fn).model(space=space, m=1, domain=domain, kind=kind,
                              sample_grid=tuple((t,) for t in np.linspace(-1.0, 1.0, 5)))


def _position_shift(params):
    return _shift_family(params, make_profile(params.get("profile", "gaussian")),
                         _grid_from_params(params), "position_shift")


def _phase_generator_family(space, domain, g0, dg, psi0, kind, sample_line):
    """The family ``exp(-i theta g) psi0`` of the diagonal generator
    ``g_j = g0 + dg j``, its phases from :func:`_affine_phases`."""
    g = g0 + dg * np.arange(space.dim)
    columns = range(space.dim)

    def fn(theta, cols, components):
        gs, psi = g[cols], psi0[cols]
        phase = _affine_phases(-theta[..., 0], g0, dg, columns[cols])
        return phase * psi, (-1j * gs * phase * psi)[..., None, :] if components else None

    return _Formula(fn).model(space=space, m=1, domain=domain, kind=kind,
                              sample_grid=tuple((t,) for t in sample_line))


def _momentum_shift(params):
    profile = make_profile(params.get("profile", "gaussian"))
    space = _grid_from_params(params)
    c = _grid_norm_factor(profile, space, (0.0, 0.0))  # the profile at theta = 0
    return _phase_generator_family(
        space, _domain(params, ((-2.0, 2.0),)), -space.lower, -space.weight,
        c * profile(space.points, False)[0], "momentum_shift", np.linspace(-1.0, 1.0, 5))


def _distinct(values):
    """``(distinct, rows)``: the distinct bits among the float column
    ``values`` of a theta array and, as an index, each row's own."""
    if values.ndim != 1 or values.dtype != float:
        return values, slice(None)
    seen = {}
    rows = [seen.setdefault(key, len(seen))
            for key in np.ascontiguousarray(values).view(np.int64).tolist()]
    if len(seen) == len(rows):
        return values, slice(None)  # a view: nothing copied
    return np.array(list(seen), dtype=np.int64).view(float), rows


def _position_momentum_shift(params):
    profile = make_profile(params.get("profile", "gaussian"))
    space = _grid_from_params(params)
    domain = _domain(params, ((-2.0, 2.0), (-2.0, 2.0)))
    c = _grid_norm_factor(profile, space, domain[0])
    x, columns = space.points, range(space.dim)

    def fn(theta, cols, components):
        # rows that share theta_1 share one plane wave, rows that share
        # theta_0 one profile: a stencil or a rectangle's side; np.multiply,
        # since numpy may compute ``a * t`` for a fresh ``t`` in ``t`` with
        # the operands swapped, and a complex product is not bitwise symmetric
        xs = x[cols]
        shifts, by_shift = _distinct(theta[..., 0])
        boosts, by_boost = _distinct(theta[..., 1])
        plane = _affine_phases(boosts, space.lower, space.weight, columns[cols])
        f, df = profile(xs - shifts[..., None], 0 in components)
        states = np.multiply((plane * c)[by_boost], f[by_shift])
        if not components:
            return states, None
        tangents = np.empty(states.shape[:-1] + (len(components), len(xs)), dtype=complex)
        for j, i in enumerate(components):
            if i == 0:
                np.multiply((-plane * c)[by_boost], df[by_shift], out=tangents[..., j, :])
            else:
                np.multiply((1j * xs * plane * c)[by_boost], f[by_shift],
                            out=tangents[..., j, :])
        return states, tangents

    diag = np.linspace(-1.0, 1.0, 5)
    return _Formula(fn).model(space=space, m=2, domain=domain, kind="position_momentum_shift",
                              sample_grid=tuple((t, t) for t in diag))


def _spin_jz(params):
    amp = np.asarray(params["amplitudes"], dtype=complex)
    if amp.ndim != 1 or amp.size < 2:
        raise ValueError("amplitudes must be a 1-d sequence of length >= 2")
    if not np.isfinite(amp).all():
        raise ValueError(f"amplitudes must be finite, got {params['amplitudes']!r}")
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(amp)
    if not np.finfo(float).tiny <= nrm < np.inf:  # under- or overflowed: rescale first
        scale = np.max(np.abs(amp))
        if scale == 0.0:
            raise ValueError("amplitudes must not all be zero")
        # part by part: a complex divide by a subnormal overflows
        amp = amp.real / scale + 1j * (amp.imag / scale)
        nrm = np.linalg.norm(amp)
    amp = amp / nrm
    d = amp.size
    total_spin = (d - 1) / 2.0
    m_values = np.arange(d) - total_spin
    return _phase_generator_family(
        BasisSpace(d, labels=tuple(m_values)), _domain(params, ((-np.inf, np.inf),)),
        -total_spin, 1.0, amp, "spin_jz", np.linspace(0.0, 2.0, 5))


def _two_well(params):
    # the profile derivative is taken almost everywhere; the quartic node
    # sits exactly on the phase step, so the step never contributes
    profile = two_well_profile(params.get("alpha", np.pi / 2))
    space = _grid_from_params(params, default_n=2048, default_lower=-8.0,
                              default_upper=8.0)
    return _shift_family(params, profile, space, "two_well")


def _wrap_counts(arg):
    """``arg // (2 pi)`` at a tenth of its cost: the floor of a product, and
    numpy's divmod only where the quotient lies within 1e-9 of an integer."""
    quot = arg * (0.5 / np.pi)
    wraps = np.floor(quot)
    quot -= wraps  # the fraction, in [0, 1)
    near = (quot < 1e-9) | (quot > 1.0 - 1e-9)
    wraps[near] = arg[near] // (2.0 * np.pi)
    return wraps


def _ring_flux(params):
    alpha = _finite("alpha", params.get("alpha", 0.3))
    space = _grid_from_params(params, default_n=1024, default_lower=0.0,
                              default_upper=2.0 * np.pi, periodic=True)
    if not space.periodic:
        raise ValueError("ring_flux requires a periodic grid")
    domain = _domain(params, ((-2.0 * np.pi, 4.0 * np.pi),))
    # the phases alpha omega and 2 pi alpha q, |2 pi q| < |omega| + |t| + 2 pi
    _largest_phase("alpha", alpha, 1, max(abs(space.lower), abs(space.upper))
                   + max(map(abs, domain[0])) + 2.0 * np.pi)
    omega, columns = space.points, range(space.dim)
    c = 1.0 / (math.sqrt(space.weight) * float(np.linalg.norm((2.0 - np.cos(omega)) + 0j)))
    rates = np.array([alpha, 1.0])

    def fn(theta, cols, components):
        # s = (omega - t) mod 2 pi = omega - t - 2 pi q, q the wrap count of
        # the mod (_wrap_counts), so the phase step stays on the same grid
        # points: exp(i alpha (s + t)) = exp(i alpha omega) exp(-2 pi i alpha q),
        # the latter from a table of the few wrap counts q, and
        # cos s + i sin s = exp(i omega) exp(-i t)
        t = theta[..., 0, None]
        wraps = _wrap_counts(omega[cols] - t)
        low = wraps.min()
        table = np.exp(-2j * np.pi * alpha * np.arange(low, wraps.max() + 1))
        flux, turn = _affine_phases(rates, space.lower, space.weight, columns[cols])
        phase = np.multiply(flux, table[(wraps - low).astype(np.intp)])
        rot = np.multiply(turn, np.exp(-1j * t))
        # the tangent is the theta-derivative of the transported profile,
        # taken away from the moving phase step (measure zero on the grid)
        return (c * (2.0 - rot.real) * phase,
                (-c * rot.imag * phase)[..., None, :] if components else None)

    return _Formula(fn).model(space=space, m=1, domain=domain, kind="ring_flux",
                              sample_grid=tuple((t,) for t in np.linspace(0.5, 5.5, 5)))


def _bloch(params):
    space = BasisSpace(2, labels=("up", "down"))
    domain = _domain(params, ((0.0, np.pi), (-4.0 * np.pi, 4.0 * np.pi)))

    def fn(theta, cols, components):
        half, az = theta[..., 0] / 2.0, theta[..., 1]
        sin, cos, plane = np.sin(half), np.cos(half), np.exp(1j * az)
        amps = np.empty(theta.shape[:-1] + (2,), dtype=complex)
        amps[..., 0] = cos
        amps[..., 1] = plane * sin
        if not components:
            return amps[..., cols], None
        tangents = np.zeros(theta.shape[:-1] + (len(components), 2), dtype=complex)
        for j, i in enumerate(components):
            if i == 0:
                tangents[..., j, 0] = -0.5 * sin
                tangents[..., j, 1] = 0.5 * plane * cos
            else:
                tangents[..., j, 1] = 1j * plane * sin
        return amps[..., cols], tangents[..., cols]

    pol_line = np.linspace(0.6, 2.2, 5)
    az_line = np.linspace(0.0, 1.5, 5)
    return _Formula(fn).model(space=space, m=2, domain=domain, kind="bloch",
                              sample_grid=tuple(zip(pol_line, az_line)))


CATALOG = {
    "position_shift": _position_shift,
    "momentum_shift": _momentum_shift,
    "position_momentum_shift": _position_momentum_shift,
    "spin_jz": _spin_jz,
    "two_well": _two_well,
    "ring_flux": _ring_flux,
    "bloch": _bloch,
}


def catalog(name, params=None):
    """Construct a catalog model by name.

    Known names: position_shift, momentum_shift, position_momentum_shift,
    spin_jz, two_well, ring_flux, bloch.  Grid families accept a
    ``profile`` spec and a ``grid`` mapping (n, lower, upper, periodic);
    spin_jz needs ``amplitudes``; two_well and ring_flux take ``alpha``.
    """
    if name not in CATALOG:
        raise ValueError(f"unknown catalog model {name!r}; known: {sorted(CATALOG)}")
    return CATALOG[name](dict(params or {}))
