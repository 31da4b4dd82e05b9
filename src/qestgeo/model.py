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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ModelDefinitionError, SpaceMismatchError
from .hilbert import BasisSpace, GridSpace, StateVector

NORM_DRIFT_TOL = 1e-6
DEFAULT_FD_STEP = 1e-4
# amplitudes per block of states (and per call of a broadcasting function):
# temporaries stay at 256 kB
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
    used, of neighbours rephased onto the state
    (:func:`_transported_difference`).  Each function is called on one
    ``(m,)`` point at a time, or on blocks of a ``(k, m)`` array when marked
    :func:`broadcasting`.
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
        arr = np.asarray(thetas, dtype=float)
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

    def _states(self, points):
        """Normalized ``(k, dim)`` amplitudes at checked ``points``.

        A :func:`broadcasting` ``evaluate_fn`` takes :meth:`_block_rows` rows
        a call.  Each norm is ``sqrt(re.re + im.im)`` of its own row: a
        ``(1, dim) @ (dim, 1)`` matmul is the BLAS dot ``np.linalg.norm``
        takes, so a row does not depend on its batch.
        """
        dim = self.space.dim
        out = np.empty((len(points), dim), dtype=complex)
        batched = getattr(self.evaluate_fn, "broadcasts", False)
        rows = self._block_rows() if batched else 1
        root_w = math.sqrt(self.space.weight)
        for start in range(0, len(points), rows):
            block = points[start:start + rows]
            amps = np.asarray(self.evaluate_fn(block) if batched
                              else [self.evaluate_fn(block[0])], dtype=complex)
            if amps.shape != (len(block), dim):
                raise SpaceMismatchError(f"amplitudes have shape {amps.shape[1:]}, "
                                         f"space has dimension {dim}")
            re, im = amps.real[:, None], amps.imag[:, None]
            sq = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
            nrm = root_w * np.sqrt(sq[:, 0, 0])
            drift = np.abs(nrm - 1.0)
            ok = drift < NORM_DRIFT_TOL  # a NaN drift fails too
            if np.count_nonzero(ok) != len(ok):
                k = np.flatnonzero(~ok)[0]
                raise ModelDefinitionError(
                    f"norm drift {drift[k]:.3e} at theta {block[k].tolist()} "
                    f"(limit {NORM_DRIFT_TOL:.0e}); check grid truncation"
                )
            np.divide(amps, nrm[:, None], out=out[start:start + len(block)])
        return out

    def _block_rows(self):
        """Rows per block: ``EVALUATE_BLOCK`` amplitudes, at least one row."""
        return max(1, EVALUATE_BLOCK // self.space.dim)

    def evaluate_many(self, thetas):
        """Normalized amplitudes, shape ``(k, dim)``, at the rows of a
        ``(k, m)`` theta array."""
        return self._states(self._points(thetas))

    def evaluate(self, theta):
        return StateVector._adopt(self.space, self.evaluate_many(_row(theta))[0])

    def tangent(self, theta, i):
        """Unnormalized derivative d_i |phi> at theta."""
        points = self._points(_row(theta))
        if not 0 <= i < self.m:
            raise IndexError(f"component {i} out of range for m={self.m}")
        amps = None if self.tangent_fn is not None else self._states(points)
        return StateVector._adopt(self.space, self._tangents(points, amps, (i,))[0, 0])

    def _tangents(self, points, amps, components):
        """Tangent amplitudes ``(k, len(components), dim)`` at checked
        ``points``; ``amps``, the states there, gauge the finite differences.

        A :func:`broadcasting` ``tangent_fn`` takes all the points in one call
        per component, an unmarked one a point and a component per call.
        """
        if self.tangent_fn is None:
            return self._fd_tangents(points, amps, components)
        out = np.empty((len(points), len(components), self.space.dim), dtype=complex)
        if getattr(self.tangent_fn, "broadcasts", False):
            for j, i in enumerate(components):
                _put(out[:, j], self.tangent_fn(points, i))
        else:
            for r, theta in enumerate(points):
                for j, i in enumerate(components):
                    _put(out[r, j], self.tangent_fn(theta, i))
        return out

    def _fd_tangents(self, points, amps, components):
        """Central differences with per-point step ``fd_step * max(1, |theta_i|)``:
        the neighbours of all points and components in one :meth:`_states`
        call, rephased onto ``amps`` by one :func:`_transported_difference`."""
        comps = list(components)
        h = self.fd_step * np.maximum(1.0, np.abs(points[:, comps]))
        steps = np.broadcast_to(points[:, None, None], (len(points), len(comps), 2, self.m)).copy()
        for j, i in enumerate(comps):
            steps[:, j, 0, i] += h[:, j]
            steps[:, j, 1, i] -= h[:, j]
        try:
            nbrs = self._points(steps.reshape(-1, self.m))
        except DomainError:
            lo, hi = self._bounds
            inside = ((lo <= steps) & (steps <= hi)).all(axis=(2, 3))
            r, j = np.argwhere(~inside)[0]
            raise DomainError(
                f"finite-difference step {h[r, j]:.1e} in component {comps[j]} leaves the "
                f"domain at theta {points[r].tolist()}"
            ) from None
        nbrs = self._states(nbrs).reshape(len(points), len(comps), 2, -1)
        return _transported_difference(self.space, amps[:, None], nbrs[:, :, 0],
                                       nbrs[:, :, 1], h)

    def _lift_blocks(self, points):
        """``(points, states, lifts)`` per block of :meth:`_block_rows` checked
        points: states ``(k, dim)`` and lifts ``(k, m, dim)``,

            l_i = 2 t_i - 2 <phi|t_i> phi,

        each row as it would be alone in its block."""
        rows = self._block_rows()
        for start in range(0, len(points), rows):
            block = points[start:start + rows]
            amps = self._states(block)
            lifts = self._tangents(block, amps, range(self.m))
            ov = self.space.weight * _dots(amps[:, None], lifts)
            lifts *= 2.0  # in place from here: a block of lifts is the largest array
            lifts -= (2.0 * ov)[..., None] * amps[:, None]
            yield block, amps, lifts
            del amps, lifts  # not alive while the next block is evaluated

    def horizontal_lift(self, theta):
        return next(self.horizontal_lifts(_row(theta)))

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


def _row(theta):
    """One theta as a ``(1, ...)`` array; a scalar is a 1-vector."""
    arr = np.asarray(theta, dtype=float)
    return arr.reshape(1, 1) if arr.ndim == 0 else arr[None]


def _dots(a, b):
    """``<a|b>`` over the last axis, broadcast over the others: each one the
    BLAS dot ``np.vdot`` takes, so a row does not depend on its batch."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def _put(dest, amps):
    """Copy ``amps`` into ``dest``; :class:`SpaceMismatchError` when the
    shapes differ."""
    amps = np.asarray(amps)
    if amps.shape != dest.shape:
        raise SpaceMismatchError(f"amplitudes have shape {amps.shape[dest.ndim - 1:]}, "
                                 f"space has dimension {dest.shape[-1]}")
    dest[...] = amps


def broadcasting(fn):
    """Mark ``fn`` as written over leading axes.

    A marked ``evaluate_fn`` maps a ``(k, m)`` theta array to the
    ``(k, dim)`` amplitudes of its rows, and a marked ``tangent_fn(theta, i)``
    to the ``(k, dim)`` derivatives of its rows, each row as the ``(m,)``
    call would give it.  :class:`PureStateModel` then calls it on blocks of
    rows; an unmarked function is called one point at a time.
    """
    fn.broadcasts = True
    return fn


def _transported_difference(space, phi, up, dn, h):
    """Central difference ``(up - dn) / 2h`` of the neighbours of the state
    ``phi`` after rephasing each by its unit link ``<phi|nbr> / |<phi|nbr>|``,
    over the last axis and broadcast over the others (``h`` over all but the
    last).

    A neighbour's phase gauge would scale the lift by the cosine of the
    phase gap; the rephased pair is in the gauge parallel to ``phi``, so the
    lift does not see it.  A link of magnitude at most ``MIN_OVERLAP``
    raises :class:`RefinementError` (:func:`holonomy.unit_links`).
    """
    from .holonomy import unit_links  # call time: holonomy imports this module

    links, _ = unit_links(space.weight * np.stack([_dots(phi, up), _dots(phi, dn)], axis=-1))
    diff = np.conj(links[..., 0, None]) * up  # in place from here: no more temporaries
    diff -= np.conj(links[..., 1, None]) * dn
    diff /= 2.0 * np.asarray(h)[..., None]
    return diff


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
    nothing extra.
    """

    def ev(theta):
        return np.exp(1j * alpha(theta)) * model.evaluate_fn(theta)

    tangent_fn = None
    if model.tangent_fn is not None:
        if grad_alpha is None:
            raise ValueError("grad_alpha is required to rephase an analytic model")

        def tangent_fn(theta, i):
            base = model.tangent_fn(theta, i)
            phi = model.evaluate_fn(theta)
            return np.exp(1j * alpha(theta)) * (base + 1j * grad_alpha(theta)[i] * phi)

    return PureStateModel(
        space=model.space,
        m=model.m,
        domain=model.domain,
        evaluate_fn=ev,
        tangent_fn=tangent_fn,
        fd_step=model.fd_step,
        kind=f"rephased:{model.kind}",
        sample_grid=model.sample_grid,
    )


# ---------------------------------------------------------------------------
# base profiles for the grid families


@dataclass(frozen=True)
class Profile:
    """Complex 1-d profile with its closed-form x-derivative."""

    name: str
    f: object
    df: object


def gaussian_profile(width=1.0, center=0.0):
    w = float(width)
    c = float(center)
    norm = np.pi ** (-0.25) / np.sqrt(w)

    def f(x):
        return norm * np.exp(-((x - c) ** 2) / (2.0 * w * w)) + 0j

    def df(x):
        return -(x - c) / (w * w) * f(x)

    return Profile(f"gaussian(width={w:g},center={c:g})", f, df)


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

    def f(x):
        return norm * hpoly(n, x) * np.exp(-0.5 * x * x) + 0j

    def df(x):
        # H_n' = 2 n H_{n-1}
        lead = 2.0 * n * hpoly(n - 1, x) if n > 0 else 0.0
        return norm * (lead - x * hpoly(n, x)) * np.exp(-0.5 * x * x) + 0j

    return Profile(f"hermite(n={n})", f, df)


def _phase_factor_profile(name, base, g, dg):
    """Multiply a profile by exp(i g(x)); its derivative gains i g'(x) f."""

    def f(x):
        return np.exp(1j * g(x)) * base.f(x)

    def df(x):
        return np.exp(1j * g(x)) * (base.df(x) + 1j * dg(x) * base.f(x))

    return Profile(name, f, df)


def boosted_profile(base, p0):
    """Multiply a profile by the plane-wave factor exp(i p0 x)."""
    p0 = float(p0)
    return _phase_factor_profile(f"boosted(p0={p0:g},{base.name})", base,
                                 lambda x: p0 * x, lambda x: p0)


def chirped_profile(chirp, width=1.0):
    """Gaussian with quadratic phase exp(i c x^2)."""
    c = float(chirp)
    return _phase_factor_profile(f"chirped(c={c:g},width={width:g})",
                                 gaussian_profile(width),
                                 lambda x: c * x * x, lambda x: 2.0 * c * x)


def two_well_profile(alpha):
    """Quartic-node packet with a phase step at the node.

    f(x) = x^2 exp(-x^2 + i g(x)), g = 0 for x >= 0 and alpha for x < 0.
    The step sits under the node, so the profile and its almost-
    everywhere derivative stay square-integrable.
    """
    a = float(alpha)

    def g(x):
        return np.where(x >= 0.0, 0.0, a)

    def f(x):
        return x * x * np.exp(-x * x + 1j * g(x))

    def df(x):
        return (2.0 * x - 2.0 * x**3) * np.exp(-x * x + 1j * g(x))

    return Profile(f"two_well(alpha={a:g})", f, df)


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
    """Profile from a name or a {'name': ..., params...} mapping."""
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
    return GridSpace(
        int(grid.get("n", default_n)),
        float(grid.get("lower", default_lower)),
        float(grid.get("upper", default_upper)),
        periodic=bool(grid.get("periodic", periodic)),
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


def _grid_norm_factor(profile, space):
    """Normalization constant on the model's own grid, computed once."""
    raw = StateVector(space, profile.f(space.points))
    nrm = raw.norm()
    if nrm == 0.0:
        raise ValueError(f"profile {profile.name} vanishes on the grid")
    return 1.0 / nrm


def _shift_family(params, profile, space, kind):
    """The family ``c f(x - theta)`` of a profile translated on its grid."""
    c = _grid_norm_factor(profile, space)
    domain = _domain(params, ((-2.0, 2.0),))
    x = space.points

    @broadcasting
    def ev(theta):
        return c * profile.f(x - theta[..., 0, None])

    @broadcasting
    def tangent_fn(theta, i):
        return -c * profile.df(x - theta[..., 0, None])

    return PureStateModel(
        space=space, m=1, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind=kind,
        sample_grid=tuple((t,) for t in np.linspace(-1.0, 1.0, 5)),
    )


def _position_shift(params):
    return _shift_family(params, make_profile(params.get("profile", "gaussian")),
                         _grid_from_params(params), "position_shift")


def _phase_generator_family(space, domain, g, psi0, kind, sample_line):
    """The family ``exp(-i theta g) psi0`` of a diagonal generator ``g``."""

    @broadcasting
    def ev(theta):
        return np.exp(-1j * theta[..., 0, None] * g) * psi0

    @broadcasting
    def tangent_fn(theta, i):
        return -1j * g * np.exp(-1j * theta[..., 0, None] * g) * psi0

    return PureStateModel(
        space=space, m=1, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind=kind, sample_grid=tuple((t,) for t in sample_line),
    )


def _momentum_shift(params):
    profile = make_profile(params.get("profile", "gaussian"))
    space = _grid_from_params(params)
    c = _grid_norm_factor(profile, space)
    x = space.points
    return _phase_generator_family(
        space, _domain(params, ((-2.0, 2.0),)), -x, c * profile.f(x),
        "momentum_shift", np.linspace(-1.0, 1.0, 5))


def _position_momentum_shift(params):
    profile = make_profile(params.get("profile", "gaussian"))
    space = _grid_from_params(params)
    c = _grid_norm_factor(profile, space)
    domain = _domain(params, ((-2.0, 2.0), (-2.0, 2.0)))
    x = space.points

    @broadcasting
    def ev(theta):
        return np.exp(1j * theta[..., 1, None] * x) * c * profile.f(x - theta[..., 0, None])

    @broadcasting
    def tangent_fn(theta, i):
        plane = np.exp(1j * theta[..., 1, None] * x)
        if i == 0:
            return -plane * c * profile.df(x - theta[..., 0, None])
        return 1j * x * plane * c * profile.f(x - theta[..., 0, None])

    diag = np.linspace(-1.0, 1.0, 5)
    return PureStateModel(
        space=space, m=2, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind="position_momentum_shift",
        sample_grid=tuple((t, t) for t in diag),
    )


def _spin_jz(params):
    amp = np.asarray(params["amplitudes"], dtype=complex)
    if amp.ndim != 1 or amp.size < 2:
        raise ValueError("amplitudes must be a 1-d sequence of length >= 2")
    nrm = np.linalg.norm(amp)
    if nrm == 0.0:
        raise ValueError("amplitudes must not all be zero")
    amp = amp / nrm
    d = amp.size
    total_spin = (d - 1) / 2.0
    m_values = np.arange(d) - total_spin
    return _phase_generator_family(
        BasisSpace(d, labels=tuple(m_values)), _domain(params, ((-np.inf, np.inf),)),
        m_values, amp, "spin_jz", np.linspace(0.0, 2.0, 5))


def _two_well(params):
    # the profile derivative is taken almost everywhere; the quartic node
    # sits exactly on the phase step, so the step never contributes
    profile = two_well_profile(float(params.get("alpha", np.pi / 2)))
    space = _grid_from_params(params, default_n=2048, default_lower=-8.0,
                              default_upper=8.0)
    return _shift_family(params, profile, space, "two_well")


def _ring_flux(params):
    alpha = float(params.get("alpha", 0.3))
    space = _grid_from_params(params, default_n=1024, default_lower=0.0,
                              default_upper=2.0 * np.pi, periodic=True)
    if not space.periodic:
        raise ValueError("ring_flux requires a periodic grid")
    omega = space.points
    raw = StateVector(space, (2.0 - np.cos(omega)) + 0j)
    c = 1.0 / raw.norm()
    domain = _domain(params, ((-2.0 * np.pi, 4.0 * np.pi),))

    @broadcasting
    def ev(theta):
        t = theta[..., 0, None]
        s = np.mod(omega - t, 2.0 * np.pi)
        return c * (2.0 - np.cos(s)) * np.exp(1j * alpha * (s + t))

    @broadcasting
    def tangent_fn(theta, i):
        # theta-derivative of the transported profile, taken away from
        # the moving phase step (measure zero on the grid)
        t = theta[..., 0, None]
        s = np.mod(omega - t, 2.0 * np.pi)
        return -c * np.sin(s) * np.exp(1j * alpha * (s + t))

    return PureStateModel(
        space=space, m=1, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind="ring_flux",
        sample_grid=tuple((t,) for t in np.linspace(0.5, 5.5, 5)),
    )


def _bloch(params):
    space = BasisSpace(2, labels=("up", "down"))
    domain = _domain(params, ((0.0, np.pi), (-4.0 * np.pi, 4.0 * np.pi)))

    @broadcasting
    def ev(theta):
        half = theta[..., 0] / 2.0
        amps = np.empty(theta.shape[:-1] + (2,), dtype=complex)
        amps[..., 0] = np.cos(half)
        amps[..., 1] = np.exp(1j * theta[..., 1]) * np.sin(half)
        return amps

    @broadcasting
    def tangent_fn(theta, i):
        half, az = theta[..., 0] / 2.0, theta[..., 1]
        amps = np.zeros(theta.shape[:-1] + (2,), dtype=complex)
        if i == 0:
            amps[..., 0] = -0.5 * np.sin(half)
            amps[..., 1] = 0.5 * np.exp(1j * az) * np.cos(half)
        else:
            amps[..., 1] = 1j * np.exp(1j * az) * np.sin(half)
        return amps

    pol_line = np.linspace(0.6, 2.2, 5)
    az_line = np.linspace(0.0, 1.5, 5)
    return PureStateModel(
        space=space, m=2, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind="bloch",
        sample_grid=tuple(zip(pol_line, az_line)),
    )


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
