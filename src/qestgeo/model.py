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

import numpy as np

from . import hilbert
from .errors import DomainError, ModelDefinitionError
from .hilbert import BasisSpace, GridSpace, StateVector

NORM_DRIFT_TOL = 1e-6
DEFAULT_FD_STEP = 1e-4


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
    differences with per-component step ``fd_step * max(1, |theta_i|)``
    are used.
    """

    space: object
    m: int
    domain: tuple
    evaluate_fn: object
    tangent_fn: object = None
    fd_step: float = DEFAULT_FD_STEP
    kind: str = "custom"
    sample_grid: tuple = ()

    def _point(self, theta):
        """``theta`` as a float array of shape ``(m,)`` inside the domain;
        :class:`DomainError` otherwise."""
        arr = np.asarray(theta, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (self.m,):
            raise DomainError(f"theta has shape {arr.shape}, model expects ({self.m},)")
        # a non-finite component lies outside every domain, unbounded ones too
        for t, (lo, hi) in zip(arr.tolist(), self.domain):
            if not (lo <= t <= hi and math.isfinite(t)):
                raise DomainError(f"theta {arr.tolist()} outside domain {self.domain}")
        return arr

    def evaluate(self, theta):
        theta = self._point(theta)
        # the state owns its copy of the amplitudes, so it is normalized
        # in place, with the norm the drift check measured
        state = StateVector(self.space, self.evaluate_fn(theta))
        nrm = np.sqrt(self.space.weight) * np.linalg.norm(state.amplitudes)
        drift = abs(nrm - 1.0)
        if not drift < NORM_DRIFT_TOL:  # a NaN drift fails too
            raise ModelDefinitionError(
                f"norm drift {drift:.3e} at theta {theta.tolist()} "
                f"(limit {NORM_DRIFT_TOL:.0e}); check grid truncation"
            )
        state.amplitudes /= nrm
        return state

    def tangent(self, theta, i):
        """Unnormalized derivative d_i |phi> at theta."""
        theta = self._point(theta)
        if not 0 <= i < self.m:
            raise IndexError(f"component {i} out of range for m={self.m}")
        if self.tangent_fn is not None:
            return StateVector(self.space, self.tangent_fn(theta, i))
        h = self.fd_step * max(1.0, abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        try:
            up, dn = self._point(up), self._point(dn)
        except DomainError:
            raise DomainError(
                f"finite-difference step {h:.1e} in component {i} leaves the "
                f"domain at theta {theta.tolist()}"
            ) from None
        amp = (self.evaluate(up).amplitudes - self.evaluate(dn).amplitudes) / (2.0 * h)
        return StateVector(self.space, amp)

    def horizontal_lift(self, theta):
        theta = self._point(theta)
        phi = self.evaluate(theta)
        lifts = []
        for i in range(self.m):
            t = self.tangent(theta, i)
            l_amp = 2.0 * t.amplitudes - 2.0 * hilbert.inner(phi, t) * phi.amplitudes
            lifts.append(StateVector(self.space, l_amp))
        return HorizontalLift(theta=theta, phi=phi, lifts=tuple(lifts))


@dataclass(frozen=True)
class Curve:
    """Ordered parameter points of a model, optionally closed as rays.

    The points are checked when the curve is evaluated: a point of the
    wrong shape or outside the domain raises :class:`DomainError` there.
    """

    model: PureStateModel
    points: tuple
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

    def ev(theta):
        return c * profile.f(x - theta[0])

    def tangent_fn(theta, i):
        return -c * profile.df(x - theta[0])

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

    def ev(theta):
        return np.exp(-1j * theta[0] * g) * psi0

    def tangent_fn(theta, i):
        return -1j * g * np.exp(-1j * theta[0] * g) * psi0

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

    def ev(theta):
        return np.exp(1j * theta[1] * x) * c * profile.f(x - theta[0])

    def tangent_fn(theta, i):
        plane = np.exp(1j * theta[1] * x)
        if i == 0:
            return -plane * c * profile.df(x - theta[0])
        return 1j * x * plane * c * profile.f(x - theta[0])

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
        BasisSpace(d, labels=tuple(m_values)), ((-np.inf, np.inf),), m_values, amp,
        "spin_jz", np.linspace(0.0, 2.0, 5))


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

    def ev(theta):
        s = np.mod(omega - theta[0], 2.0 * np.pi)
        return c * (2.0 - np.cos(s)) * np.exp(1j * alpha * (s + theta[0]))

    def tangent_fn(theta, i):
        # theta-derivative of the transported profile, taken away from
        # the moving phase step (measure zero on the grid)
        s = np.mod(omega - theta[0], 2.0 * np.pi)
        return -c * np.sin(s) * np.exp(1j * alpha * (s + theta[0]))

    return PureStateModel(
        space=space, m=1, domain=domain, evaluate_fn=ev, tangent_fn=tangent_fn,
        kind="ring_flux",
        sample_grid=tuple((t,) for t in np.linspace(0.5, 5.5, 5)),
    )


def _bloch(params):
    space = BasisSpace(2, labels=("up", "down"))
    domain = _domain(params, ((0.0, np.pi), (-4.0 * np.pi, 4.0 * np.pi)))

    def ev(theta):
        pol, az = theta
        return np.array(
            [np.cos(pol / 2.0), np.exp(1j * az) * np.sin(pol / 2.0)], dtype=complex
        )

    def tangent_fn(theta, i):
        pol, az = theta
        if i == 0:
            return np.array(
                [-0.5 * np.sin(pol / 2.0), 0.5 * np.exp(1j * az) * np.cos(pol / 2.0)],
                dtype=complex,
            )
        return np.array([0.0, 1j * np.exp(1j * az) * np.sin(pol / 2.0)], dtype=complex)

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
