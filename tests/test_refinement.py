"""Results do not depend on discretisation choices: finite-difference step,
grid size and loop subdivision."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qestgeo as qg
from qestgeo import geometry
from qestgeo.holonomy import curvature_check
from qestgeo.hilbert import StateVector
from qestgeo.model import PureStateModel

from conftest import catalog_battery

# ring_flux and two_well are left out: each transported profile has a
# phase step.  Finite differences in theta cannot see ring_flux's step;
# two_well's sits under a double node, and a grid point within one step h
# of it gets an O(h) central-difference error (5.4e-5 against the lift
# norm 3.06 at theta 1.68, n = 1024).
FD_FAMILIES = sorted(set(catalog_battery()) - {"ring_flux", "two_well"})
FRACTIONS = st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2)


def interior_point(mod, fractions):
    """A point strictly inside the domain, clipped to [-3, 3] per component."""
    return tuple(
        max(lo, -3.0) + f * (min(hi, 3.0) - max(lo, -3.0))
        for f, (lo, hi) in zip(fractions, mod.domain)
    )


@pytest.mark.parametrize("name", FD_FAMILIES)
@settings(max_examples=15, deadline=None)
@given(fractions=FRACTIONS)
def test_fd_lifts_match_analytic_lifts(battery, name, fractions):
    mod = battery[name]
    fd = PureStateModel(space=mod.space, m=mod.m, domain=mod.domain,
                        evaluate_fn=mod.evaluate_fn, fd_step=1e-4)
    theta = interior_point(mod, fractions)
    analytic, central = mod.horizontal_lift(theta), fd.horizontal_lift(theta)
    for a, b in zip(analytic.lifts, central.lifts):
        diff = StateVector(mod.space, a.amplitudes - b.amplitudes).norm()
        assert diff <= 1e-6 * max(1.0, a.norm())


SIZES = (512, 4096, 65536)
GRID_FAMILIES = {
    "position_momentum_shift": ("position_momentum_shift", "gaussian"),
    "chirped_position_shift": ("position_shift",
                               {"name": "chirped_gaussian", "chirp": 0.35}),
}


@pytest.fixture(scope="module")
def grid_ladder():
    return {
        key: [qg.catalog(name, {"profile": profile,
                                "grid": {"n": n, "lower": -10, "upper": 10}})
              for n in SIZES]
        for key, (name, profile) in GRID_FAMILIES.items()
    }


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("key", sorted(GRID_FAMILIES))
@settings(max_examples=8, deadline=None)
@given(fractions=FRACTIONS)
def test_geometry_is_stable_across_grid_sizes(grid_ladder, key, fractions):
    models = grid_ladder[key]
    theta = interior_point(models[0], fractions)
    reports = [geometry.analyze(mod, theta) for mod in models]
    finest = reports[-1]
    for rep in reports[:-1]:
        assert_close(rep.sld_fisher, finest.sld_fisher)
        assert_close(rep.berry_curvature, finest.berry_curvature)
        assert_close(rep.betas, finest.betas)


@settings(max_examples=10, deadline=None)
@given(corner=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
       eps=st.floats(0.2, 0.5))
def test_loop_phase_is_stable_under_subdivision(pm_gaussian, corner, eps):
    # phase-space displacements: every subdivision of the square encloses
    # the same area eps^2
    gammas = [curvature_check(pm_gaussian, corner, 0, 1, eps, n_sub=per_side)[0]
              for per_side in (4, 8, 16)]
    assert max(gammas) - min(gammas) <= 1e-9
    assert gammas[0] == pytest.approx(eps * eps, abs=1e-9)
