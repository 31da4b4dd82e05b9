"""Batched evaluation, batched geometry and gauge-covariant differences.

Curves and sample sets are evaluated as one ``(k, dim)`` array per call to
``PureStateModel.evaluate_many``, in blocks of at most
``model.EVALUATE_BLOCK`` amplitudes, with rows bitwise equal to one
``evaluate`` each.  ``geometry.analyze_many`` takes the lifts of a block at
once and one spectral pass over all points, with rows bitwise equal to one
``analyze`` each; ``estimation.fisher_many`` takes the probabilities,
scores and Fisher matrices of a block at once, with rows bitwise equal to
one ``lift_fisher`` and ``sld_fisher`` each.  A catalog model's states and
tangents come from one formula call per block and column tile, bitwise the
states and tangents of separate calls.  Finite differences rephase
each neighbour by its unit link to the state, so lifts do not depend on the
phase gauge of the states; a block's states and neighbours share one
stencil buffer, and its lifts are bitwise those of each point alone.
"""

import dataclasses
import functools
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qestgeo as qg
from qestgeo import cli, estimation, geometry, hilbert, holonomy, model
from qestgeo.errors import (
    DomainError,
    MeasurementDefinitionError,
    ModelDefinitionError,
    RefinementError,
    SingularSupportError,
    SpaceMismatchError,
    SpectralConsistencyError,
)
from qestgeo.estimation import MatrixPovm, grid_pvm
from qestgeo.hilbert import BasisSpace, StateVector
from qestgeo.model import Curve, PureStateModel, broadcasting, rephased

from conftest import catalog_battery, random_unitary_family
from test_cli import run_to_doc
from test_estimation import lift_fisher_cases, octahedral_elements

BATTERY = catalog_battery()
ROOT = Path(__file__).resolve().parents[1]


def random_points(mod, k, rng):
    """``k`` points inside the domain of ``mod``, unbounded ends cut at 3."""
    lo, hi = np.array([(max(a, -3.0), min(b, 3.0)) for a, b in mod.domain]).T
    return rng.uniform(lo, hi, size=(k, mod.m))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# each entry point that takes theta points, on a ragged or non-numeric list
# of points (``many``) or a ragged or non-numeric point (``one``)
MALFORMED_THETA_ENTRIES = {
    "evaluate_many": lambda mod, many, one: mod.evaluate_many(many),
    "horizontal_lifts": lambda mod, many, one: list(mod.horizontal_lifts(many)),
    "analyze_many": lambda mod, many, one: geometry.analyze_many(mod, many),
    "fisher_many": lambda mod, many, one: estimation.fisher_many(grid_pvm(mod.space), mod,
                                                                 many),
    "sample_states": lambda mod, many, one: holonomy.sample_states(mod, many),
    "is_quasi_parallel": lambda mod, many, one: holonomy.is_quasi_parallel(mod, many),
    "transport": lambda mod, many, one: holonomy.berry_phase_open(Curve(mod, many)),
    "evaluate": lambda mod, many, one: mod.evaluate(one),
    "tangent": lambda mod, many, one: mod.tangent(one, 0),
    "horizontal_lift": lambda mod, many, one: mod.horizontal_lift(one),
    "analyze": lambda mod, many, one: geometry.analyze(mod, one),
}


class TestEvaluateMany:
    @pytest.mark.parametrize("rows", [None, 5])
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_rows_are_bitwise_the_per_row_evaluations(self, monkeypatch, name, rows):
        mod = BATTERY[name]
        if rows is not None:  # small blocks: every family crosses the bound
            monkeypatch.setattr(model, "EVALUATE_BLOCK", rows * mod.space.dim)
        per_block = max(1, model.EVALUATE_BLOCK // mod.space.dim)
        thetas = random_points(mod, min(per_block, 200) + 3, np.random.default_rng(4))
        many = mod.evaluate_many(thetas)
        one_by_one = np.array([mod.evaluate(t).amplitudes for t in thetas])
        # the formula on one (m,) point at a time: an unmarked evaluate_fn
        unbatched = dataclasses.replace(mod, evaluate_fn=lambda t: mod.evaluate_fn(t))
        unbatched = unbatched.evaluate_many(thetas)
        # each row divided by its own np.linalg.norm, as a single state is
        reference = []
        for t in thetas:
            amp = np.array(mod.evaluate_fn(t), dtype=complex)
            amp /= np.sqrt(mod.space.weight) * np.linalg.norm(amp)
            reference.append(amp)
        assert same_bits(many, one_by_one)
        assert same_bits(many, unbatched)
        assert same_bits(many, np.array(reference))

    @pytest.mark.parametrize("name", ["bloch", "position_momentum_shift", "two_well"])
    def test_batched_lifts_are_the_per_point_lifts(self, name):
        mod = BATTERY[name]
        thetas = random_points(mod, 4, np.random.default_rng(5))
        for many, theta in zip(mod.horizontal_lifts(thetas), thetas, strict=True):
            one = mod.horizontal_lift(theta)
            assert same_bits(many.theta, one.theta)
            assert same_bits(many.phi.amplitudes, one.phi.amplitudes)
            for a, b in zip(many.lifts, one.lifts, strict=True):
                assert same_bits(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("bad", [5.0, np.nan, np.inf])
    def test_a_bad_row_raises_the_error_of_evaluate(self, bad):
        mod = BATTERY["position_shift"]
        with pytest.raises(DomainError) as one:
            mod.evaluate((bad,))
        with pytest.raises(DomainError) as many:
            mod.evaluate_many([[-1.0], [0.5], [bad], [7.0]])
        assert str(many.value) == str(one.value)

    def test_a_misshapen_point_raises_the_error_of_evaluate(self):
        mod = BATTERY["position_shift"]
        with pytest.raises(DomainError) as one:
            mod.evaluate((0.1, 0.2))
        with pytest.raises(DomainError) as many:
            mod.evaluate_many([[0.1, 0.2], [0.3, 0.4]])
        assert str(many.value) == str(one.value) == "theta has shape (2,), model expects (1,)"

    @pytest.mark.parametrize("many, one", [([[0.1, 0.2], [0.3]], [0.1, [0.2]]),
                                           ([[0.1, 0.2], [0.3, "a"]], [0.1, "a"])],
                             ids=["ragged", "non_numeric"])
    @pytest.mark.parametrize("entry", sorted(MALFORMED_THETA_ENTRIES))
    def test_malformed_thetas_are_domain_errors(self, entry, many, one):
        with pytest.raises(DomainError, match=r"^points are not 2-vectors: "):
            MALFORMED_THETA_ENTRIES[entry](qg.catalog("bloch"), many, one)

    def test_a_drifting_row_raises_the_error_of_evaluate(self):
        def drifting(theta):
            amps = np.zeros(theta.shape[:-1] + (2,), dtype=complex)
            amps[..., 0] = 1.0 + theta[..., 0] ** 2
            return amps

        bad = PureStateModel(space=BasisSpace(2), m=1, domain=((-1.0, 1.0),),
                             evaluate_fn=broadcasting(drifting))
        with pytest.raises(ModelDefinitionError) as one:
            bad.evaluate((0.5,))
        with pytest.raises(ModelDefinitionError) as many:
            bad.evaluate_many([[0.0], [0.5], [0.7]])
        assert str(many.value) == str(one.value)
        assert str(one.value).startswith("norm drift 2.500e-01 at theta [0.5]")

    @pytest.mark.parametrize("block", [None, 512])
    def test_a_bloch_loop_takes_one_call_per_block(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        base = BATTERY["bloch"]
        calls = []

        @broadcasting
        def counted(thetas):
            calls.append(len(thetas))
            return base.evaluate_fn(thetas)

        pts = [(1.1, 2.0 * np.pi * j / 2000) for j in range(2001)]
        got = holonomy.berry_phase_loop(
            Curve(dataclasses.replace(base, evaluate_fn=counted), pts, closed=True))
        rows = max(1, model.EVALUATE_BLOCK // 2)
        assert len(calls) == math.ceil(2001 / rows)
        assert max(calls) == min(rows, 2001)
        want = holonomy.berry_phase_loop(Curve(base, pts, closed=True))
        assert got == want

    def test_the_finest_grid_takes_one_row_per_call(self):
        base = qg.catalog("position_shift", {"grid": {"n": 65536}})
        calls = []

        @broadcasting
        def counted(thetas):
            calls.append(len(thetas))
            return base.evaluate_fn(thetas)

        dataclasses.replace(base, evaluate_fn=counted).evaluate_many([[0.0], [0.1], [0.2]])
        assert calls == [1, 1, 1]

    def test_a_replaced_evaluate_fn_is_called_one_point_at_a_time(self):
        base = BATTERY["bloch"]
        calls = []

        def counted(theta):
            calls.append(theta.shape)
            return base.evaluate_fn(theta)

        got = dataclasses.replace(base, evaluate_fn=counted).evaluate_many(
            random_points(base, 7, np.random.default_rng(6)))
        assert calls == [(2,)] * 7
        assert got.shape == (7, 2)

    def test_lift_memory_does_not_grow_with_the_number_of_points(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 4096}})  # 4 rows a block

        def peak(k):
            thetas = np.linspace(-1.0, 1.0, k)[:, None]
            tracemalloc.start()
            try:
                for lift in mod.horizontal_lifts(thetas):
                    del lift
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block of states and the formula's temporaries of the same size;
        # all 200 lifts at once would take 200 * 2 * 64 kB
        block_bytes = 16 * model.EVALUATE_BLOCK
        few, many = peak(8), peak(200)
        assert many < 8 * block_bytes
        assert many < 1.1 * few


class EvaluateOnly:
    """A duck-typed model: ``m`` and ``evaluate`` and nothing else."""

    def __init__(self, base):
        self.m = base.m
        self.evaluate = base.evaluate


def test_evaluate_only_models_run_through_transport_and_check():
    shift = BATTERY["position_shift"]
    assert (holonomy.is_quasi_parallel(EvaluateOnly(shift), shift.sample_grid)
            == holonomy.is_quasi_parallel(shift, shift.sample_grid))
    bloch = BATTERY["bloch"]
    pts = [(1.1, 2.0 * np.pi * j / 300) for j in range(301)]
    assert (holonomy.berry_phase_loop(Curve(EvaluateOnly(bloch), pts, closed=True))
            == holonomy.berry_phase_loop(Curve(bloch, pts, closed=True)))


# a tabulated spin-1 rotation exp(-i theta J_z) psi0: 11 rows, step 0.1
TABLE_THETAS = 0.1 * np.arange(11)
PSI0 = np.array([0.6, 0.64, 0.48])
M_VALUES = np.array([-1.0, 0.0, 1.0])


def table_spec(phases):
    """The table with row ``k`` multiplied by ``exp(i phases[k])``."""
    rows = []
    for theta, phase in zip(TABLE_THETAS, phases):
        amp = np.exp(1j * (phase - theta * M_VALUES)) * PSI0
        rows.append([[float(a.real), float(a.imag)] for a in amp])
    return {"kind": "tabulated", "space": {"type": "basis", "dimension": 3},
            "thetas": TABLE_THETAS.tolist(), "amplitudes": rows}


SMOOTH_TABLE = cli.parse_model_spec(table_spec(np.zeros(11)))[0]
BLOCH_FD = PureStateModel(space=BATTERY["bloch"].space, m=2, domain=BATTERY["bloch"].domain,
                          evaluate_fn=BATTERY["bloch"].evaluate_fn)


def assert_same_geometry(got, want):
    # to rounding: a difference over the step h carries eps / h, 1e-12 at
    # the default fd_step
    assert got.sld_fisher == pytest.approx(want.sld_fisher, rel=1e-10, abs=1e-10)
    assert got.berry_curvature == pytest.approx(want.berry_curvature, rel=1e-10, abs=1e-10)
    assert got.betas == pytest.approx(want.betas, abs=1e-10)


class TestGaugeCovariance:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=11, max_size=11))
    def test_row_phases_leave_a_table_unchanged(self, phases):
        table = cli.parse_model_spec(table_spec(phases))[0]
        for theta in TABLE_THETAS[1:-1]:
            assert_same_geometry(geometry.analyze(table, (theta,)),
                                 geometry.analyze(SMOOTH_TABLE, (theta,)))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(0.3, 2.8),
           st.floats(-3.0, 3.0))
    def test_fast_gauges_leave_finite_differences_unchanged(self, k0, k1, pol, az):
        gauged = rephased(BLOCH_FD, lambda th: k0 * th[0] + k1 * th[1])
        assert_same_geometry(geometry.analyze(gauged, (pol, az)),
                             geometry.analyze(BLOCH_FD, (pol, az)))

    def test_the_fd_lift_is_the_closed_form_at_a_fast_gauge(self):
        # the old direct difference read 2 cos^2(k h) here: 0.584 at k = 1e4
        gauged = rephased(BLOCH_FD, lambda th: 1e4 * th[0])
        rep = geometry.analyze(gauged, (1.2, 0.4))
        assert rep.sld_fisher == pytest.approx(np.diag([1.0, math.sin(1.2) ** 2]), abs=1e-7)

    def test_report_on_a_random_phase_table_matches_the_smooth_one(self, capsys, tmp_path):
        phases = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 11)
        docs = []
        for name, spec in (("smooth", table_spec(np.zeros(11))),
                           ("random", table_spec(phases))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spec))
            docs.append(run_to_doc(capsys, ["report", "--model", str(path),
                                            "--theta=0.1;0.3;0.5;0.7;0.9"]))
        for got, want in zip(docs[1]["entries"], docs[0]["entries"], strict=True):
            assert got["sld_fisher"][0] == pytest.approx(want["sld_fisher"][0], rel=1e-12)
        # J_S = 4 Var(J_z) = 2.294416, within the O(h^2) of the step 0.1
        assert docs[0]["entries"][2]["sld_fisher"][0][0] == pytest.approx(2.294416, rel=1e-2)

    def test_commands_leave_the_stored_table_rows_unchanged(self, monkeypatch, capsys,
                                                            tmp_path):
        # the difference is written into the neighbours it is given
        tables = []
        build = cli._tabulated_model

        def recorded(space, thetas, table):
            tables.append((table, [row.amplitudes.copy() for row in table]))
            return build(space, thetas, table)

        monkeypatch.setattr(cli, "_tabulated_model", recorded)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table_spec(np.random.default_rng(4).uniform(0.0, 6.0, 11))))
        for argv in (["report", "--theta=0.1;0.3;0.5;0.7;0.9"],
                     ["fisher", "--povm", "basis", "--theta=0.2;0.4;0.6"],
                     ["check", "--samples=0.1;0.5;0.9"]):
            run_to_doc(capsys, [argv[0], "--model", str(path), *argv[1:]])
        assert len(tables) == 3
        for table, stored in tables:
            for row, want in zip(table, stored, strict=True):
                assert same_bits(row.amplitudes, want)

    def test_an_orthogonal_neighbour_has_no_link(self, capsys, tmp_path):
        up, down = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
        spec = {"kind": "tabulated", "space": {"type": "basis", "dimension": 2},
                "thetas": [0.0, 0.1, 0.2], "amplitudes": [up, down, up]}
        table = cli.parse_model_spec(spec)[0]
        with pytest.raises(RefinementError, match="near-orthogonal"):
            table.horizontal_lift((0.1,))
        path = tmp_path / "flip.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["report", "--model", str(path), "--theta=0.1"]) == 3
        assert "near-orthogonal" in capsys.readouterr().err


def same_report(a, b):
    return (same_bits(a.theta, b.theta) and same_bits(a.sld_fisher, b.sld_fisher)
            and same_bits(a.berry_curvature, b.berry_curvature)
            and (a.d_matrix is None) == (b.d_matrix is None)
            and (a.d_matrix is None or same_bits(a.d_matrix, b.d_matrix))
            and a.betas == b.betas and a.cr_js == b.cr_js
            and a.quasi_classical == b.quasi_classical
            and a.rank_deficient == b.rank_deficient)


def unmarked_tangent(base, calls):
    """``base`` with its closed-form tangent called one point at a time."""

    def tangent(theta, i):
        calls.append((theta.shape, i))
        return base.tangent_fn(theta, i)

    return dataclasses.replace(base, tangent_fn=tangent)


ANALYZED = {
    **BATTERY,
    "bloch_fd": BLOCH_FD,
    "pm_fd": dataclasses.replace(BATTERY["position_momentum_shift"], tangent_fn=None),
    "bloch_unmarked": unmarked_tangent(BATTERY["bloch"], []),
}


class TestAnalyzeMany:
    @pytest.mark.parametrize("name", sorted(ANALYZED))
    def test_rows_are_bitwise_the_one_point_reports(self, name):
        mod = ANALYZED[name]
        thetas = random_points(mod, 7, np.random.default_rng(8))
        many = geometry.analyze_many(mod, thetas)
        assert len(many) == len(thetas)
        for rep, theta in zip(many, thetas):
            assert same_report(rep, geometry.analyze(mod, theta))

    def test_table_rows_are_bitwise_the_one_point_reports(self):
        thetas = TABLE_THETAS[1:-1, None]
        for rep, theta in zip(geometry.analyze_many(SMOOTH_TABLE, thetas), thetas,
                              strict=True):
            assert same_report(rep, geometry.analyze(SMOOTH_TABLE, theta))

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("name", ["bloch", "position_momentum_shift", "spin_jz"])
    def test_a_row_does_not_depend_on_its_batch(self, monkeypatch, name, rows):
        mod = BATTERY[name]
        thetas = random_points(mod, 50, np.random.default_rng(9))
        alone = [geometry.analyze(mod, theta) for theta in thetas]
        if rows is not None:  # 50 points cross several block bounds
            monkeypatch.setattr(model, "EVALUATE_BLOCK", rows * mod.space.dim)
        for got, want in zip(geometry.analyze_many(mod, thetas), alone, strict=True):
            assert same_report(got, want)

    def test_rank_deficient_rows_leave_the_others_alone(self):
        bloch = BATTERY["bloch"]
        thetas = random_points(bloch, 6, np.random.default_rng(10))
        regular = geometry.analyze_many(bloch, thetas)
        mixed_thetas = thetas.copy()
        mixed_thetas[[1, 4], 0] = 0.0  # the poles: sin(pol) = 0, J_S singular
        mixed = geometry.analyze_many(bloch, mixed_thetas)
        eye = [np.eye(2)] * len(mixed)
        bounds = geometry.sld_bounds(mixed, eye)
        for r, rep in enumerate(mixed):
            if r in (1, 4):
                assert rep.rank_deficient and rep.d_matrix is None
                assert rep.cr_js is None and rep.betas == () and bounds[r] is None
            else:
                assert same_report(rep, regular[r])
                assert bounds[r] == rep.sld_bound(np.eye(2))

    def test_a_beta_above_one_in_a_batch_is_rejected(self, monkeypatch):
        gram = geometry._gram
        fake = np.array([[1.0, 1.1j], [-1.1j, 1.0]])

        def one_bad_row(coords):
            g = gram(coords)
            g[3] = fake
            return g

        monkeypatch.setattr(geometry, "_gram", one_bad_row)
        bloch = BATTERY["bloch"]
        with pytest.raises(SpectralConsistencyError, match="beta = 1.10000000 exceeds 1"):
            geometry.analyze_many(bloch, random_points(bloch, 6, np.random.default_rng(11)))

    def test_an_odd_m_report_reads_the_rows_of_analyze_many(self, monkeypatch, capsys):
        # m = 3, so a row has two pair values and at most one beta; the rows
        # are rank-deficient, regular without a beta, and regular with one
        fakes = np.array([[[1, 0.5j, 0], [-0.5j, 1, 0], [0, 0, 0]],
                          [[2, 0.3, 0], [0.3, 1, 0], [0, 0, 1.5]],
                          [[1, 0.5j, 0], [-0.5j, 1, 0], [0, 0, 1]]])
        gram = geometry._gram

        def fake_rows(coords):
            g = gram(coords)
            g[:] = fakes
            return g

        mod = random_unitary_family(4, 3, np.random.default_rng(14))
        thetas = random_points(mod, 3, np.random.default_rng(15))
        monkeypatch.setattr(geometry, "_gram", fake_rows)
        monkeypatch.setattr(cli, "_load_model", lambda path: (mod, {"kind": "test"}))
        reports = geometry.analyze_many(mod, thetas)
        assert [(rep.rank_deficient, len(rep.betas)) for rep in reports] == [
            (True, 0), (False, 0), (False, 1)]
        doc = run_to_doc(capsys, ["report", "--model", "-", "--weight", "diag:1,2,3",
                                  theta_arg(thetas)])
        weight = np.diag([1.0, 2.0, 3.0])
        for entry, rep in zip(doc["entries"], reports, strict=True):
            ok = not rep.rank_deficient
            assert entry == {
                "theta": rep.theta.tolist(),
                "sld_fisher": rep.sld_fisher.tolist(),
                "berry_curvature": rep.berry_curvature.tolist(),
                "d_transform": rep.d_matrix.tolist() if ok else None,
                "betas": list(rep.betas),
                "sld_bound_js": rep.sld_bound(rep.sld_fisher) if ok else None,
                "attainable_cr_js": rep.cr_js,
                "quasi_classical": rep.quasi_classical,
                "rank_deficient": rep.rank_deficient,
                "sld_bound_weight": rep.sld_bound(weight) if ok else None,
            }
        assert doc["summary"] == {
            "all_quasi_classical": all(rep.quasi_classical for rep in reports),
            "any_rank_deficient": any(rep.rank_deficient for rep in reports),
            "max_beta": max(b for rep in reports for b in rep.betas),
        }

    @pytest.mark.parametrize("weight, solves", [(None, 2), ("js", 3), ("diag:1,2", 3)])
    def test_a_report_takes_one_spectral_pass(self, monkeypatch, capsys, tmp_path,
                                              weight, solves):
        counts = dict.fromkeys(("eigh", "eigvalsh", "svd", "solve"), 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        thetas = random_points(BATTERY["bloch"], 50, np.random.default_rng(12))
        thetas[7, 0] = 0.0  # one rank-deficient point
        argv = ["report", "--model", str(path),
                "--theta=" + ";".join(f"{a!r},{b!r}" for a, b in thetas.tolist())]
        doc = run_to_doc(capsys, argv + (["--weight", weight] if weight else []))
        assert len(doc["entries"]) == 50
        assert [e["sld_bound_js"] is None for e in doc["entries"]] == [r == 7 for r in range(50)]
        # one solve for D and one per bound
        assert counts == {"eigh": 1, "eigvalsh": 0, "svd": 1, "solve": solves}

    def test_an_unmarked_tangent_is_called_m_times_per_point(self):
        calls = []
        mod = unmarked_tangent(BATTERY["bloch"], calls)
        geometry.analyze_many(mod, random_points(mod, 5, np.random.default_rng(13)))
        assert calls == [((2,), i) for _ in range(5) for i in range(2)]

    def test_a_marked_tangent_is_called_m_times_per_block(self, monkeypatch):
        base = BATTERY["position_shift"]  # n = 512: 32 points a block
        calls = []

        @broadcasting
        def tangent(theta, i):
            calls.append(theta.shape)
            return base.tangent_fn(theta, i)

        mod = dataclasses.replace(base, tangent_fn=tangent)
        geometry.analyze_many(mod, random_points(mod, 40, np.random.default_rng(14)))
        assert calls == [(32, 1), (8, 1)]

    def test_a_finite_difference_step_names_the_first_point_that_leaves(self):
        fd = dataclasses.replace(BATTERY["position_shift"], tangent_fn=None)
        with pytest.raises(DomainError) as one:
            fd.horizontal_lift((1.9999,))
        with pytest.raises(DomainError) as many:
            geometry.analyze_many(fd, [[0.5], [1.9999], [-1.99995]])
        assert str(many.value) == str(one.value)
        assert str(one.value) == ("finite-difference step 2.0e-04 in component 0 "
                                  "leaves the domain at theta [1.9999]")

    def test_a_link_is_named_by_its_index_on_the_last_axis(self):
        with pytest.raises(RefinementError, match="link 1 is near-orthogonal"):
            holonomy.unit_links(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_fisher_and_report_give_the_same_metric(self, capsys, tmp_path):
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        theta = "--theta=0.4,0.1;1.3,-2.0;2.5,0.7"
        report = run_to_doc(capsys, ["report", "--model", str(path), theta])
        fisher = run_to_doc(capsys, ["fisher", "--model", str(path), "--povm", "basis",
                                     theta])
        assert ([e["sld_fisher"] for e in fisher["entries"]]
                == [e["sld_fisher"] for e in report["entries"]])


def formula_models():
    """Every catalog family, the shift families on every profile."""
    grid = {"n": 512, "lower": -10, "upper": 10}
    profiles = {"gaussian": "gaussian", "hermite": {"name": "hermite", "n": 3},
                "boosted": {"name": "boosted_gaussian", "p0": 1.3},
                "chirped": {"name": "chirped_gaussian", "chirp": 0.4}}
    models = {f"{name}:{key}": qg.catalog(name, {"profile": profile, "grid": grid})
              for name in ("position_shift", "position_momentum_shift", "momentum_shift")
              for key, profile in profiles.items()}
    return {**models, **{name: BATTERY[name]
                         for name in ("two_well", "ring_flux", "spin_jz", "bloch")}}


FORMULA_MODELS = formula_models()


def separate(mod):
    """``mod`` with its two faces behind marked wrappers: a state and each
    tangent from its own call over whole rows."""
    return dataclasses.replace(
        mod, evaluate_fn=broadcasting(lambda theta: mod.evaluate_fn(theta)),
        tangent_fn=broadcasting(lambda theta, i: mod.tangent_fn(theta, i)))


def counted_formula(monkeypatch, mod):
    """``(block rows, tile, components)`` of each call of the formula behind
    ``mod``'s faces."""
    formula = mod.evaluate_fn.__self__
    calls, fn = [], formula.fn

    def counted(theta, cols, components):
        calls.append((len(theta), cols, tuple(components)))
        return fn(theta, cols, components)

    monkeypatch.setattr(formula, "fn", counted)
    return calls


class TestJointPass:
    @pytest.mark.parametrize("tiles", ["default", "uneven"])
    @pytest.mark.parametrize("name", sorted(FORMULA_MODELS))
    def test_joint_lifts_are_bitwise_the_separate_lifts(self, monkeypatch, name, tiles):
        mod = FORMULA_MODELS[name]
        thetas = random_points(mod, 40, np.random.default_rng(17))
        want = [(states.copy(), lifts.copy())
                for _, states, lifts in separate(mod)._lift_blocks(thetas)]
        if tiles == "uneven":  # n = 512: tiles of 200, 200 and 112 amplitudes
            monkeypatch.setattr(model, "EVALUATE_BLOCK", min(200, mod.space.dim - 1))
            want = [(s[r:r + 1], l[r:r + 1]) for s, l in want for r in range(len(s))]
        got = [(states, lifts) for _, states, lifts in mod._lift_blocks(thetas)]
        assert len(got) == len(want)
        for (states, lifts), (want_states, want_lifts) in zip(got, want):
            assert same_bits(states, want_states)
            assert same_bits(lifts, want_lifts)

    @pytest.mark.parametrize("name", sorted(FORMULA_MODELS))
    def test_the_faces_are_the_formula_on_whole_rows(self, name):
        mod = FORMULA_MODELS[name]
        thetas = random_points(mod, 3, np.random.default_rng(18))
        fn = mod.evaluate_fn.__self__.fn
        states, tangents = fn(thetas, slice(None), tuple(range(mod.m)))
        assert same_bits(mod.evaluate_fn(thetas), states)
        for i in range(mod.m):
            assert same_bits(mod.tangent_fn(thetas, i), tangents[:, i])
            assert same_bits(mod.tangent_fn(thetas[0], i), tangents[0, i])

    @pytest.mark.parametrize("block, tiles", [(None, [slice(0, 512)]),
                                              (200, [slice(0, 200), slice(200, 400),
                                                     slice(400, 600)])])
    def test_a_lift_block_makes_one_formula_call_per_tile(self, monkeypatch, block, tiles):
        mod = qg.catalog("position_momentum_shift", {"grid": {"n": 512}})
        if block is not None:
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        calls = counted_formula(monkeypatch, mod)
        geometry.analyze_many(mod, random_points(mod, 40, np.random.default_rng(19)))
        rows = [32, 8] if block is None else [1] * 40
        assert calls == [(k, tile, (0, 1)) for k in rows for tile in tiles]

    def test_evaluation_computes_no_tangent(self, monkeypatch):
        mod = qg.catalog("position_momentum_shift", {"grid": {"n": 512}})
        calls = counted_formula(monkeypatch, mod)
        thetas = random_points(mod, 40, np.random.default_rng(20))
        mod.evaluate_many(thetas)
        holonomy.sample_states(mod, thetas)
        geometry.analyze_many(dataclasses.replace(mod, tangent_fn=None), thetas[:3])
        assert calls and {components for _, _, components in calls} == {()}
        del calls[:]
        mod.tangent(thetas[0], 1)
        assert calls == [(1, slice(None), (1,))]

    def test_a_replaced_or_wrapped_face_breaks_the_pair(self, monkeypatch):
        mod = qg.catalog("position_shift", {"grid": {"n": 512}})
        calls = counted_formula(monkeypatch, mod)
        wrapped = functools.wraps(mod.evaluate_fn)(lambda theta: mod.evaluate_fn(theta))
        for other in (separate(mod), dataclasses.replace(mod, evaluate_fn=wrapped)):
            del calls[:]
            other.horizontal_lift((0.3,))
            assert calls == [(1, slice(None), ()), (1, slice(None), (0,))]

    @pytest.mark.parametrize("name, params", [
        ("position_momentum_shift", {}),
        ("position_shift", {"profile": {"name": "chirped_gaussian", "chirp": 0.3}})])
    def test_analyze_on_the_finest_grid_keeps_tile_sized_temporaries(self, name, params):
        mod = qg.catalog(name, {**params, "grid": {"n": 65536}})
        theta = np.full(mod.m, 0.3)
        geometry.analyze(mod, theta)
        tracemalloc.start()
        try:
            geometry.analyze(mod, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the states and lifts of the one-row block, the Gram's conjugate
        # copy of the lifts and six tiles; whole-row temporaries took three
        # more rows at m = 2 and five more at m = 1
        row = 16 * mod.space.dim
        assert peak < (1 + 2 * mod.m) * row + 6 * 16 * model.EVALUATE_BLOCK

    @pytest.mark.parametrize("block", [None, 200])
    def test_a_rephased_tangent_takes_its_state_from_the_same_base_call(self, monkeypatch,
                                                                        block):
        pm = qg.catalog("position_momentum_shift", {"grid": {"n": 512}})

        def alpha(theta):
            return 0.3 * theta[0] - 0.7 * theta[1]

        def grad_alpha(theta):
            return np.array([0.3, -0.7])

        gauged = rephased(pm, alpha, grad_alpha)

        def two_call_tangent(theta, i):  # the base tangent and state from separate calls
            phi = pm.evaluate_fn(theta)
            return np.exp(1j * alpha(theta)) * (pm.tangent_fn(theta, i)
                                                + 1j * grad_alpha(theta)[i] * phi)

        two_calls = dataclasses.replace(gauged, tangent_fn=two_call_tangent)
        want = two_calls.horizontal_lift((0.2, -0.4))
        if block is not None:  # n = 512: the base in tiles of 200, 200 and 112 columns
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        calls = counted_formula(monkeypatch, pm)
        got = gauged.horizontal_lift((0.2, -0.4))
        tiles = 1 if block is None else 3
        assert [components for _, _, components in calls] == [
            components for components in [(), (0,), (1,)] for _ in range(tiles)]
        assert all(len(range(512)[cols]) <= model.EVALUATE_BLOCK for _, cols, _ in calls)
        assert same_bits(got.phi.amplitudes, want.phi.amplitudes)
        for a, b in zip(got.lifts, want.lifts, strict=True):
            assert same_bits(a.amplitudes, b.amplitudes)


def parsed_table(spec):
    """The model of a table spec and the rows the parser stored for it."""
    stored, build = [], cli._tabulated_model

    def keep(space, thetas, table):
        stored.extend(row.amplitudes for row in table)
        return build(space, thetas, table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_tabulated_model", keep)
        return cli.parse_model_spec(spec)[0], stored


def reference_table_lift(mod, rows, k):
    """The lift at table row ``k`` alone: the row normalized, the central
    difference of copies of its neighbours rephased onto it, projected."""
    phi = rows[k] / (np.sqrt(mod.space.weight) * np.linalg.norm(rows[k]))
    step = float(TABLE_THETAS[1] - TABLE_THETAS[0])
    t = model._transported_difference(mod.space, np.conj(rows[k]), rows[k + 1].copy(),
                                      rows[k - 1].copy(), step)
    lift = 2.0 * t - (2.0 * mod.space.weight * model._dots(phi, t)) * phi
    return model.HorizontalLift(theta=TABLE_THETAS[k:k + 1],
                                phi=StateVector._adopt(mod.space, phi),
                                lifts=(StateVector._adopt(mod.space, lift),))


RANDOM_PHASE_TABLE = table_spec(np.random.default_rng(31).uniform(0.0, 2.0 * np.pi, 11))


class TestTableFormula:
    @pytest.mark.parametrize("block, tiles", [(None, [slice(0, 3)]),
                                              (2, [slice(0, 2), slice(2, 4)])])
    def test_a_lift_block_makes_one_formula_call_per_tile(self, monkeypatch, block, tiles):
        table = parsed_table(RANDOM_PHASE_TABLE)[0]
        assert isinstance(table._formula, model._Formula)
        if block is not None:  # narrower than a row of 3: a point a block
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        calls = counted_formula(monkeypatch, table)
        geometry.analyze_many(table, TABLE_THETAS[1:-1, None])
        rows = [9] if block is None else [1] * 9
        assert calls == [(k, tile, (0,)) for k in rows for tile in tiles]

    @pytest.mark.parametrize("block", [None, 2])
    def test_lifts_and_reports_are_bitwise_the_per_point_recipe(self, monkeypatch, block):
        table, rows = parsed_table(RANDOM_PHASE_TABLE)
        want = [reference_table_lift(table, rows, k) for k in range(1, 10)]
        if block is not None:
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        thetas = TABLE_THETAS[1:-1, None]
        for lift, ref in zip(table.horizontal_lifts(thetas), want, strict=True):
            assert same_bits(lift.phi.amplitudes, ref.phi.amplitudes)
            assert same_bits(lift.lifts[0].amplitudes, ref.lifts[0].amplitudes)
        for rep, ref in zip(geometry.analyze_many(table, thetas), want, strict=True):
            assert same_bits(rep.sld_fisher, geometry.sld_fisher(ref))
            assert same_bits(rep.berry_curvature, geometry.berry_curvature(ref))

    def test_an_off_grid_theta_fails_before_an_edge_theta(self):
        table = parsed_table(RANDOM_PHASE_TABLE)[0]
        for thetas in ([[0.0], [0.05]], [[0.05], [0.0]]):
            with pytest.raises(DomainError, match=r"only at the table points; got 0\.05$"):
                geometry.analyze_many(table, thetas)
        with pytest.raises(DomainError, match="need an interior table point"):
            geometry.analyze_many(table, [[0.5], [1.0]])
        with pytest.raises(DomainError, match="only at the table points; got nan$"):
            table.evaluate_fn(np.array([[0.5], [np.nan]]))

    def test_a_tangent_at_one_point_writes_no_row(self):
        # an index of a 0-d k plus one is a scalar: a view, not a copy
        table, rows = parsed_table(RANDOM_PHASE_TABLE)
        before = table.evaluate_fn(TABLE_THETAS[:, None])
        table.tangent_fn(np.array([0.5]), 0)
        assert same_bits(table.evaluate_fn(TABLE_THETAS[:, None]), before)
        assert same_bits(before, np.array(rows))


def short(fn, marked):
    """``fn`` without the last amplitude of each row, marked or not."""

    def cut(*args):
        return np.asarray(fn(*args))[..., :-1]

    return broadcasting(cut) if marked else cut


class TestUserFunctions:
    @pytest.mark.parametrize("marked", [True, False])
    @pytest.mark.parametrize("call", ["evaluate_many", "horizontal_lift", "tangent",
                                      "fd analyze_many"])
    def test_a_short_evaluate_fn_is_a_space_mismatch(self, call, marked):
        bloch = BATTERY["bloch"]
        fd = call in ("tangent", "fd analyze_many")  # an analytic tangent needs no state
        mod = dataclasses.replace(bloch, evaluate_fn=short(bloch.evaluate_fn, marked),
                                  tangent_fn=None if fd else bloch.tangent_fn)
        thetas = random_points(mod, 3, np.random.default_rng(24))
        run = {"evaluate_many": lambda: mod.evaluate_many(thetas),
               "horizontal_lift": lambda: mod.horizontal_lift(thetas[0]),
               "tangent": lambda: mod.tangent(thetas[0], 1),
               "fd analyze_many": lambda: geometry.analyze_many(mod, thetas)}[call]
        with pytest.raises(SpaceMismatchError,
                           match=r"^amplitudes have shape \(1,\), space has dimension 2$"):
            run()

    @pytest.mark.parametrize("marked", [True, False])
    @pytest.mark.parametrize("call", ["horizontal_lift", "tangent", "analyze_many"])
    def test_a_short_tangent_fn_is_a_space_mismatch(self, call, marked):
        bloch = BATTERY["bloch"]
        mod = dataclasses.replace(bloch, tangent_fn=short(bloch.tangent_fn, marked))
        thetas = random_points(mod, 3, np.random.default_rng(25))
        run = {"horizontal_lift": lambda: mod.horizontal_lift(thetas[0]),
               "tangent": lambda: mod.tangent(thetas[0], 0),
               "analyze_many": lambda: geometry.analyze_many(mod, thetas)}[call]
        with pytest.raises(SpaceMismatchError,
                           match=r"^amplitudes have shape \(1,\), space has dimension 2$"):
            run()

    @pytest.mark.parametrize("marked", [True, False])
    def test_a_block_raises_the_pairs_own_errors_before_norm_drift(self, marked):
        # the states drift at theta <= 0, the tangent is undefined at theta >= 0
        def evaluate(theta):
            amps = np.zeros(theta.shape[:-1] + (2,), dtype=complex)
            amps[..., 0] = np.where(theta[..., 0] <= 0.0, 2.0, 1.0)
            return amps

        def tangent(theta, i):
            if np.any(theta[..., 0] >= 0.0):
                raise ValueError("tangent undefined")
            return np.zeros(theta.shape[:-1] + (2,), dtype=complex)

        mark = broadcasting if marked else (lambda fn: fn)
        pair = PureStateModel(space=BasisSpace(2), m=1, domain=((-1.0, 1.0),),
                              evaluate_fn=mark(evaluate), tangent_fn=mark(tangent))
        with pytest.raises(ValueError, match="tangent undefined"):
            pair.horizontal_lift((0.0,))
        with pytest.raises(ValueError, match="tangent undefined"):  # row 1's, before row 0's drift
            geometry.analyze_many(pair, [[-0.5], [0.5]])
        with pytest.raises(ModelDefinitionError, match=r"^norm drift 1.000e\+00 at theta \[-0.5\]"):
            pair.evaluate_many([[0.5], [-0.5], [0.0]])


def reference_tangent(mod, theta, i):
    """The central difference at one theta alone, out of place: the state
    from one ``_states`` call, its two neighbours in component ``i`` from
    another, rephased by their unit links and differenced."""
    point = mod._points(np.asarray(theta)[None])
    phi = mod._states(point)[0]
    h = mod.fd_step * max(1.0, abs(point[0, i]))
    nbrs = np.repeat(point, 2, axis=0)
    nbrs[0, i] += h
    nbrs[1, i] -= h
    up, dn = mod._states(nbrs)
    links, _ = holonomy.unit_links(
        mod.space.weight * np.array([model._dots(phi, up), model._dots(phi, dn)]))
    return phi, (np.conj(links[0]) * up - np.conj(links[1]) * dn) / (2.0 * h)


def reference_lift(mod, theta):
    """The lift ``2 t - 2 <phi|t> phi`` of each :func:`reference_tangent`."""
    lifts = []
    for i in range(mod.m):
        phi, t = reference_tangent(mod, theta, i)
        ov = mod.space.weight * model._dots(phi, t)
        lifts.append(2.0 * t - (2.0 * ov) * phi)
    return model.HorizontalLift(theta=theta, phi=StateVector._adopt(mod.space, phi),
                                lifts=tuple(StateVector._adopt(mod.space, l) for l in lifts))


def fd_models():
    """Every formula family without its tangent, a marked and an unmarked
    user ``evaluate_fn`` and a rephased finite-difference family."""
    models = {name: dataclasses.replace(mod, tangent_fn=None)
              for name, mod in FORMULA_MODELS.items()}
    pm = models["position_momentum_shift:chirped"]
    models["marked"] = dataclasses.replace(
        pm, evaluate_fn=broadcasting(lambda theta: pm.evaluate_fn(theta)))
    models["unmarked"] = dataclasses.replace(pm, evaluate_fn=lambda theta: pm.evaluate_fn(theta))
    models["rephased_bloch"] = rephased(BLOCH_FD, lambda th: 3.0 * th[0] + 7.0 * th[1])
    return models


FD_MODELS = fd_models()


class TestStencil:
    @pytest.mark.parametrize("block", ["default", "uneven"])
    @pytest.mark.parametrize("name", sorted(FD_MODELS))
    def test_lifts_and_reports_are_bitwise_the_per_point_reference(self, monkeypatch,
                                                                   name, block):
        mod = FD_MODELS[name]
        thetas = random_points(mod, 9, np.random.default_rng(21))
        want = [reference_lift(mod, theta) for theta in thetas]
        if block == "uneven":  # n = 512: one point a block, stencil tiles of 40 or 66
            monkeypatch.setattr(model, "EVALUATE_BLOCK", min(200, mod.space.dim - 1))
        got = [lift for lift in mod.horizontal_lifts(thetas)]
        for lift, ref in zip(got, want, strict=True):
            assert same_bits(lift.phi.amplitudes, ref.phi.amplitudes)
            for a, b in zip(lift.lifts, ref.lifts, strict=True):
                assert same_bits(a.amplitudes, b.amplitudes)
        for rep, ref in zip(geometry.analyze_many(mod, thetas), want, strict=True):
            assert same_bits(rep.sld_fisher, geometry.sld_fisher(ref))
            assert same_bits(rep.berry_curvature, geometry.berry_curvature(ref))

    @pytest.mark.parametrize("block", [None, 200])
    def test_a_lift_block_makes_one_call_per_stencil_block_and_tile(self, monkeypatch,
                                                                    block):
        mod = dataclasses.replace(qg.catalog("position_momentum_shift", {"grid": {"n": 512}}),
                                  tangent_fn=None)
        if block is not None:
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        calls = counted_formula(monkeypatch, mod)
        geometry.analyze_many(mod, random_points(mod, 40, np.random.default_rng(22)))
        if block is None:  # blocks of 32 and 8 points, 6 whole stencils of 5 rows a call
            want = [(5 * k, slice(0, 512), ()) for k in [6] * 5 + [2] + [6, 2]]
        else:  # a point a block, its 5 rows in tiles of 40 amplitudes
            want = [(5, slice(a, a + 40), ()) for _ in range(40) for a in range(0, 512, 40)]
        assert calls == want
        assert all(rows * len(range(512)[tile]) <= model.EVALUATE_BLOCK
                   for rows, tile, _ in calls)

    @pytest.mark.parametrize("block", [None, 200])
    def test_a_user_evaluate_fn_takes_whole_stencils_and_whole_rows(self, monkeypatch, block):
        pm = qg.catalog("position_momentum_shift", {"grid": {"n": 512}})
        if block is not None:
            monkeypatch.setattr(model, "EVALUATE_BLOCK", block)
        tiles, evaluated = [], []
        adapter = PureStateModel._adapter

        def recorded(self, theta, cols, components):
            tiles.append(range(self.space.dim)[cols])
            return adapter(self, theta, cols, components)

        monkeypatch.setattr(PureStateModel, "_adapter", recorded)

        def counted(theta):
            evaluated.append(theta.shape)
            return pm.evaluate_fn(theta)

        thetas = random_points(pm, 40, np.random.default_rng(26))
        # marked: groups of max(1, EVALUATE_BLOCK // (5 * 512)) stencils of
        # 5 rows in blocks of 32 and 8 points, or one a block; unmarked: a point
        marked = [5 * k for k in [6] * 5 + [2] + [6, 2]] if block is None else [5] * 40
        for fn, want in ((broadcasting(lambda theta: counted(theta)),
                          [(rows, 2) for rows in marked]),
                         (counted, [(2,)] * (5 * 40))):
            del evaluated[:]
            geometry.analyze_many(dataclasses.replace(pm, evaluate_fn=fn, tangent_fn=None),
                                  thetas)
            assert evaluated == want
        assert tiles and all(cols == range(512) for cols in tiles)

    @pytest.mark.parametrize("points", ["tangent", "lift_block"])
    def test_a_tangent_evaluates_only_its_components_neighbours(self, monkeypatch, points):
        mod = dataclasses.replace(qg.catalog("position_momentum_shift", {"grid": {"n": 512}}),
                                  tangent_fn=None)
        formula, thetas = mod.evaluate_fn.__self__, []
        fn = formula.fn

        def recorded(theta, cols, components):
            thetas.append(theta.copy())
            return fn(theta, cols, components)

        monkeypatch.setattr(formula, "fn", recorded)
        theta = np.array([0.3, -0.7])
        h = mod.fd_step * 1.0
        if points == "tangent":
            mod.tangent(theta, 1)
            assert len(thetas) == 1
            assert same_bits(thetas[0], np.array([theta, theta + [0.0, h], theta - [0.0, h]]))
            return
        # two points, both components: each point's stencil in turn, in one call
        other = np.array([-1.5, 0.4])
        list(mod.horizontal_lifts([theta, other]))
        h0 = mod.fd_step * 1.5
        want = [theta, theta + [h, 0.0], theta - [h, 0.0], theta + [0.0, h], theta - [0.0, h],
                other, other + [h0, 0.0], other - [h0, 0.0], other + [0.0, h], other - [0.0, h]]
        assert len(thetas) == 1
        assert same_bits(thetas[0], np.array(want))

    @pytest.mark.parametrize("name", sorted(FD_MODELS))
    def test_a_tangent_is_the_stencil_of_its_component(self, name):
        mod = FD_MODELS[name]
        theta = random_points(mod, 1, np.random.default_rng(23))[0]
        for i in range(mod.m):
            assert same_bits(mod.tangent(theta, i).amplitudes,
                             reference_tangent(mod, theta, i)[1])

    def test_analyze_keeps_one_stencil_buffer(self):
        mod = dataclasses.replace(qg.catalog("position_momentum_shift", {"grid": {"n": 65536}}),
                                  tangent_fn=None)
        theta = np.full(2, 0.3)
        geometry.analyze(mod, theta)
        tracemalloc.start()
        try:
            geometry.analyze(mod, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the state and its 2m neighbours in one buffer and the Gram's
        # conjugate copy of the m = 2 lifts; separate neighbour, difference
        # and temporary arrays took two rows more
        row = 16 * mod.space.dim
        assert peak < (1 + 2 * mod.m + 2) * row + 2 * 16 * model.EVALUATE_BLOCK

    @pytest.mark.parametrize("profile", ["gaussian", {"name": "hermite", "n": 3},
                                         {"name": "chirped_gaussian", "chirp": 0.4}])
    @pytest.mark.parametrize("n", [512, 4096, 65536])  # 4096: four rows a block, 256 kB
    def test_rows_that_share_a_coordinate_are_the_rows_alone(self, n, profile):
        mod = qg.catalog("position_momentum_shift", {"profile": profile, "grid": {"n": n}})
        side = np.linspace(-1.0, 1.0, 4)
        h = mod.fd_step
        rectangle = [(t, -0.5) for t in side] + [(1.0, t) for t in side]
        stencil = [(0.3, 0.2), (0.3 + h, 0.2), (0.3, 0.2 + h), (0.3 - h, 0.2), (0.3, 0.2 - h)]
        thetas = np.array(rectangle + stencil + [(0.0, 0.0), (-0.0, -0.0)])
        many = mod.evaluate_many(thetas)
        for row, theta in zip(many, thetas, strict=True):
            assert same_bits(row, mod.evaluate(theta).amplitudes)
        # one formula call over all rows: the evaluation of a fine grid takes a row a call
        states, tangents = mod.evaluate_fn.__self__.fn(thetas, slice(None), (0, 1))
        for r, theta in enumerate(thetas):
            alone, alone_tangents = mod.evaluate_fn.__self__.fn(theta[None], slice(None), (0, 1))
            assert same_bits(states[r], alone[0])
            assert same_bits(tangents[r], alone_tangents[0])


def fisher_cases():
    """The ``lift_fisher`` cases with seven more thetas each, and the Bloch
    family on a rank-2 octahedral and on the basis POVM at thetas that mix
    clipped rows (the poles) with rows that keep every outcome."""
    rng = np.random.default_rng(15)
    cases = {name: (mod, povm, np.concatenate([np.asarray(thetas, dtype=float),
                                               random_points(mod, 7, rng)]))
             for name, (mod, povm, thetas) in lift_fisher_cases().items()}
    bloch = BATTERY["bloch"]
    poles = np.array([(0.7, 0.2), (0.0, 0.3), (1.1, 4.0), (np.pi, 1.0), (2.0, -1.0)])
    cases["octahedral_poles"] = (bloch, MatrixPovm(octahedral_elements()), poles)
    cases["basis_poles"] = (bloch, grid_pvm(bloch.space), poles)
    return cases


FISHER_CASES = fisher_cases()


def theta_arg(thetas):
    return "--theta=" + ";".join(",".join(map(repr, row)) for row in thetas.tolist())


class TestFisherMany:
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("case", sorted(FISHER_CASES))
    def test_cli_entries_are_bitwise_the_per_point_lifts(self, monkeypatch, capsys,
                                                         case, rows):
        mod, povm, thetas = FISHER_CASES[case]
        lifts = [mod.horizontal_lift(theta) for theta in thetas]
        want_c = np.array([estimation.lift_fisher(povm, lift) for lift in lifts])
        want_s = np.array([geometry.sld_fisher(lift) for lift in lifts])
        if rows is not None:  # three rows a block: the thetas cross block bounds
            monkeypatch.setattr(model, "EVALUATE_BLOCK", rows * mod.space.dim)
        j_c, j_s = estimation.fisher_many(povm, mod, thetas)
        assert same_bits(j_c, want_c)
        assert same_bits(j_s, want_s)
        monkeypatch.setattr(cli, "_load_model", lambda path: (mod, {"kind": "test"}))
        monkeypatch.setattr(cli, "_make_povm",
                            lambda spec, built, samples: (povm, {"kind": "test"}))
        doc = run_to_doc(capsys, ["fisher", "--model", "-", "--povm", "grid",
                                  theta_arg(thetas)])
        assert len(doc["entries"]) == len(thetas)
        for entry, c, s in zip(doc["entries"], want_c, want_s):
            assert entry["classical_fisher"] == cli._matrix(c)
            assert entry["sld_fisher"] == cli._matrix(s)

    @pytest.mark.parametrize("case", sorted(FISHER_CASES))
    def test_rows_are_the_per_point_formula_over_the_kept_outcomes(self, case):
        mod, povm, thetas = FISHER_CASES[case]
        want = []
        for theta in thetas:
            lift = mod.horizontal_lift(theta)
            p = estimation.induced_distribution(povm, lift.phi)
            s = povm.scores(lift.phi, lift.lifts)
            support = p > estimation.PROB_CLIP / p.size
            w = s[:, support] / np.sqrt(p[support])
            j = w @ w.T
            if not support.all():
                j = j + povm.node_fisher(lift.lifts, ~support)
            want.append(0.5 * (j + j.T))
        assert same_bits(estimation.fisher_many(povm, mod, thetas)[0], np.array(want))

    @pytest.mark.parametrize("case", ["octahedral_poles", "basis_poles"])
    def test_a_block_mixes_clipped_rows_and_whole_rows(self, case):
        mod, povm, thetas = FISHER_CASES[case]
        clipped = [not estimation._support(estimation.induced_distribution(
            povm, mod.evaluate(theta))).all() for theta in thetas]
        assert clipped == [False, True, False, True, False]

    def test_the_first_failing_row_raises_what_it_raises_alone(self, capsys, tmp_path):
        bloch = BATTERY["bloch"]
        povm = MatrixPovm(octahedral_elements(), space=bloch.space)
        # near the pole the -z outcome is clipped but still carries a score
        # of about pol / 6: rows 3 and 4 fail with different scores
        thetas = np.array([(0.4, 0.1), (1.1, 2.5), (2.7, 5.9), (1e-6, 0.3), (5e-7, 0.5)])
        for theta in thetas[:3]:
            estimation.lift_fisher(povm, bloch.horizontal_lift(theta))
        with pytest.raises(SingularSupportError) as alone:
            estimation.lift_fisher(povm, bloch.horizontal_lift(thetas[3]))
        with pytest.raises(SingularSupportError) as many:
            estimation.fisher_many(povm, bloch, thetas)
        assert str(many.value) == str(alone.value) == (
            "outcome with p < 1e-12 carries score 1.67e-07")
        model_path, povm_path = tmp_path / "bloch.json", tmp_path / "octahedral.json"
        model_path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        povm_path.write_text(json.dumps({"kind": "matrices", "elements": [
            [[[z.real, z.imag] for z in row] for row in e] for e in octahedral_elements()]}))
        code = cli.main(["fisher", "--model", str(model_path), "--povm", str(povm_path),
                         theta_arg(thetas)])
        assert code == 3
        assert str(alone.value) in capsys.readouterr().err

    def test_a_row_is_checked_in_full_before_the_next_row(self):
        # E_1 = (1 + 1e-7)^2 |1><1|: a sum off 1 at every row away from the
        # north pole, and a clipped outcome with a score close to it
        bloch = BATTERY["bloch"]
        povm = estimation.Povm(bloch.space, np.diag([1.0, 1.0 + 1e-7]).astype(complex))
        support_row, sum_row = (1e-6, 0.3), (2.0, 0.1)
        with pytest.raises(SingularSupportError, match="carries score 5.00e-07"):
            estimation.fisher_many(povm, bloch, np.array([support_row, sum_row]))
        with pytest.raises(MeasurementDefinitionError, match="sum to 1.000000141615"):
            estimation.fisher_many(povm, bloch, np.array([sum_row, support_row]))

    def test_fisher_builds_no_per_point_objects(self, monkeypatch, capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-point object was built")

        monkeypatch.setattr(model, "HorizontalLift", refuse)
        monkeypatch.setattr(hilbert.StateVector, "_adopt", refuse)
        monkeypatch.setattr(hilbert.StateVector, "__init__", refuse)
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        thetas = random_points(BATTERY["bloch"], 20, np.random.default_rng(16))
        doc = run_to_doc(capsys, ["fisher", "--model", str(path), "--povm", "basis",
                                  theta_arg(thetas)])
        assert len(doc["entries"]) == 20

    def test_fisher_memory_does_not_grow_with_the_number_of_thetas(self):
        mod = qg.catalog("position_shift", {"grid": {"n": 4096}})  # 4 rows a block
        povm = grid_pvm(mod.space)

        def peak(k):
            thetas = np.linspace(-1.0, 1.0, k)[:, None]
            tracemalloc.start()
            try:
                estimation.fisher_many(povm, mod, thetas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block of states, of lifts and their temporaries; the scores,
        # clipped rows and node terms of all 200 points at once would take
        # 200 * 64 kB each
        block_bytes = 16 * model.EVALUATE_BLOCK
        few, many = peak(8), peak(200)
        assert many < 8 * block_bytes
        assert many < 1.1 * few


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["report", "--model", "missing.json", "--theta=0"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    capsys.readouterr()


def test_cli_digests_tool_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digests.py"),
         "--only", "report_bloch,error_domain"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:2] for line in lines] == [["report_bloch", "0"], ["error_domain", "2"]]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for line in lines for h in line[2:])
    empty = hashlib.sha256(b"").hexdigest()
    # a document and no message, then a message and no document
    assert lines[0][3] == empty != lines[0][2]
    assert lines[1][2] == empty != lines[1][3]


def test_cli_digests_values_mode():
    # the same package on both sides: no stdout moves
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digests.py"),
         "--only", "report_bloch,error_domain", "--values", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == ""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import cli_digests
    finally:
        sys.path.remove(str(ROOT / "tools"))
    change = cli_digests.value_change
    assert change('{"a": [1.0, 2, NaN], "b": {"c": -4.0}}',
                  '{"a": [1.5, 2, NaN], "b": {"c": -4.0}}') == (0.5, 0.5 / 1.5, 4, ".a[0]")
    assert change('{"a": [1e-17, 3.0]}', '{"a": [-1e-17, 3.5]}') == (0.5, 2.0, 2, ".a[0]")
    assert change('{"a": Infinity}', '{"a": 1.0}') == (math.inf, math.inf, 1, ".a")
    for a, b in [('{"a": [1.0]}', '{"a": [1.0, 2.0]}'), ('{"a": true}', '{"a": 1}'),
                 ('{"a": 1, "b": 2}', '{"b": 2, "a": 1}'), ('{"a": "x"}', '{"a": "y"}'),
                 ("", "")]:
        assert change(a, b) is None
