"""Batched evaluation, batched geometry and gauge-covariant differences.

Curves and sample sets are evaluated as one ``(k, dim)`` array per call to
``PureStateModel.evaluate_many``, in blocks of at most
``model.EVALUATE_BLOCK`` amplitudes, with rows bitwise equal to one
``evaluate`` each.  ``geometry.analyze_many`` takes the lifts of a block at
once and one spectral pass over all points, with rows bitwise equal to one
``analyze`` each.  Finite differences rephase each neighbour by its unit
link to the state, so lifts do not depend on the phase gauge of the states.
"""

import dataclasses
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
from qestgeo import cli, geometry, holonomy, model
from qestgeo.errors import (
    DomainError,
    ModelDefinitionError,
    RefinementError,
    SpectralConsistencyError,
)
from qestgeo.hilbert import BasisSpace
from qestgeo.model import Curve, PureStateModel, broadcasting, rephased

from conftest import catalog_battery
from test_cli import run_to_doc

BATTERY = catalog_battery()
ROOT = Path(__file__).resolve().parents[1]


def random_points(mod, k, rng):
    """``k`` points inside the domain of ``mod``, unbounded ends cut at 3."""
    lo, hi = np.array([(max(a, -3.0), min(b, 3.0)) for a, b in mod.domain]).T
    return rng.uniform(lo, hi, size=(k, mod.m))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
