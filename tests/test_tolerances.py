"""Each verdict reads its tolerance from one module constant at call time."""

import json

import pytest

import qestgeo
from qestgeo import cli, geometry, holonomy
from test_cli import run_to_doc

SAMPLES = "--samples=-1;-0.5;0;0.5;1"


@pytest.fixture
def gauss_spec(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({
        "kind": "catalog", "name": "position_shift",
        "params": {"profile": "gaussian", "grid": {"n": 256, "lower": -10, "upper": 10}},
    }))
    return str(path)


def test_rank_tol_decides_rank_deficiency(monkeypatch):
    bloch = qestgeo.catalog("bloch")
    theta = (0.7, 0.2)  # J_S = diag(1, sin(0.7)^2): eigenvalue ratio 0.415
    assert not geometry.analyze(bloch, theta).rank_deficient
    monkeypatch.setattr(geometry, "RANK_TOL", 0.5)
    rep = geometry.analyze(bloch, theta)
    assert rep.rank_deficient
    assert rep.cr_js is None


def test_quasi_parallel_tol_decides_library_and_check(monkeypatch, capsys, gauss_spec):
    # real gaussian shifts: every overlap is real, the worst ratio is ~1e-17
    model = qestgeo.catalog("position_shift",
                            {"grid": {"n": 256, "lower": -10, "upper": 10}})
    samples = [(t,) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert holonomy.is_quasi_parallel(model, samples)[0]
    monkeypatch.setattr(holonomy, "QUASI_PARALLEL_TOL", 0.0)
    assert not holonomy.is_quasi_parallel(model, samples)[0]
    doc = run_to_doc(capsys, ["check", "--model", gauss_spec, SAMPLES])
    assert doc["quasi_parallel"]["flag"] is False
    assert doc["quasi_parallel"]["raw_flag"] is False
    assert doc["quasi_parallel"]["tolerance"] == 0.0


def test_conjugation_residual_tol_decides_invariance(monkeypatch, capsys, gauss_spec):
    assert run_to_doc(capsys, ["check", "--model", gauss_spec, SAMPLES])[
        "antiunitary"]["invariant"] is True
    monkeypatch.setattr(cli, "CONJUGATION_RESIDUAL_TOL", 0.0)
    doc = run_to_doc(capsys, ["check", "--model", gauss_spec, SAMPLES])
    assert doc["antiunitary"]["invariant"] is False


def test_report_states_the_constants(monkeypatch, capsys, tmp_path):
    for module, name in ((geometry, "RANK_TOL"), (geometry, "QUASI_CLASSICAL_TOL"),
                         (holonomy, "QUASI_PARALLEL_TOL"), (geometry, "BETA_BOUND_TOL")):
        monkeypatch.setattr(module, name, getattr(module, name) / 2)
    bloch = tmp_path / "bloch.json"
    bloch.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
    doc = run_to_doc(capsys, ["report", "--model", str(bloch), "--theta", "0.7,0.2"])
    assert doc["tolerances"] == {
        "rank": geometry.RANK_TOL,
        "quasi_classical": geometry.QUASI_CLASSICAL_TOL,
        "quasi_parallel": holonomy.QUASI_PARALLEL_TOL,
        "beta_bound": geometry.BETA_BOUND_TOL,
    }
