"""Each verdict reads its tolerance from one module constant at call time."""

import ast
import importlib
import json
from pathlib import Path

import pytest

import qestgeo
from qestgeo import cli, geometry, hilbert, holonomy
from qestgeo.errors import NonRealOverlapError
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


def test_quasi_parallel_tol_decides_gram_schmidt(monkeypatch, capsys, gauss_spec):
    # the real-overlap precondition of Gram-Schmidt is the quasi-parallel
    # verdict, read at call time: no second, absolute reality tolerance
    model = qestgeo.catalog("position_shift",
                            {"grid": {"n": 256, "lower": -10, "upper": 10}})
    states = [model.evaluate((t,)) for t in (-1.0, 0.0, 1.0)]
    assert len(hilbert.gram_schmidt_real(states)) == 3
    monkeypatch.setattr(holonomy, "QUASI_PARALLEL_TOL", 0.0)
    with pytest.raises(NonRealOverlapError):
        hilbert.gram_schmidt_real(states)
    doc = run_to_doc(capsys, ["check", "--model", gauss_spec, SAMPLES])
    assert doc["antiunitary"]["constructed"] is doc["quasi_parallel"]["flag"] is False


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


def readme_tolerance_rows():
    """``{constant: (module, value)}`` from the README "Tolerances" table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            assert cells[0] not in rows, f"{cells[0]} has two rows"
            rows[cells[0]] = (cells[1], float(cells[2]))
    return rows


def module_float_constants():
    """``{(module, name)}`` of every module-level float constant."""
    found = set()
    for path in sorted(Path(qestgeo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)):
                found.update((path.stem, t.id) for t in node.targets)
    return found


def test_readme_table_matches_the_constants():
    rows = readme_tolerance_rows()
    assert rows
    for name, (module, value) in rows.items():
        mod = importlib.import_module(f"qestgeo.{module}")
        assert getattr(mod, name) == value, f"{module}.{name}"
    assert module_float_constants() == {(module, name)
                                        for name, (module, _) in rows.items()}
