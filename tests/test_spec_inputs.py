"""Malformed input documents and arguments: the CLI and the schemas reject them.

Every case exits 2 with one ``qestgeo: spec error:`` line and no traceback.
Where the schema in ``schemas/`` can express the rule, it rejects the
document too, and the valid documents the CLI tests use pass it.
"""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qestgeo.cli import main
from test_cli import octahedral_povm_doc

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"

BLOCH = {"kind": "catalog", "name": "bloch"}
BASIS_2 = {"type": "basis", "dimension": 2}
UP_ROWS = [[[1.0, 0.0], [0.0, 0.0]]] * 2

# (id, schema of bad.json or None, bad.json, argv, stderr detail); argv names
# the files bloch.json and bad.json by these names
MALFORMED = [
    ("loop_one_point", "loop_spec", {"thetas": [[0.3, 0.0]]},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas: must be a list of at least two points"),
    ("loop_thetas_string", "loop_spec", {"thetas": "abc"},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas: must be a list of at least two points"),
    ("loop_point_string", "loop_spec", {"thetas": [[0.3, "a"], [0.8, 0.0]]},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas: not numeric: could not convert string to float: 'a'"),
    ("loop_closed_string", "loop_spec",
     {"thetas": [[0.3, 0.0], [0.8, 0.0]], "closed": "no"},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "closed: must be true or false, got 'no'"),
    ("povm_elements_string", "povm_spec", {"kind": "matrices", "elements": "x"},
     ["fisher", "--model", "bloch.json", "--povm", "bad.json", "--theta", "0.3,0.1"],
     "elements: must be a list of matrices"),
    ("tabulated_thetas_strings", "model_spec",
     {"kind": "tabulated", "space": BASIS_2, "thetas": ["a", "b"], "amplitudes": UP_ROWS},
     ["report", "--model", "bad.json", "--theta", "0"],
     "thetas: not numeric: ['a', 'b']"),
    ("tabulated_amplitudes_number", "model_spec",
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, 0.1], "amplitudes": 1},
     ["report", "--model", "bad.json", "--theta", "0"],
     "amplitudes: must be a list of rows"),
    ("tabulated_space_n_string", "model_spec",
     {"kind": "tabulated", "space": {"type": "grid", "n": "x", "lower": 0, "upper": 1},
      "thetas": [0.0, 0.1], "amplitudes": UP_ROWS},
     ["report", "--model", "bad.json", "--theta", "0"],
     "space: invalid space: invalid literal for int() with base 10: 'x'"),
    ("fd_step_string", "model_spec", {**BLOCH, "fd_step": "x"},
     ["report", "--model", "bad.json", "--theta", "0.3,0.1"],
     "fd_step: not numeric: 'x'"),
    ("fd_step_zero", "model_spec", {**BLOCH, "fd_step": 0},
     ["report", "--model", "bad.json", "--theta", "0.3,0.1"],
     "fd_step: must be a positive number, got 0"),
    ("params_list", "model_spec", {**BLOCH, "params": [1]},
     ["report", "--model", "bad.json", "--theta", "0.3,0.1"],
     "params: must be an object"),
    ("grid_list", "model_spec",
     {"kind": "catalog", "name": "position_shift", "params": {"grid": [64, -10, 10]}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params.grid: must be an object"),
    # the schema cannot say "not all zero"
    ("spin_zero_amplitudes", None,
     {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [0, 0, 0]}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params: invalid params for spin_jz: amplitudes must not all be zero"),
    ("weight_not_numeric", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "diag:1,x"],
     "non-numeric diag weight in 'diag:1,x'"),
]


def validator(name):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


@pytest.mark.parametrize("schema, bad, argv, detail",
                         [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_cli_reports_one_spec_error_line(capsys, tmp_path, schema, bad, argv, detail):
    (tmp_path / "bloch.json").write_text(json.dumps(BLOCH))
    if bad is not None:
        (tmp_path / "bad.json").write_text(json.dumps(bad))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qestgeo: spec error: {detail}\n"


SCHEMA_CASES = [case for case in MALFORMED if case[1] is not None]


@pytest.mark.parametrize("schema, bad", [case[1:3] for case in SCHEMA_CASES],
                         ids=[c[0] for c in SCHEMA_CASES])
def test_schema_rejects_what_the_cli_rejects(schema, bad):
    assert not validator(schema).is_valid(bad)


def octant_loop():
    k = 2000 // 3
    pts = [[float(s), 0.0] for s in np.linspace(0, np.pi / 2, k, endpoint=False)]
    pts += [[np.pi / 2, float(s)] for s in np.linspace(0, np.pi / 2, k, endpoint=False)]
    pts += [[float(s), np.pi / 2]
            for s in np.linspace(np.pi / 2, 0, 2000 - 2 * k, endpoint=False)]
    return {"thetas": pts + [[0.0, 0.0]], "closed": True}


def grid(n, lower, upper, **extra):
    return {"n": n, "lower": lower, "upper": upper, **extra}


# the valid input documents of tests/test_cli.py
VALID = {
    "model_spec": [
        BLOCH,
        {"kind": "catalog", "name": "position_momentum_shift",
         "params": {"profile": "gaussian", "grid": grid(512, -10, 10)}},
        {"kind": "catalog", "name": "two_well",
         "params": {"alpha": np.pi / 2, "grid": grid(1024, -8, 8)}},
        {"kind": "catalog", "name": "two_well", "params": {"grid": grid(512, -8, 8)}},
        {"kind": "catalog", "name": "spin_jz",
         "params": {"amplitudes": [0.5, 0.7071067811865475, 0.5]}},
        {"kind": "catalog", "name": "spin_jz",
         "params": {"amplitudes": [0.7071067811865475, 0.7071067811865475]}},
        {"kind": "catalog", "name": "position_shift",
         "params": {"profile": "gaussian", "grid": grid(256, -10, 10)}},
        {"kind": "catalog", "name": "position_shift",
         "params": {"grid": grid(512, -40, 40), "domain": [[-20, 20]]}},
        {"kind": "catalog", "name": "ring_flux",
         "params": {"grid": grid(256, 0.0, 2 * np.pi, periodic=True)}},
        {"kind": "catalog", "name": "position_shift",
         "params": {"grid": {"lower": -10, "upper": 10}}},
        {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, 0.1, 0.2],
         "amplitudes": [[[1.0, 0.0], [0.0, 0.0]],
                        [[0.9950041652780258, 0.0], [0.09983341664682815, 0.0]],
                        [[0.9800665778412416, 0.0], [0.19866933079506122, 0.0]]]},
    ],
    "loop_spec": [
        octant_loop(),
        {"thetas": [[0.9, 2 * np.pi * j / 64] for j in range(65)], "closed": True},
        {"thetas": [[0.5 + j / 20] for j in range(21)]},
        {"thetas": [[0.3, 0.0], [0.8, 0.0], [0.9, 0.2]], "closed": True},
    ],
    "povm_spec": [
        octahedral_povm_doc(),
        {"kind": "matrices", "elements": [
            [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
            [[[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.5, 0.0]]]]},
    ],
}


@pytest.mark.parametrize("schema", sorted(VALID))
def test_valid_documents_pass_their_schema(schema):
    check = validator(schema)
    for doc in VALID[schema]:
        check.validate(json.loads(json.dumps(doc)))
