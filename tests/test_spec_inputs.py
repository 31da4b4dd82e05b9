"""Malformed input documents and arguments: the CLI and the schemas reject them.

Every case exits 2 with one ``qestgeo: spec error:`` line and no traceback.
Where the schema in ``schemas/`` can express the rule, it rejects the
document too, and the valid documents the CLI tests use pass it.
"""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qestgeo import model
from qestgeo.cli import main
from test_cli import octahedral_povm_doc

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"

BLOCH = {"kind": "catalog", "name": "bloch"}
SPIN = {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [0.6, 0.8]}}
BASIS_2 = {"type": "basis", "dimension": 2}
UP_ROWS = [[[1.0, 0.0], [0.0, 0.0]]] * 2
CHECK_SHIFTED = ["check", "--model", "bad.json", "--samples=0.6;1"]
REPORT_BAD = ["report", "--model", "bad.json", "--theta", "0"]
FISHER_BAD = ["fisher", "--model", "bloch.json", "--povm", "bad.json", "--theta", "0.3,0.1"]
CATALOG_NAMES = sorted(model.CATALOG)


def ps_domain(domain):
    return {"kind": "catalog", "name": "position_shift",
            "params": {"grid": {"n": 64, "lower": -10, "upper": 10}, "domain": domain}}


def domain_detail(given):
    return ("params: invalid params for position_shift: domain must be 1 pair(s) "
            f"[lo, hi] of numbers with lo <= hi, got {given}")


def ps_profile(profile):
    return {"kind": "catalog", "name": "position_shift",
            "params": {"profile": profile, "grid": {"n": 64, "lower": -10, "upper": 10}}}


def ps_detail(detail):
    return f"params: invalid params for position_shift: {detail}"


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
    # the schema cannot count a point's components against the model
    ("loop_point_short", None, {"thetas": [[0.3, 0.0], [0.8], [0.9, 0.1]]},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas[1]: loop point 1 has 1 components, model expects 2"),
    ("loop_points_long", None, {"thetas": [[0.3, 0.0, 1.0], [0.8, 0.1, 1.0]]},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas[0]: loop point 0 has 3 components, model expects 2"),
    ("loop_scalar_points", None, {"thetas": [0.3, 0.8]},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "thetas[0]: loop point 0 has 1 components, model expects 2"),
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
    # catalog families have closed-form tangents; central differences would
    # straddle the phase step of ring_flux at theta 0
    ("fd_step_catalog", "model_spec",
     {"kind": "catalog", "name": "position_shift", "fd_step": 1e-5,
      "params": {"grid": {"n": 256, "lower": -10, "upper": 10}}},
     ["report", "--model", "bad.json", "--theta", "0.3"],
     "fd_step: catalog families have closed-form tangents"),
    ("fd_step_ring_flux", "model_spec",
     {"kind": "catalog", "name": "ring_flux", "fd_step": 1e-4,
      "params": {"grid": {"n": 256, "lower": 0, "upper": 2 * math.pi, "periodic": True}}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "fd_step: catalog families have closed-form tangents"),
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
    # nor can it evaluate a profile: this packet sits 1000 widths off the grid
    ("profile_vanishes", None,
     {"kind": "catalog", "name": "position_shift",
      "params": {"profile": {"name": "gaussian", "center": 1000},
                 "grid": {"n": 64, "lower": -10, "upper": 10}}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params: invalid params for position_shift: profile vanishes on the grid"),
    ("weight_not_numeric", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "diag:1,x"],
     "non-numeric diag weight in 'diag:1,x'"),
    ("weight_negative", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "diag:-1,-2"],
     "diag weight entries must be finite and >= 0 in 'diag:-1,-2'"),
    ("weight_nan", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "diag:nan,1"],
     "diag weight entries must be finite and >= 0 in 'diag:nan,1'"),
    # JSON has no complex numbers: spin_jz amplitudes are real
    ("spin_amplitude_pairs", "model_spec",
     {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [[1, 0], [0, 1]]}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params: invalid params for spin_jz: amplitudes must be a 1-d sequence of length >= 2"),
    # spin_jz has an unbounded domain, which still holds no infinite theta
    ("theta_infinite", None, SPIN,
     ["report", "--model", "bad.json", "--theta", "inf"],
     "theta [inf] outside domain ((-inf, inf),)"),
    ("theta_overflows", None, {**BLOCH, "params": {"domain": [[0, 3], [-math.inf, math.inf]]}},
     ["report", "--model", "bad.json", "--theta", "0.3,1e400"],
     "theta [0.3, inf] outside domain ([0, 3], [-inf, inf])"),
    # a catalog domain is m pairs [lo, hi] of numbers with lo <= hi; the
    # schema cannot count the pairs or order their ends
    ("domain_short_pair", "model_spec", ps_domain([[0.5]]), CHECK_SHIFTED,
     domain_detail("[[0.5]]")),
    ("domain_strings", "model_spec", ps_domain([["a", "b"]]), CHECK_SHIFTED,
     domain_detail("[['a', 'b']]")),
    ("domain_flat", "model_spec", ps_domain([0.5, 1.5]), CHECK_SHIFTED,
     domain_detail("[0.5, 1.5]")),
    # with no pair at all, theta 7 used to pass unbounded
    ("domain_empty", None, ps_domain([]),
     ["report", "--model", "bad.json", "--theta=7"], domain_detail("[]")),
    ("domain_pair_count", None, ps_domain([[0, 1], [0, 1]]), CHECK_SHIFTED,
     domain_detail("[[0, 1], [0, 1]]")),
    ("domain_reversed", None, ps_domain([[1, -1]]), CHECK_SHIFTED,
     domain_detail("[[1, -1]]")),
    ("bloch_domain_pair_count", None, {**BLOCH, "params": {"domain": [[0, 3]]}},
     ["report", "--model", "bad.json", "--theta", "0.3,0.1"],
     "params: invalid params for bloch: domain must be 2 pair(s) [lo, hi] of "
     "numbers with lo <= hi, got [[0, 3]]"),
    ("grid_n_infinite", "model_spec",
     {"kind": "catalog", "name": "position_shift",
      "params": {"grid": {"n": math.inf, "lower": -1, "upper": 1}}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params: invalid params for position_shift: cannot convert float infinity to integer"),
    # the schema cannot say "finite": an infinite step read row 0 at every theta
    ("tabulated_thetas_infinite", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, math.inf], "amplitudes": UP_ROWS},
     ["check", "--model", "bad.json", "--samples=5;7;1e300"],
     "thetas: thetas must be finite numbers"),
    ("tabulated_thetas_infinite_sample", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, math.inf], "amplitudes": UP_ROWS},
     ["sample", "--model", "bad.json", "--povm", "basis", "--theta=123", "--n", "10",
      "--seed", "1"],
     "thetas: thetas must be finite numbers"),
    ("tabulated_thetas_nan", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, math.nan], "amplitudes": UP_ROWS},
     ["report", "--model", "bad.json", "--theta", "0"],
     "thetas: thetas must be finite numbers"),
    ("tabulated_space_periodic_string", "model_spec",
     {"kind": "tabulated",
      "space": {"type": "grid", "n": 2, "lower": 0, "upper": 1, "periodic": "false"},
      "thetas": [0.0, 0.1], "amplitudes": UP_ROWS},
     ["report", "--model", "bad.json", "--theta", "0"],
     "space.periodic: must be true or false, got 'false'"),
    ("grid_periodic_string", "model_spec",
     {"kind": "catalog", "name": "position_shift",
      "params": {"grid": {"n": 64, "lower": -10, "upper": 10, "periodic": "no"}}},
     ["report", "--model", "bad.json", "--theta", "0"],
     "params: invalid params for position_shift: grid.periodic must be true or false, "
     "got 'no'"),
    ("tabulated_space_n_infinite", "model_spec",
     {"kind": "tabulated", "space": {"type": "grid", "n": math.inf, "lower": 0, "upper": 1},
      "thetas": [0.0, 0.1], "amplitudes": UP_ROWS},
     ["report", "--model", "bad.json", "--theta", "0"],
     "space: invalid space: cannot convert float infinity to integer"),
    # a name that is not a string was looked up in the catalog's dict
    ("name_list", "model_spec", {"kind": "catalog", "name": ["bloch"]}, REPORT_BAD,
     f"name: unknown catalog model ['bloch']; known: {CATALOG_NAMES}"),
    ("name_object", "model_spec", {"kind": "catalog", "name": {"bloch": 1}}, REPORT_BAD,
     f"name: unknown catalog model {{'bloch': 1}}; known: {CATALOG_NAMES}"),
    # the schema cannot say "finite": these parameters are checked before
    # any arithmetic, which drifted to a NaN norm behind numpy warnings
    ("gaussian_width_zero", None, ps_profile({"name": "gaussian", "width": 0}), REPORT_BAD,
     ps_detail("width must be positive, got 0.0")),
    ("gaussian_width_negative", None, ps_profile({"name": "gaussian", "width": -1}),
     REPORT_BAD, ps_detail("width must be positive, got -1.0")),
    ("gaussian_width_nan", None, ps_profile({"name": "gaussian", "width": math.nan}),
     REPORT_BAD, ps_detail("width must be finite, got nan")),
    ("gaussian_width_infinite", None, ps_profile({"name": "gaussian", "width": math.inf}),
     REPORT_BAD, ps_detail("width must be finite, got inf")),
    ("gaussian_center_nan", None, ps_profile({"name": "gaussian", "center": math.nan}),
     REPORT_BAD, ps_detail("center must be finite, got nan")),
    ("boosted_p0_nan", None, ps_profile({"name": "boosted_gaussian", "p0": math.nan}),
     REPORT_BAD, ps_detail("p0 must be finite, got nan")),
    ("chirp_infinite", None, ps_profile({"name": "chirped_gaussian", "chirp": math.inf}),
     REPORT_BAD, ps_detail("chirp must be finite, got inf")),
    ("two_well_alpha_nan", None, {"kind": "catalog", "name": "two_well",
                                  "params": {"alpha": math.nan}}, REPORT_BAD,
     "params: invalid params for two_well: alpha must be finite, got nan"),
    ("two_well_alpha_infinite", None, {"kind": "catalog", "name": "two_well",
                                       "params": {"alpha": math.inf}}, REPORT_BAD,
     "params: invalid params for two_well: alpha must be finite, got inf"),
    ("ring_flux_alpha_nan", None, {"kind": "catalog", "name": "ring_flux",
                                   "params": {"alpha": math.nan}}, REPORT_BAD,
     "params: invalid params for ring_flux: alpha must be finite, got nan"),
    ("ring_flux_alpha_infinite", None, {"kind": "catalog", "name": "ring_flux",
                                        "params": {"alpha": -math.inf}}, REPORT_BAD,
     "params: invalid params for ring_flux: alpha must be finite, got -inf"),
    # finite parameters whose largest phase argument over the grid and the
    # domain overflows, and a width whose square underflows: rejected from
    # the spec before any arithmetic, which warned and drifted to a NaN norm
    ("boosted_p0_overflows", None, ps_profile({"name": "boosted_gaussian", "p0": 1e308}),
     REPORT_BAD, ps_detail("p0 = 1e+308 makes phase arguments up to inf")),
    ("chirp_overflows", None, ps_profile({"name": "chirped_gaussian", "chirp": 1e308}),
     REPORT_BAD, ps_detail("chirp = 1e+308 makes phase arguments up to inf")),
    ("ring_flux_alpha_overflows", None, {"kind": "catalog", "name": "ring_flux",
                                         "params": {"alpha": 1e308}}, REPORT_BAD,
     "params: invalid params for ring_flux: alpha = 1e+308 makes phase arguments up to inf"),
    ("gaussian_width_squared_underflows", None,
     ps_profile({"name": "gaussian", "width": 1e-300}), REPORT_BAD,
     ps_detail("width squared must be a normal float, got 0.0")),
    ("spin_amplitude_nan", None,
     {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [0.6, math.nan]}},
     REPORT_BAD, "params: invalid params for spin_jz: amplitudes must be finite, "
     "got [0.6, nan]"),
    ("spin_amplitude_infinite", None,
     {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [math.inf, 0.8]}},
     REPORT_BAD, "params: invalid params for spin_jz: amplitudes must be finite, "
     "got [inf, 0.8]"),
    ("grid_span_overflows", None,
     {"kind": "catalog", "name": "position_shift",
      "params": {"grid": {"n": 64, "lower": -1e308, "upper": 1e308}}},
     REPORT_BAD, ps_detail("upper - lower must be finite, got inf")),
    ("grid_lower_infinite", None,
     {"kind": "catalog", "name": "position_shift",
      "params": {"grid": {"n": 64, "lower": -math.inf, "upper": 1}}},
     REPORT_BAD, ps_detail("upper - lower must be finite, got inf")),
    ("tabulated_space_span_overflows", None,
     {"kind": "tabulated", "space": {"type": "grid", "n": 2, "lower": -1e308, "upper": 1e308},
      "thetas": [0.0, 0.1], "amplitudes": UP_ROWS},
     REPORT_BAD, "space: invalid space: upper - lower must be finite, got inf"),
    # a NaN norm passed a ">= tolerance" test
    ("tabulated_row_nan", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, 0.1, 0.2],
      "amplitudes": [UP_ROWS[0], [[math.nan, 0.0], [0.0, 0.0]], UP_ROWS[0]]},
     ["check", "--model", "bad.json", "--samples=0.1;0.2"],
     "amplitudes[1]: row 1 has norm nan, not 1"),
    ("spec_no_kind", "model_spec", {"name": "bloch"}, REPORT_BAD,
     "kind: missing required field"),
    ("spec_list", "model_spec", [1, 2], REPORT_BAD, "model spec must be a JSON object"),
    ("spec_unknown_kind", "model_spec", {"kind": "weird"}, REPORT_BAD,
     "kind: unknown kind 'weird'"),
    ("tabulated_no_space", "model_spec",
     {"kind": "tabulated", "thetas": [0.0, 0.1], "amplitudes": UP_ROWS}, REPORT_BAD,
     "space: missing required field"),
    ("tabulated_space_list", "model_spec",
     {"kind": "tabulated", "space": [1], "thetas": [0.0, 0.1], "amplitudes": UP_ROWS},
     REPORT_BAD, "space: space must be an object"),
    ("tabulated_space_torus", "model_spec",
     {"kind": "tabulated", "space": {"type": "torus"}, "thetas": [0.0, 0.1],
      "amplitudes": UP_ROWS},
     REPORT_BAD, "space.type: unknown space type 'torus'"),
    ("tabulated_thetas_nested", "model_spec",
     {"kind": "tabulated", "space": BASIS_2, "thetas": [[0, 0.1]], "amplitudes": UP_ROWS},
     REPORT_BAD, "thetas: thetas must be a flat list of at least two values"),
    ("tabulated_thetas_decreasing", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.1, 0.0], "amplitudes": UP_ROWS},
     REPORT_BAD, "thetas: thetas must be strictly increasing"),
    ("tabulated_rows_short", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, 0.1, 0.2],
      "amplitudes": UP_ROWS},
     REPORT_BAD, "amplitudes: got 2 amplitude rows for 3 thetas"),
    ("tabulated_row_norm_two", None,
     {"kind": "tabulated", "space": BASIS_2, "thetas": [0.0, 0.1],
      "amplitudes": [[[2.0, 0.0], [0.0, 0.0]], UP_ROWS[0]]},
     REPORT_BAD, "amplitudes[0]: row 0 has norm 2.00000000, not 1"),
    ("theta_not_numeric", None, None, ["report", "--model", "bloch.json", "--theta=a,b"],
     "non-numeric theta component in 'a,b'"),
    ("theta_empty", None, None, ["report", "--model", "bloch.json", "--theta=;"],
     "empty theta list"),
    ("weight_short", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "diag:1"],
     "diag weight has 1 entries, model expects 2"),
    ("weight_unknown", None, None,
     ["report", "--model", "bloch.json", "--theta", "0.3,0.1", "--weight", "foo"],
     "unknown weight spec 'foo' (use js or diag:...)"),
    ("loop_no_thetas", "loop_spec", {"points": []},
     ["holonomy", "--model", "bloch.json", "--loop", "bad.json"],
     "loop document must contain a thetas list"),
    ("povm_kind_elements", "povm_spec", {"kind": "elements"}, FISHER_BAD,
     'POVM file must be {"kind": "matrices", ...}'),
    ("povm_element_not_pairs", "povm_spec",
     {"kind": "matrices", "elements": [[[1, 0], [0, 1]]]}, FISHER_BAD,
     "elements[0]: element 0 must be a square matrix of [re, im] pairs"),
    ("povm_empty", "povm_spec", {"kind": "matrices", "elements": []}, FISHER_BAD,
     "invalid POVM: empty POVM"),
    ("povm_not_hermitian", None,
     {"kind": "matrices", "elements": [[[[1, 0], [1, 0]], [[0, 0], [0, 0]]]]}, FISHER_BAD,
     "invalid POVM: element 0 is not Hermitian"),
    ("sample_two_thetas", None, None,
     ["sample", "--model", "bloch.json", "--povm", "basis", "--theta=0.3,0.1;0.5,0.1",
      "--n", "10", "--seed", "1"],
     "sample takes exactly one theta point"),
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


def test_infinite_loop_point_is_outside_an_unbounded_domain(capsys, tmp_path):
    (tmp_path / "spin.json").write_text(json.dumps(SPIN))
    # 1e400 overflows to inf when the loop file is read
    (tmp_path / "loop.json").write_text('{"thetas": [[0.1], [1e400], [0.3]]}')
    assert main(["holonomy", "--model", str(tmp_path / "spin.json"),
                 "--loop", str(tmp_path / "loop.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qestgeo: spec error: theta [inf] outside domain ((-inf, inf),)\n"


def test_invalid_json_names_its_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads("{")
    assert main(["report", "--model", str(path), "--theta", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qestgeo: spec error: invalid JSON in {path}: {exc.value}\n"


@pytest.mark.parametrize("raw, detail", [("abc", "QESTGEO_GRID_N='abc' is not an integer"),
                                         ("1", "QESTGEO_GRID_N=1 must be >= 2")])
def test_grid_size_from_the_environment_is_checked(capsys, monkeypatch, tmp_path, raw,
                                                   detail):
    monkeypatch.setenv("QESTGEO_GRID_N", raw)
    path = tmp_path / "ps.json"
    path.write_text(json.dumps({"kind": "catalog", "name": "position_shift",
                                "params": {"grid": {"lower": -10, "upper": 10}}}))
    assert main(["report", "--model", str(path), "--theta", "0"]) == 2
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


def test_spin_jz_honours_its_domain(capsys, tmp_path):
    spec = {**SPIN, "params": {**SPIN["params"], "domain": [[0, 1]]}}
    (tmp_path / "spin.json").write_text(json.dumps(spec))
    assert main(["report", "--model", str(tmp_path / "spin.json"), "--theta=5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qestgeo: spec error: theta [5.0] outside domain ([0, 1],)\n"
    assert main(["report", "--model", str(tmp_path / "spin.json"), "--theta=0.5"]) == 0
