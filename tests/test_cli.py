"""End-to-end driver tests: documents, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import qestgeo
from qestgeo import cli, estimation, geometry, hilbert
from qestgeo.cli import main, parse_model_spec, render_document
from qestgeo.errors import (ContractError, InputError, ModelDefinitionError, QestgeoError,
                            SpecFormatError)


@pytest.fixture
def pm_spec(tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({
        "kind": "catalog",
        "name": "position_momentum_shift",
        "params": {"profile": "gaussian",
                   "grid": {"n": 512, "lower": -10, "upper": 10}},
    }))
    return str(path)


@pytest.fixture
def two_well_spec(tmp_path):
    path = tmp_path / "tw.json"
    path.write_text(json.dumps({
        "kind": "catalog",
        "name": "two_well",
        "params": {"alpha": np.pi / 2,
                   "grid": {"n": 1024, "lower": -8, "upper": 8}},
    }))
    return str(path)


def boosted_spec(p0, n=64):
    return {"kind": "catalog", "name": "position_shift",
            "params": {"profile": {"name": "boosted_gaussian", "p0": p0},
                       "grid": {"n": n, "lower": -10, "upper": 10}}}


# a table whose theta step is 1e-300: its central-difference lifts are of
# order 1e300 and their Gram matrix overflows at the middle row
TINY_STEP = {"kind": "tabulated", "space": {"type": "basis", "dimension": 2},
             "thetas": [0.0, 1e-300, 2e-300],
             "amplitudes": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]]]}
GRAM_NOT_FINITE = "lift Gram matrix is not finite at theta [1e-300]"


def run_to_doc(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestReport:
    def test_gaussian_report_values(self, capsys, pm_spec):
        doc = run_to_doc(capsys, [
            "report", "--model", pm_spec, "--theta", "0,0", "--weight", "js",
        ])
        entry = doc["entries"][0]
        assert np.allclose(entry["sld_fisher"], [[2, 0], [0, 2]], atol=1e-6)
        assert entry["betas"][0] == pytest.approx(1.0, abs=1e-6)
        assert entry["attainable_cr_js"] == pytest.approx(4.0, abs=1e-3)
        assert entry["sld_bound_js"] == pytest.approx(2.0, abs=1e-12)
        assert entry["sld_bound_weight"] == pytest.approx(2.0, abs=1e-12)
        assert entry["quasi_classical"] is False
        assert doc["summary"]["max_beta"] == pytest.approx(1.0, abs=1e-6)

    def test_determinism_byte_identical(self, capsys, pm_spec, tmp_path):
        argv = ["report", "--model", pm_spec, "--theta", "0.1,0.2;0.3,-0.4"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_precision_17_digits(self, capsys, pm_spec):
        doc_text = render_document({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in doc_text

    def test_diag_weight(self, capsys, pm_spec):
        doc = run_to_doc(capsys, [
            "report", "--model", pm_spec, "--theta", "0,0",
            "--weight", "diag:1,0",
        ])
        assert doc["entries"][0]["sld_bound_weight"] == pytest.approx(0.5)

    @pytest.mark.parametrize("amplitudes, plain", [([3e-200, 4e-200], [3.0, 4.0]),
                                                   ([1e308, 1e308], [1.0, 1.0])])
    def test_spin_amplitudes_whose_norm_under_or_overflows(self, capsys, tmp_path,
                                                           amplitudes, plain):
        # the norm of the amplitudes as given is 0 or inf: they are rescaled first
        fishers = []
        for amps in (amplitudes, plain):
            path = tmp_path / "spin.json"
            path.write_text(json.dumps({"kind": "catalog", "name": "spin_jz",
                                        "params": {"amplitudes": amps}}))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                doc = run_to_doc(capsys, ["report", "--model", str(path), "--theta=0.3"])
            fishers.append(doc["entries"][0]["sld_fisher"][0][0])
        assert fishers[0] == pytest.approx(fishers[1], rel=1e-15, abs=0)

    def test_report_and_fisher_build_no_geometry_report(self, monkeypatch, capsys, tmp_path):
        made = []

        class Counted(geometry.GeometryReport):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(geometry, "GeometryReport", Counted)
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        thetas = "--theta=" + ";".join(f"{0.1 + 0.14 * j!r},{0.3 * j!r}" for j in range(20))
        for argv in (["report", "--weight", "js"], ["fisher", "--povm", "basis"]):
            doc = run_to_doc(capsys, argv + ["--model", str(path), thetas])
            assert len(doc["entries"]) == 20
        assert made == []
        geometry.analyze_many(parse_model_spec({"kind": "catalog", "name": "bloch"})[0],
                              [(0.1 + 0.14 * j, 0.3 * j) for j in range(20)])
        assert len(made) == 20  # the count sees the library's reports


class TestModelSpecParsing:
    def test_catalog_spin_dimension(self):
        built, echo = parse_model_spec({
            "kind": "catalog", "name": "spin_jz",
            "params": {"amplitudes": [0.5, 0.7071067811865475, 0.5]},
        })
        assert built.space.dim == 3
        assert echo["name"] == "spin_jz"

    def test_tabulated_row_length_mismatch_names_row(self):
        spec = {
            "kind": "tabulated",
            "space": {"type": "basis", "dimension": 2},
            "thetas": [0.0, 0.1, 0.2],
            "amplitudes": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[1.0, 0.0]],
                [[1.0, 0.0], [0.0, 0.0]],
            ],
        }
        with pytest.raises(SpecFormatError) as err:
            parse_model_spec(spec)
        assert "amplitudes[1]" in str(err.value)

    def test_tabulated_nonuniform_grid_rejected(self):
        spec = {
            "kind": "tabulated",
            "space": {"type": "basis", "dimension": 2},
            "thetas": [0.0, 0.1, 0.35],
            "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]] * 3,
        }
        with pytest.raises(SpecFormatError):
            parse_model_spec(spec)

    def test_tabulated_matches_catalog(self, capsys, tmp_path):
        # cross-check: a gaussian family tabulated on a coarse theta grid
        # reproduces the catalog metric within finite-difference error
        import qestgeo as qg

        cat = qg.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})
        thetas = np.linspace(-0.02, 0.02, 5)
        rows = []
        for t in thetas:
            amp = cat.evaluate((t,)).amplitudes
            rows.append([[float(a.real), float(a.imag)] for a in amp])
        spec = {
            "kind": "tabulated",
            "space": {"type": "grid", "n": 256, "lower": -10.0, "upper": 10.0},
            "thetas": [float(t) for t in thetas],
            "amplitudes": rows,
        }
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(spec))
        doc = run_to_doc(capsys, ["report", "--model", str(path), "--theta", "0.0"])
        assert doc["entries"][0]["sld_fisher"][0][0] == pytest.approx(2.0, rel=1e-4)

    def test_round_trip_idempotent(self):
        spec = {
            "kind": "tabulated",
            "space": {"type": "basis", "dimension": 2},
            "thetas": [0.0, 0.1, 0.2],
            "amplitudes": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[0.9950041652780258, 0.0], [0.09983341664682815, 0.0]],
                [[0.9800665778412416, 0.0], [0.19866933079506122, 0.0]],
            ],
        }
        built1, echo1 = parse_model_spec(spec)
        built2, echo2 = parse_model_spec(json.loads(render_document(echo1)))
        assert echo1 == echo2
        assert built1.space == built2.space

    def test_grid_default_from_env(self, monkeypatch):
        monkeypatch.setenv("QESTGEO_GRID_N", "64")
        built, _ = parse_model_spec({
            "kind": "catalog", "name": "position_shift",
            "params": {"grid": {"lower": -10, "upper": 10}},
        })
        assert built.space.n_points == 64


class TestCheck:
    def test_two_well_document(self, capsys, two_well_spec):
        doc = run_to_doc(capsys, [
            "check", "--model", two_well_spec, "--samples=-1;-0.5;0;0.5;1",
        ])
        assert doc["quasi_parallel"]["flag"] is False
        assert doc["quasi_parallel"]["witness"]["value"] > 1e-3
        assert doc["momentum_symmetry"]["flag"] is False
        assert doc["antiunitary"]["constructed"] is False
        assert doc["consistent"] is True

    def test_spin_symmetric_document(self, capsys, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(json.dumps({
            "kind": "catalog", "name": "spin_jz",
            "params": {"amplitudes": [0.5, 0.7071067811865475, 0.5]},
        }))
        doc = run_to_doc(capsys, [
            "check", "--model", str(path), "--samples", "0;0.5;1;1.5;2",
        ])
        assert doc["quasi_parallel"]["flag"] is True
        assert doc["antiunitary"]["invariant"] is True
        assert doc["momentum_symmetry"]["applicable"] is False
        assert doc["consistent"] is True


    @pytest.mark.parametrize("name, grid", [
        ("position_shift", {"n": 512, "lower": -10, "upper": 10}),
        ("two_well", {"n": 2048, "lower": -8, "upper": 8}),
    ])
    def test_domain_without_zero(self, capsys, tmp_path, name, grid):
        # the momentum section reads the base state at the domain point
        # nearest 0, not at 0 itself
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({
            "kind": "catalog", "name": name,
            "params": {"grid": grid, "domain": [[0.5, 1.5]]},
        }))
        doc = run_to_doc(capsys, ["check", "--model", str(path), "--samples=0.6;1;1.4"])
        momentum = doc["momentum_symmetry"]
        assert momentum["applicable"] is True
        assert momentum["flag"] is (name == "position_shift")
        assert momentum["flag"] is doc["quasi_parallel"]["raw_flag"]
        assert doc["consistent"] is True


class TestHolonomy:
    def test_octant_loop(self, capsys, tmp_path):
        model_path = tmp_path / "bloch.json"
        model_path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        pts = []
        k = 2000 // 3
        for s in np.linspace(0, np.pi / 2, k, endpoint=False):
            pts.append([float(s), 0.0])
        for s in np.linspace(0, np.pi / 2, k, endpoint=False):
            pts.append([np.pi / 2, float(s)])
        for s in np.linspace(np.pi / 2, 0, 2000 - 2 * k, endpoint=False):
            pts.append([float(s), np.pi / 2])
        pts.append([0.0, 0.0])
        loop_path = tmp_path / "loop.json"
        loop_path.write_text(json.dumps({"thetas": pts, "closed": True}))
        doc = run_to_doc(capsys, [
            "holonomy", "--model", str(model_path), "--loop", str(loop_path),
        ])
        assert abs(doc["result"]["gamma"]) == pytest.approx(np.pi / 4, abs=1e-3)


class TestFastFamily:
    def test_fast_tabulated_family_is_reported(self, capsys, tmp_path):
        # rows (cos 5e9 theta, sin 5e9 theta): a lift of size 1e10 keeps a
        # rounding-level overlap with phi of about 1e-7
        thetas = [0.0, 1e-10, 2e-10]
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({
            "kind": "tabulated", "space": {"type": "basis", "dimension": 2},
            "thetas": thetas,
            "amplitudes": [[[np.cos(5e9 * t), 0.0], [np.sin(5e9 * t), 0.0]]
                           for t in thetas],
        }))
        doc = run_to_doc(capsys, ["report", "--model", str(path), "--theta=1e-10"])
        # the central difference of the table is 1e10 sin(0.5) (-sin 0.5,
        # cos 0.5), which is horizontal, so J_S = 4 |t|^2
        j_s = doc["entries"][0]["sld_fisher"][0][0]
        assert j_s == pytest.approx(4e20 * np.sin(0.5) ** 2, rel=1e-6)


    def test_fast_tabulated_schmidt_fisher(self, capsys, tmp_path):
        # a dropped outcome's score of about 1.7e-7 is rounding on lifts of
        # size 1e10: the support test is relative to the lift norm
        thetas = [0.0, 1e-10, 2e-10]
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({
            "kind": "tabulated", "space": {"type": "basis", "dimension": 2},
            "thetas": thetas,
            "amplitudes": [[[np.cos(5e9 * t), 0.0], [np.sin(5e9 * t), 0.0]]
                           for t in thetas],
        }))
        doc = run_to_doc(capsys, ["fisher", "--model", str(path), "--povm", "schmidt",
                                  "--theta=1e-10", "--samples=1e-10"])
        entry = doc["entries"][0]
        j_s = entry["sld_fisher"][0][0]
        assert j_s == pytest.approx(4e20 * np.sin(0.5) ** 2, rel=1e-6)
        assert entry["classical_fisher"][0][0] == pytest.approx(j_s, rel=1e-10)


def twisted_spec(tmp_path):
    """Three basis states, thetas 0, 0.1, 0.2, with real overlaps except one
    twisted by the phase 2e-7: Im 8.2e-8, a ratio of 1e-7 to the overlap."""
    s3 = 3 ** -0.5
    rows = [[1.0, 0.0, 0.0], [2 ** -0.5, 2 ** -0.5, 0.0],
            [s3, s3 * np.exp(2e-7j), s3]]
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({
        "kind": "tabulated", "space": {"type": "basis", "dimension": 3},
        "thetas": [0.0, 0.1, 0.2],
        "amplitudes": [[[complex(a).real, complex(a).imag] for a in row] for row in rows],
    }))
    return str(path)


class TestOneRealityRule:
    """The quasi-parallel verdict and real Gram-Schmidt read one rule."""

    SAMPLES = "--samples=0;0.1;0.2"

    def test_twisted_family_is_classified_consistently(self, capsys, tmp_path):
        doc = run_to_doc(capsys, ["check", "--model", twisted_spec(tmp_path),
                                  self.SAMPLES])
        qp = doc["quasi_parallel"]
        assert 1e-8 < qp["witness"]["value"] < qp["tolerance"]
        assert qp["flag"] is True
        assert doc["antiunitary"]["constructed"] is True
        assert doc["consistent"] is True

    def test_twisted_family_schmidt_fisher(self, capsys, tmp_path):
        doc = run_to_doc(capsys, ["fisher", "--model", twisted_spec(tmp_path),
                                  "--povm", "schmidt", "--theta=0.1", self.SAMPLES])
        assert doc["entries"][0]["max_relative_gap"] < 1e-10

    def test_constructed_equals_flag_on_the_catalog(self, capsys, monkeypatch, battery):
        flags = set()
        for name, mod in battery.items():
            monkeypatch.setattr(cli, "_load_model",
                                lambda path, mod=mod, name=name: (mod, {"kind": name}))
            samples = ";".join(",".join(repr(float(c)) for c in t) for t in mod.sample_grid)
            doc = run_to_doc(capsys, ["check", "--model", "-", f"--samples={samples}"])
            flag = doc["quasi_parallel"]["flag"]
            assert doc["antiunitary"]["constructed"] is flag, name
            flags.add(flag)
        assert flags == {True, False}


class TestFisherAndSample:
    def test_fisher_grid_attains_on_two_well(self, capsys, two_well_spec):
        doc = run_to_doc(capsys, [
            "fisher", "--model", two_well_spec, "--povm", "grid",
            "--theta=-0.5;0;0.5",
        ])
        for entry in doc["entries"]:
            assert entry["max_relative_gap"] < 5e-3
            assert entry["min_psd_eigenvalue"] > -1e-6

    def test_sample_counts_deterministic(self, capsys, two_well_spec):
        argv = ["sample", "--model", two_well_spec, "--povm", "grid",
                "--theta", "0", "--n", "2000", "--seed", "11"]
        doc1 = run_to_doc(capsys, argv)
        doc2 = run_to_doc(capsys, argv)
        assert doc1["counts"] == doc2["counts"]
        assert sum(c for _, c in doc1["counts"]) == 2000

    @pytest.mark.parametrize("povm_kind", ["grid", "schmidt"])
    def test_sample_counts_are_the_unique_outcomes(self, capsys, pm_spec, povm_kind):
        theta = (0.1, 0.2)
        doc = run_to_doc(capsys, ["sample", "--model", pm_spec, "--povm", povm_kind,
                                  "--theta", "0.1,0.2", "--n", "3000", "--seed", "4"])
        built = parse_model_spec(json.loads(Path(pm_spec).read_text()))[0]
        state = built.evaluate(theta)
        povm = (estimation.grid_pvm(built.space) if povm_kind == "grid"
                else estimation.schmidt_povm([state]))
        values, counts = np.unique(estimation.sample_outcomes(povm, state, 3000, 4),
                                   return_counts=True)
        assert doc["counts"] == [[int(v), int(c)] for v, c in zip(values, counts)]

    def test_schmidt_povm_on_parallel_family(self, capsys, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(json.dumps({
            "kind": "catalog", "name": "spin_jz",
            "params": {"amplitudes": [0.5, 0.7071067811865475, 0.5]},
        }))
        doc = run_to_doc(capsys, [
            "fisher", "--model", str(path), "--povm", "schmidt",
            "--theta", "0;0.5;1", "--samples", "0;0.5;1;1.5;2",
        ])
        for entry in doc["entries"]:
            assert entry["classical_fisher"][0][0] == pytest.approx(2.0, abs=1e-9)

    def test_tabulated_povm_file(self, capsys, tmp_path):
        model_path = tmp_path / "spin_half.json"
        model_path.write_text(json.dumps({
            "kind": "catalog", "name": "spin_jz",
            "params": {"amplitudes": [0.7071067811865475, 0.7071067811865475]},
        }))
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps({
            "kind": "matrices",
            "elements": [
                [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
                [[[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.5, 0.0]]],
            ],
        }))
        doc = run_to_doc(capsys, [
            "fisher", "--model", str(model_path), "--povm", str(povm_path),
            "--theta", "0.3",
        ])
        entry = doc["entries"][0]
        # x-basis measurement of the rotating spin-1/2: attains J = 1
        assert entry["classical_fisher"][0][0] == pytest.approx(
            entry["sld_fisher"][0][0], rel=1e-8)


class TestExitCodes:
    def test_missing_model_file(self, capsys, tmp_path):
        code = main(["report", "--model", str(tmp_path / "nope.json"),
                     "--theta", "0"])
        assert code == 2

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "unknown_model"}))
        assert main(["report", "--model", str(path), "--theta", "0"]) == 2

    def test_numerical_contract_violation(self, capsys, tmp_path):
        # schmidt construction on a non-parallel family
        path = tmp_path / "tw.json"
        path.write_text(json.dumps({
            "kind": "catalog", "name": "two_well",
            "params": {"grid": {"n": 512, "lower": -8, "upper": 8}},
        }))
        code = main(["fisher", "--model", str(path), "--povm", "schmidt",
                     "--theta=-0.5;0;0.5"])
        assert code == 3

    @pytest.mark.parametrize("argv", [["report"], ["fisher", "--povm", "grid"]],
                             ids=["report", "fisher"])
    def test_a_lift_gram_that_overflows(self, capsys, tmp_path, argv):
        path = tmp_path / "tiny_step.json"
        path.write_text(json.dumps(TINY_STEP))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([argv[0], "--model", str(path), *argv[1:], "--theta=1e-300"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == f"qestgeo: numerical contract violated: {GRAM_NOT_FINITE}\n"

    # exact J_S = 2 at every boost; at n = 64 the answers were 2 + 8.6e-13,
    # 2 + 8.6e-10, 2 - 8.7e-5 (p0 = 1e12) and 7.6 (p0 = 1e16), and p0 = 1e306
    # overflowed the lift Gram.  The guard reads the grid bounds and the domain, not n
    @pytest.mark.parametrize("p0, n, code", [
        (1e4, 64, 0), (1e8, 64, 0), (1e8, 1024, 0), (1e12, 64, 2), (1e14, 64, 2),
        (1e14, 1024, 2), (1e16, 64, 2), (1e306, 64, 2)])
    def test_the_boost_table_as_exit_codes(self, capsys, tmp_path, p0, n, code):
        path = tmp_path / "boosted.json"
        path.write_text(json.dumps(boosted_spec(p0, n)))
        assert main(["report", "--model", str(path), "--theta=0.3"]) == code
        out, err = capsys.readouterr()
        if code == 0:
            j_s = json.loads(out)["entries"][0]["sld_fisher"][0][0]
            assert j_s == pytest.approx(2.0, rel=1e-8)
        else:
            assert out == ""
            assert err.startswith(f"qestgeo: spec error: params: invalid params for "
                                  f"position_shift: p0 = {p0!r} makes phase arguments")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("fn", [
        geometry.sld_fisher,
        geometry.berry_curvature,
        lambda lift: estimation.lift_fisher(estimation.grid_pvm(lift.phi.space), lift),
    ], ids=["sld_fisher", "berry_curvature", "lift_fisher"])
    def test_a_lift_gram_that_overflows_in_the_library(self, fn):
        lift = parse_model_spec(TINY_STEP)[0].horizontal_lift(1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ModelDefinitionError) as err:
                fn(lift)
        assert str(err.value) == GRAM_NOT_FINITE

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["report", "--frobnicate"])
        assert err.value.code == 64

    def test_theta_arity_checked(self, capsys, pm_spec):
        assert main(["report", "--model", pm_spec, "--theta", "0"]) == 2

    def test_closed_loop_off_its_start_ray(self, tmp_path):
        model_path = tmp_path / "bloch.json"
        model_path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        loop_path = tmp_path / "loop.json"
        loop_path.write_text(json.dumps({"thetas": [[0.3, 0.0], [0.8, 0.0], [0.9, 0.2]],
                                         "closed": True}))
        src = str(Path(qestgeo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "qestgeo.cli", "holonomy", "--model", str(model_path),
             "--loop", str(loop_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("qestgeo: ")
        assert "endpoint rays differ" in proc.stderr
        assert "Traceback" not in proc.stderr


def error_classes(base=QestgeoError):
    """``base`` and every subclass of it that the package defines, recursively."""
    found = {base}
    for sub in base.__subclasses__():
        if sub.__module__.startswith("qestgeo."):
            found |= error_classes(sub)
    return found


# the error hierarchy decides the exit code: a class that moves between
# these sets changes what the CLI prints and returns
INPUT_ERRORS = {"InputError", "SpecFormatError", "DomainError", "ClosureError"}
CONTRACT_ERRORS = {"ContractError", "NonRealOverlapError", "ModelDefinitionError",
                   "RankDeficiencyError", "SpectralConsistencyError",
                   "SingularSupportError", "RefinementError", "UndefinedPhaseError",
                   "AnchorError"}
OTHER_ERRORS = {"QestgeoError", "SpaceMismatchError", "UnsupportedSpaceError",
                "MeasurementDefinitionError"}


class TestErrorCategories:
    def test_the_sets_cover_every_error_class(self):
        names = {cls.__name__ for cls in error_classes()}
        assert names == INPUT_ERRORS | CONTRACT_ERRORS | OTHER_ERRORS
        assert {c.__name__ for c in error_classes(InputError)} == INPUT_ERRORS
        assert {c.__name__ for c in error_classes(ContractError)} == CONTRACT_ERRORS

    @pytest.mark.parametrize("cls", sorted(error_classes(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_each_error_exits_with_its_category(self, capsys, monkeypatch, cls):
        def fail(path):
            raise cls("boom")

        monkeypatch.setattr(cli, "_load_model", fail)
        code, line = ((2, "spec error") if cls.__name__ in INPUT_ERRORS
                      else (3, "numerical contract violated")
                      if cls.__name__ in CONTRACT_ERRORS else (3, "error"))
        assert main(["report", "--model", "m.json", "--theta", "0"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qestgeo: {line}: boom\n"


class TestDocumentFrame:
    """Every subcommand's document opens with the same ``tool`` and ``model``
    header, and the model is read before any other input."""

    @pytest.fixture
    def bloch_spec(self, tmp_path):
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["report", "--theta=0.4,0.1"],
        ["holonomy", "--loop", "LOOP"],
        ["check", "--samples=0.6,0;0.9,0.5"],
        ["fisher", "--povm", "basis", "--theta=0.4,0.1"],
        ["sample", "--povm", "basis", "--theta=0.4,0.1", "--n", "10", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_document_begins_with_tool_and_model(self, capsys, tmp_path,
                                                       bloch_spec, argv):
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"thetas": [[0.3, 0.0], [0.3, 1.0], [0.3, 2.0]]}))
        argv = [str(loop) if a == "LOOP" else a for a in argv]
        doc = run_to_doc(capsys, argv + ["--model", bloch_spec])
        assert list(doc)[:2] == ["tool", "model"]
        assert doc["tool"] == {"name": "qestgeo", "version": qestgeo.__version__,
                               "command": argv[0]}
        assert doc["model"] == {"kind": "catalog", "name": "bloch", "params": {}}

    @pytest.mark.parametrize("argv", [
        ["holonomy", "--loop", "missing_loop.json"],
        ["fisher", "--povm", "missing_povm.json", "--theta=0.4,0.1"],
    ], ids=lambda argv: argv[0])
    def test_a_bad_model_is_reported_before_other_inputs(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "unknown_model"}))
        argv = [str(tmp_path / a) if a.startswith("missing_") else a for a in argv]
        assert main(argv + ["--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qestgeo: spec error: name: unknown catalog model 'unknown_model'")
        assert "missing_" not in err


SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


@pytest.fixture(scope="module")
def document_validator():
    schemas = {p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.json")}
    # "$ref": "model_spec.schema.json" resolves against the "qestgeo/" id base
    registry = Registry().with_resources(
        (f"qestgeo/{name}", Resource.from_contents(doc)) for name, doc in schemas.items()
    )
    return jsonschema.Draft7Validator(schemas["report_document.schema.json"],
                                      registry=registry)


class TestDocumentSchema:
    def test_check_documents(self, capsys, tmp_path, two_well_spec, document_validator):
        gauss = tmp_path / "gauss.json"
        gauss.write_text(json.dumps({
            "kind": "catalog", "name": "position_shift",
            "params": {"profile": "gaussian",
                       "grid": {"n": 256, "lower": -10, "upper": 10}},
        }))
        for spec, invariant in ((str(gauss), True), (two_well_spec, None)):
            doc = run_to_doc(capsys, ["check", "--model", spec,
                                      "--samples=-1;-0.5;0;0.5;1"])
            document_validator.validate(doc)
            assert doc["antiunitary"]["invariant"] is invariant

    def test_holonomy_documents(self, capsys, tmp_path, document_validator):
        bloch = tmp_path / "bloch.json"
        bloch.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        latitude = tmp_path / "latitude.json"
        latitude.write_text(json.dumps({
            "thetas": [[0.9, 2 * np.pi * j / 64] for j in range(65)], "closed": True}))
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({
            "kind": "catalog", "name": "ring_flux",
            "params": {"grid": {"n": 256, "lower": 0.0, "upper": 2 * np.pi,
                                "periodic": True}},
        }))
        arc = tmp_path / "arc.json"
        arc.write_text(json.dumps({"thetas": [[0.5 + j / 20] for j in range(21)]}))
        for model_path, loop_path, closed in ((bloch, latitude, True), (ring, arc, False)):
            doc = run_to_doc(capsys, ["holonomy", "--model", str(model_path),
                                      "--loop", str(loop_path)])
            document_validator.validate(doc)
            assert doc["loop"]["closed"] is closed

    def test_report_fisher_and_sample_documents(self, capsys, tmp_path, pm_spec,
                                                document_validator):
        bloch = tmp_path / "bloch.json"
        bloch.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        spin = tmp_path / "spin.json"
        spin.write_text(json.dumps({
            "kind": "catalog", "name": "spin_jz",
            "params": {"amplitudes": [0.5, 0.7071067811865475, 0.5]},
        }))
        octahedral = tmp_path / "octahedral.json"
        octahedral.write_text(json.dumps(octahedral_povm_doc()))
        runs = [
            ["report", "--model", pm_spec, "--theta", "0,0;0.3,-0.4", "--weight", "js"],
            ["report", "--model", str(bloch), "--theta", "0,0;0.7,0.2",
             "--weight", "diag:1,2"],
            ["fisher", "--model", pm_spec, "--povm", "grid", "--theta", "0,0;0.2,0.1"],
            ["fisher", "--model", str(spin), "--povm", "schmidt", "--theta", "0;0.5",
             "--samples", "0;0.5;1;1.5;2"],
            ["fisher", "--model", str(bloch), "--povm", str(octahedral),
             "--theta", "0.7,0.2;1.1,4"],
            ["sample", "--model", pm_spec, "--povm", "grid", "--theta", "0.1,0.2",
             "--n", "500", "--seed", "3"],
            ["sample", "--model", str(bloch), "--povm", str(octahedral),
             "--theta", "0.7,0.2", "--n", "500", "--seed", "3"],
        ]
        for argv in runs:
            doc = run_to_doc(capsys, argv)
            document_validator.validate(doc)
            assert doc["tool"]["command"] == argv[0]


class TestRenderDocument:
    """The explicit serializer pins the bytes of every output document."""

    def test_float_free_documents_match_json_dumps(self):
        docs = [
            {},
            [],
            {"a": 1, "b": [True, False, None], "c": {"d": [], "e": {}}},
            [[1, 2], [[], [{}]], "x\"y\\z\n\t", "é中\U0001f600"],
            {"nested": {"deeper": {"list": [0, -3, 12345678901234567890]}}},
            {"über": ["å", ""], "": 0},
            ("tuple", 1),
            "plain",
            42,
            None,
        ]
        for doc in docs:
            assert render_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_float_spellings(self):
        doc = {
            "nan": float("nan"),
            "inf": [float("inf"), float("-inf")],
            "zero": [0.0, -0.0],
            "third": 1.0 / 3.0,
            "tiny": 5e-324,
            "big": 1e300,
            "np": np.float64(0.1),
            "empty": {"list": [], "dict": {}, "deep": [[], {}]},
            "ßì": 2.5,
        }
        want = (
            '{\n'
            '  "nan": NaN,\n'
            '  "inf": [\n    Infinity,\n    -Infinity\n  ],\n'
            '  "zero": [\n    0,\n    -0\n  ],\n'
            '  "third": 0.33333333333333331,\n'
            '  "tiny": 4.9406564584124654e-324,\n'
            '  "big": 1.0000000000000001e+300,\n'
            '  "np": 0.10000000000000001,\n'
            '  "empty": {\n    "list": [],\n    "dict": {},\n'
            '    "deep": [\n      [],\n      {}\n    ]\n  },\n'
            '  "\\u00df\\u00ec": 2.5\n'
            '}\n'
        )
        assert render_document(doc) == want

    def test_unsupported_values_raise(self):
        with pytest.raises(TypeError):
            render_document({"a": np.int64(3)})
        with pytest.raises(TypeError):
            render_document({1: "int key"})

    def test_lists_of_plain_numbers_render_as_each_number_alone(self):
        # every list goes one value at a time, so plain floats, ints,
        # np.float64, bools and mixed lists give the bytes of each value alone
        for values in ([0.5, -0.0, 1e300, 5e-324, 1.0 / 3.0], [float("nan"), 2.0],
                       [1.0, float("-inf")], [3, -12, 12345678901234567890],
                       [np.float64(0.1), 0.1], [True, 1, 1.5], [[1, 2], [0.25, 0.5]],
                       (7, 8)):
            want = "[\n" + ",\n".join("  " + render_document(v)[:-1].replace("\n", "\n  ")
                                       for v in values) + "\n]\n"
            assert render_document(values) == want
            assert render_document({"k": values, "j": {"k": values}}).count('"k"') == 2
        assert render_document([1, 2]) == json.dumps([1, 2], indent=2) + "\n"
        for bad in ([np.int64(3)], [1, np.int64(3)], [1.0, np.float32(2.0)]):
            with pytest.raises(TypeError):
                render_document(bad)


# numbers a row renderer must spell as the dict path does
SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308,
                  -1e308, 2.0, -3.0, 1e16, 1.0 / 3.0]


def off_unit_rows(rows, weight):
    """``(k, dim, 2)`` rows of norm ``1 + 1e-9`` on a space of quadrature
    ``weight``, as lists: a tabulated spec that its parse rescales."""
    norms = np.sqrt(weight * np.sum(rows ** 2, axis=(1, 2)))
    return (rows * ((1.0 + 1e-9) / norms)[:, None, None]).tolist()


class TestRows:
    """``cli._rows`` renders entries from column arrays with the bytes of the
    equivalent dict entries."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_report_rows_match_the_dict_entries(self, data):
        m = data.draw(st.sampled_from([1, 2, 3]))
        k = data.draw(st.integers(1, 6))
        weighted = data.draw(st.booleans())
        ok = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        counts = [data.draw(st.integers(0, m // 2)) if r else 0 for r in ok]
        quasi = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        number = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())

        def block(width):
            flat = data.draw(st.lists(number, min_size=k * width, max_size=k * width))
            return np.array(flat, dtype=float).reshape(k, width)

        theta, j_s, j_t, d, betas = block(m), block(m * m), block(m * m), block(m * m), \
            block(m // 2)
        bound, cr, weight = block(1), block(1), block(1)
        entries = []
        for r in range(k):
            entry = {
                "theta": theta[r].tolist(),
                "sld_fisher": j_s[r].reshape(m, m).tolist(),
                "berry_curvature": j_t[r].reshape(m, m).tolist(),
                "d_transform": d[r].reshape(m, m).tolist() if ok[r] else None,
                "betas": betas[r, :counts[r]].tolist(),
                "sld_bound_js": float(bound[r, 0]) if ok[r] else None,
                "attainable_cr_js": float(cr[r, 0]) if ok[r] else None,
                "quasi_classical": quasi[r],
                "rank_deficient": not ok[r],
            }
            if weighted:
                entry["sld_bound_weight"] = float(weight[r, 0]) if ok[r] else None
            entries.append(entry)
        number_shape = [() if r else None for r in ok]
        shapes = [(m,), (m, m), (m, m), [(m, m) if r else None for r in ok],
                  [(n,) for n in counts], number_shape, number_shape, quasi,
                  [not r for r in ok]] + [number_shape] * weighted
        columns = [theta, j_s, j_t, d, betas, bound, cr, np.empty((k, 0)),
                   np.empty((k, 0))] + [weight] * weighted
        rows = cli._rows(cli._TOP, list(zip(entries[0], shapes, columns)))
        assert (render_document({"entries": rows, "after": 1})
                == render_document({"entries": entries, "after": 1}))

    @pytest.mark.parametrize("pairs", [[[0, 7]], [[3, 1], [17, 12345678901234567890 // 10**10]],
                                       [[i, 1000 - i] for i in range(0, 1000, 37)]])
    def test_integer_rows_match_the_lists(self, pairs):
        rows = cli._rows(cli._TOP, [(None, (2,), np.array(pairs, dtype=np.int64))])
        assert render_document({"counts": rows}) == render_document({"counts": pairs})

    @pytest.mark.parametrize("space, rows", [
        ({"type": "basis", "dimension": 2},
         [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, -0.8]], [[0.0, 0.6], [0.8 + 1e-9, 0.0]]]),
        ({"type": "grid", "n": 40, "lower": -1.0, "upper": 1.0},
         off_unit_rows(np.random.default_rng(3).normal(size=(3, 40, 2)), 2.0 / 39)),
    ], ids=["basis", "grid"])
    def test_a_tabulated_echo_renders_its_normalized_rows(self, space, rows):
        spec = {"kind": "tabulated", "space": space, "thetas": [0.0, 0.1, 0.2],
                "amplitudes": rows}
        built, echo = parse_model_spec(spec)
        rows = np.array(rows)
        amps = rows[..., 0] + 1j * rows[..., 1]
        amps /= np.sqrt(built.space.weight) * np.linalg.norm(amps, axis=1)[:, None]
        lists = np.stack((amps.real, amps.imag), -1).tolist()
        assert (render_document({"model": echo, "after": 1})
                == render_document({"model": {**echo, "amplitudes": lists}, "after": 1}))


def octahedral_povm_doc():
    """POVM file with six elements |v><v| / 3 along the +-x, +-y, +-z axes."""
    r = 2**-0.5
    kets = np.asarray([(1, 0), (0, 1), (r, r), (r, -r), (r, 1j * r), (r, -1j * r)],
                      dtype=complex)
    return {"kind": "matrices", "elements": [
        [[[z.real, z.imag] for z in row] for row in np.outer(v, v.conj()) / 3.0]
        for v in kets]}


class TestPovmFileSize:
    """A POVM file whose elements do not match the model's dimension."""

    @pytest.mark.parametrize("command", [
        ["fisher", "--theta", "0.3,0.1"],
        ["sample", "--theta", "0.3,0.1", "--n", "10", "--seed", "1"],
    ])
    def test_wrong_size_is_a_spec_error(self, capsys, tmp_path, command):
        bloch = tmp_path / "bloch.json"
        bloch.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        povm = tmp_path / "p3.json"
        povm.write_text(json.dumps({"kind": "matrices", "elements": [
            [[[1.0 if i == j == k else 0.0, 0.0] for j in range(3)] for i in range(3)]
            for k in range(3)]}))
        code = main([command[0], "--model", str(bloch), "--povm", str(povm),
                     *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "qestgeo: spec error: invalid POVM: element 0 is not 2x2\n"


class TestNonFinitePovm:
    """A POVM file with a NaN or infinite entry is a spec error."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", [
        ["fisher", "--theta", "0.3,0.1"],
        ["sample", "--theta", "0.3,0.1", "--n", "10", "--seed", "1"],
    ])
    def test_non_finite_entry_is_a_spec_error(self, capsys, tmp_path, command, bad):
        bloch = tmp_path / "bloch.json"
        bloch.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
        doc = octahedral_povm_doc()
        doc["elements"][2][0][1][0] = bad
        povm = tmp_path / "bad.json"
        povm.write_text(json.dumps(doc))
        code = main([command[0], "--model", str(bloch), "--povm", str(povm),
                     *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "qestgeo: spec error: invalid POVM: element 2 has a non-finite entry\n")


class TestSampleArguments:
    @pytest.mark.parametrize("bad, message", [
        (["--n", "0", "--seed", "1"], "argument --n: must be an integer >= 1, got 0"),
        (["--n", "-3", "--seed", "1"], "argument --n: must be an integer >= 1, got -3"),
        (["--n", "5", "--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
    ])
    def test_out_of_range_counts_are_usage_errors(self, capsys, pm_spec, bad, message):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", pm_spec, "--povm", "grid", "--theta", "0,0", *bad])
        assert err.value.code == 64
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: qestgeo sample")
        assert stderr.endswith(f"qestgeo sample: error: {message}\n")


def counting_model(calls):
    """position_shift n=256 whose evaluate_fn counts its calls."""
    import dataclasses

    base = qestgeo.catalog("position_shift", {"grid": {"n": 256, "lower": -10, "upper": 10}})

    def ev(theta):
        calls.append(tuple(theta))
        return base.evaluate_fn(theta)

    return dataclasses.replace(base, evaluate_fn=ev)


class TestEvaluationCounts:
    SAMPLES = "--samples=-1;-0.5;0;0.5;1"

    def test_check_evaluates_each_sample_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_load_model",
                            lambda path: (counting_model(calls), {"kind": "test"}))
        doc = run_to_doc(capsys, ["check", "--model", "-", self.SAMPLES])
        assert doc["quasi_parallel"]["flag"] is True
        # five samples plus the momentum section's base state
        assert len(calls) == 6
        assert len(set(calls[:5])) == 5

    def test_check_builds_two_overlap_matrices(self, capsys, monkeypatch):
        # one of the raw samples (alignment, raw verdict) and one of the
        # aligned samples (verdict, Gram-Schmidt precondition)
        built = []
        overlap_matrix = hilbert.overlap_matrix

        def counted(vectors):
            built.append(len(vectors))
            return overlap_matrix(vectors)

        monkeypatch.setattr(hilbert, "overlap_matrix", counted)
        monkeypatch.setattr(cli, "_load_model",
                            lambda path: (counting_model([]), {"kind": "test"}))
        doc = run_to_doc(capsys, ["check", "--model", "-", self.SAMPLES])
        assert doc["antiunitary"]["constructed"] is True
        assert built == [5, 5]

    def test_schmidt_construction_evaluates_each_sample_once(self):
        calls = []
        samples = cli.parse_theta_list(self.SAMPLES.split("=")[1], 1)
        povm, echo = cli._make_povm("schmidt", counting_model(calls), samples)
        assert echo == {"kind": "schmidt", "n_samples": 5}
        assert povm.n_outcomes == 6  # five basis vectors and the complement
        assert len(calls) == 5

    def test_sample_schmidt_evaluates_its_theta_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_load_model",
                            lambda path: (counting_model(calls), {"kind": "test"}))
        doc = run_to_doc(capsys, ["sample", "--model", "-", "--povm", "schmidt",
                                  "--theta=0.3", "--n", "100", "--seed", "1"])
        assert doc["povm"] == {"kind": "schmidt", "n_samples": 1}
        assert calls == [(0.3,)]

    def test_check_without_an_anchor_is_a_numerical_error(self, capsys, tmp_path):
        # far-apart gaussians overlap nowhere: alignment finds no anchor
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "kind": "catalog", "name": "position_shift",
            "params": {"grid": {"n": 512, "lower": -40, "upper": 40},
                       "domain": [[-20, 20]]},
        }))
        assert main(["check", "--model", str(path), "--samples=-15;0;15"]) == 3
        assert "no sample overlaps every other sample" in capsys.readouterr().err


def test_stdout_closed_early_exits_cleanly(tmp_path):
    model_path = tmp_path / "bloch.json"
    model_path.write_text(json.dumps({"kind": "catalog", "name": "bloch"}))
    # about 300 kB of output, well past a pipe's buffer
    thetas = ";".join(f"{0.3 + 0.001 * k},{0.01 * k}" for k in range(400))
    src = str(Path(qestgeo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "qestgeo.cli", "report", "--model", str(model_path),
         "--theta", thetas],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "tool"'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""
