"""Print the exit code and the sha256 of stdout and stderr of fixed
``qestgeo`` invocations, one line each:

    name exit_code stdout_sha256 stderr_sha256

    python tools/cli_digests.py [--src DIR] [--only NAME,NAME...]

The invocations cover every subcommand, on success and on the spec,
numerical and usage error paths.  Their input files are written to a
temporary directory that is also the working directory, so messages that
name a file do not depend on where it lies.  ``--src`` is the directory
holding the ``qestgeo`` package (default: ``src`` next to this script),
so two checkouts compare line by line:

    diff <(python tools/cli_digests.py) \\
         <(python tools/cli_digests.py --src ../other/src)

``--values OTHER`` compares against the package in the directory
``OTHER`` directly: for each invocation whose stdout differs, it prints
the largest absolute and relative difference over the numbers of the two
JSON documents, one line each,

    name max_abs max_rel numbers path

where ``path`` names the number of the largest relative difference, or
``name structure`` when the two documents differ in anything but their
numbers (keys, lengths, strings, flags, or stdout that is not JSON).
``OTHER`` runs in a child process, since one process imports one
``qestgeo``:

    python tools/cli_digests.py --values ../other/src
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spin_table(phases):
    """A tabulated spin-1 rotation exp(-i theta J_z) psi0 on 11 rows, each
    row multiplied by ``exp(i phases[k])``; exact ``J_S = 4 Var(J_z)``
    ``= 2.294416`` at every row."""
    thetas = [0.1 * k for k in range(11)]
    psi0 = np.array([0.6, 0.64, 0.48])
    m_values = np.array([-1.0, 0.0, 1.0])
    rows = []
    for theta, phase in zip(thetas, phases):
        amp = np.exp(1j * (phase - theta * m_values)) * psi0
        rows.append([[float(a.real), float(a.imag)] for a in amp])
    return {"kind": "tabulated", "space": {"type": "basis", "dimension": 3},
            "thetas": thetas, "amplitudes": rows}


def octahedral_povm():
    """Six elements |v><v| / 3 along the +-x, +-y, +-z Bloch axes."""
    s = 2**-0.5
    elements = []
    for ket in [(1, 0), (0, 1), (s, s), (s, -s), (s, 1j * s), (s, -1j * s)]:
        v = np.asarray(ket, dtype=complex)
        e = np.outer(v, v.conj()) / 3.0
        elements.append([[[z.real, z.imag] for z in row] for row in e])
    return {"kind": "matrices", "elements": elements}


def grid_spec(name, n, lower=-10.0, upper=10.0, **params):
    params["grid"] = {"n": n, "lower": lower, "upper": upper}
    return {"kind": "catalog", "name": name, "params": params}


FILES = {
    "bloch.json": {"kind": "catalog", "name": "bloch"},
    "spin.json": {"kind": "catalog", "name": "spin_jz",
                  "params": {"amplitudes": [0.3, -0.5, 0.6, 0.2, -0.4, 0.3]}},
    # norms that under- and overflow unless the amplitudes are rescaled first
    "spin_tiny.json": {"kind": "catalog", "name": "spin_jz",
                       "params": {"amplitudes": [3e-200, 4e-200]}},
    "spin_huge.json": {"kind": "catalog", "name": "spin_jz",
                       "params": {"amplitudes": [1e308, 1e308]}},
    "ps.json": grid_spec("position_shift", 1024, profile="gaussian"),
    "pm.json": grid_spec("position_momentum_shift", 1024, profile="gaussian"),
    "chirped.json": grid_spec("position_shift", 1024,
                              profile={"name": "chirped_gaussian", "chirp": 0.3}),
    "two_well.json": grid_spec("two_well", 2048, lower=-8.0, upper=8.0),
    "far.json": grid_spec("position_shift", 512, lower=-40.0, upper=40.0,
                          domain=[[-20.0, 20.0]]),
    "hermite.json": grid_spec("position_shift", 257, lower=-8.0, upper=8.0,
                              profile={"name": "hermite", "n": 1}),
    "fine.json": grid_spec("position_shift", 16384, profile="gaussian"),
    "pm_finest.json": grid_spec("position_momentum_shift", 65536, profile="gaussian"),
    "chirped_finest.json": grid_spec("position_shift", 65536,
                                     profile={"name": "chirped_gaussian", "chirp": 0.3}),
    "ring.json": {"kind": "catalog", "name": "ring_flux",
                  "params": {"grid": {"n": 1024, "lower": 0.0, "upper": 2.0 * math.pi,
                                      "periodic": True}}},
    "table.json": spin_table([0.0] * 11),
    "table_phases.json": spin_table(np.random.default_rng(7).uniform(0, 2 * math.pi, 11)),
    "table_inf.json": {"kind": "tabulated", "space": {"type": "basis", "dimension": 2},
                       "thetas": [0.0, math.inf], "amplitudes": [[[1.0, 0.0], [0.0, 0.0]]] * 2},
    # rows of unit norm on the periodic grid that the string "false" used to build
    "table_periodic_string.json": {
        "kind": "tabulated",
        "space": {"type": "grid", "n": 2, "lower": 0.0, "upper": 1.0, "periodic": "false"},
        "thetas": [0.0, 0.1, 0.2],
        "amplitudes": [[[2**0.5 * math.cos(t), 0.0], [2**0.5 * math.sin(t), 0.0]]
                       for t in (0.0, 0.1, 0.2)]},
    "octahedral.json": octahedral_povm(),
    "latitude.json": {"thetas": [[1.1, 2.0 * math.pi * j / 2000] for j in range(2001)]},
    "rectangle.json": {"thetas": [[0.1 + 0.3 * j / 8, 0.2] for j in range(8)]
                       + [[0.4, 0.2 + 0.4 * j / 8] for j in range(8)]
                       + [[0.4 - 0.3 * j / 8, 0.6] for j in range(8)]
                       + [[0.1, 0.6 - 0.4 * j / 8] for j in range(9)]},
    "ring_open.json": {"thetas": [[0.7 + 2.0 * j / 200] for j in range(201)]},
    "table_line.json": {"thetas": [[0.1 * k] for k in range(11)]},
    "ragged.json": {"thetas": [[0.3, 0.1], [0.4], [0.5, 0.1]]},
    "open_end.json": {"thetas": [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], "closed": True},
    "two_well_nan.json": {"kind": "catalog", "name": "two_well", "params": {"alpha": math.nan}},
    "p0_huge.json": grid_spec("position_shift", 64,
                              profile={"name": "boosted_gaussian", "p0": 1e308}),
    "chirp_huge.json": grid_spec("position_shift", 64,
                                 profile={"name": "chirped_gaussian", "chirp": 1e308}),
    "ring_alpha_huge.json": {"kind": "catalog", "name": "ring_flux",
                             "params": {"alpha": 1e308}},
    "width_tiny.json": grid_spec("position_shift", 64,
                                 profile={"name": "gaussian", "width": 1e-300}),
    "p0_large.json": grid_spec("position_shift", 64,
                               profile={"name": "boosted_gaussian", "p0": 1e306}),
    "width_small.json": grid_spec("position_shift", 64,
                                  profile={"name": "gaussian", "width": 1.5e-154}),
    "two_well_512.json": grid_spec("two_well", 512, lower=-8.0, upper=8.0),
}

BLOCH_THETAS = "--theta=0.4,0.1;1.1,2.5;2.7,5.9"
# the pole first: a rank-deficient row (nulls, -0) before a regular one
POLE_THETAS = "--theta=0,0.3;1.1,2.5"
INVOCATIONS = {
    "report_bloch": ["report", "--model", "bloch.json", BLOCH_THETAS, "--weight", "js"],
    "report_spin": ["report", "--model", "spin.json", "--theta=-2;0.3;1.7"],
    "report_bloch_pole": ["report", "--model", "bloch.json", POLE_THETAS,
                          "--weight", "diag:1,2"],
    "report_bloch_pole_js": ["report", "--model", "bloch.json", POLE_THETAS, "--weight", "js"],
    "report_spin_tiny": ["report", "--model", "spin_tiny.json", "--theta=0.3"],
    "report_spin_huge": ["report", "--model", "spin_huge.json", "--theta=0.3"],
    "report_pm": ["report", "--model", "pm.json", "--theta=0,0;0.5,-0.3",
                  "--weight", "diag:1,3"],
    "report_chirped": ["report", "--model", "chirped.json", "--theta=-0.5;0.25"],
    "report_two_well": ["report", "--model", "two_well.json", "--theta=0;0.4"],
    "report_ring": ["report", "--model", "ring.json", "--theta=1;3.5"],
    # one row a block at n = 65536, cut into column tiles
    "report_pm_finest": ["report", "--model", "pm_finest.json",
                         "--theta=0.3,-0.2;-0.7,0.9;1.1,0.05"],
    "report_chirped_finest": ["report", "--model", "chirped_finest.json",
                              "--theta=-0.5;0.25;0.8"],
    "report_table": ["report", "--model", "table.json", "--theta=0.1;0.5;0.9"],
    "report_table_phases": ["report", "--model", "table_phases.json",
                            "--theta=0.1;0.5;0.9"],
    "holonomy_latitude": ["holonomy", "--model", "bloch.json", "--loop", "latitude.json",
                          "--closed"],
    "holonomy_rectangle": ["holonomy", "--model", "pm.json", "--loop", "rectangle.json",
                           "--closed"],
    "holonomy_ring_open": ["holonomy", "--model", "ring.json", "--loop", "ring_open.json"],
    # every table point of the random-phase table, one state per call
    "holonomy_table_phases": ["holonomy", "--model", "table_phases.json", "--loop",
                              "table_line.json"],
    "check_gauss": ["check", "--model", "ps.json", "--samples=-1;-0.5;0;0.5;1"],
    "check_two_well": ["check", "--model", "two_well.json", "--samples=-1;-0.3;0.4;1"],
    "check_bloch": ["check", "--model", "bloch.json", "--samples=0.6,0;0.9,0.5;1.2,1"],
    "check_table": ["check", "--model", "table_phases.json", "--samples=0.1;0.5;0.9"],
    "fisher_octahedral": ["fisher", "--model", "bloch.json", "--povm", "octahedral.json",
                          BLOCH_THETAS],
    "fisher_bloch_pole": ["fisher", "--model", "bloch.json", "--povm", "basis", POLE_THETAS],
    "fisher_grid": ["fisher", "--model", "ps.json", "--povm", "grid",
                    "--theta=-0.7;0.2;0.9"],
    "fisher_schmidt": ["fisher", "--model", "ps.json", "--povm", "schmidt",
                       "--theta=-0.5;0.5", "--samples=-1;-0.5;0;0.5;1"],
    # 21 samples on [-1, 1]: Gram-Schmidt keeps 15 and drops 6
    "fisher_schmidt_rejects": ["fisher", "--model", "ps.json", "--povm", "schmidt",
                               "--theta=-0.5;0.5",
                               "--samples=" + ";".join(f"{-1.0 + j / 10!r}"
                                                       for j in range(21))],
    "fisher_table": ["fisher", "--model", "table.json", "--povm", "basis",
                     "--theta=0.2;0.6"],
    "fisher_table_phases": ["fisher", "--model", "table_phases.json", "--povm", "basis",
                            "--theta=0.2;0.6"],
    "fisher_table_schmidt": ["fisher", "--model", "table.json", "--povm", "schmidt",
                             "--theta=0.2;0.6", "--samples=0.4;0.6"],
    # 16 rows a block at n = 1024: three blocks, the last one short
    "fisher_grid_blocks": ["fisher", "--model", "ps.json", "--povm", "grid",
                           "--theta=" + ";".join(f"{-1.5 + 3.0 * j / 39!r}"
                                                 for j in range(40))],
    "fisher_pm_grid": ["fisher", "--model", "pm.json", "--povm", "grid",
                       "--theta=0,0;0.5,-0.3;-1,1.5"],
    "fisher_chirped_grid": ["fisher", "--model", "chirped.json", "--povm", "grid",
                            "--theta=-0.5;0.25"],
    # the node at x = 0 sits on a grid point at theta = 0, not at 0.3
    "fisher_node": ["fisher", "--model", "hermite.json", "--povm", "grid",
                    "--theta=0;0.3"],
    "fisher_grid_fine": ["fisher", "--model", "fine.json", "--povm", "grid",
                         "--theta=0.3"],
    # the -z outcome is clipped near the pole but still carries a score
    "error_support": ["fisher", "--model", "bloch.json", "--povm", "octahedral.json",
                      "--theta=0.4,0.1;1.1,2.5;2.7,5.9;1e-6,0.3;1e-6,0.5"],
    "sample_grid": ["sample", "--model", "ps.json", "--povm", "grid", "--theta=0.3",
                    "--n", "100000", "--seed", "11"],
    "sample_schmidt": ["sample", "--model", "ps.json", "--povm", "schmidt", "--theta=0.3",
                       "--n", "1000", "--seed", "5"],
    "sample_table": ["sample", "--model", "table.json", "--povm", "basis", "--theta=0.5",
                     "--n", "1000", "--seed", "3"],
    "error_domain": ["report", "--model", "ps.json", "--theta=5"],
    # a table's tangent needs both neighbours; its states exist at its points only
    "error_table_edge": ["report", "--model", "table.json", "--theta=0.0"],
    "error_table_offgrid": ["report", "--model", "table.json", "--theta=0.05"],
    # an infinite step once put every theta on row 0
    "error_table_inf_theta": ["check", "--model", "table_inf.json", "--samples=5;7;1e300"],
    "error_space_periodic_string": ["report", "--model", "table_periodic_string.json",
                                    "--theta=0.1"],
    "error_ragged_loop": ["holonomy", "--model", "bloch.json", "--loop", "ragged.json"],
    "error_open_loop": ["holonomy", "--model", "bloch.json", "--loop", "open_end.json"],
    # gaussians 15 widths apart overlap nowhere: no phase-alignment anchor
    "error_no_anchor": ["check", "--model", "far.json", "--samples=-15;0;15"],
    # a non-finite parameter is a spec error, read before any arithmetic
    "error_nonfinite_alpha": ["report", "--model", "two_well_nan.json", "--theta=0"],
    # finite parameters whose phase arguments overflow, or whose width squared
    # underflows, over the grid and the domain: spec errors too
    "error_p0_overflows": ["report", "--model", "p0_huge.json", "--theta=0.3"],
    "error_chirp_overflows": ["report", "--model", "chirp_huge.json", "--theta=0.3"],
    "error_ring_alpha_overflows": ["report", "--model", "ring_alpha_huge.json",
                                   "--theta=0.3"],
    "error_width_underflows": ["report", "--model", "width_tiny.json", "--theta=0.3"],
    # lifts whose Gram matrix overflows, and a width whose exponent overflows
    # in the far tails of the profile
    "error_p0_gram_overflows": ["report", "--model", "p0_large.json", "--theta=0.3"],
    "error_p0_gram_overflows_fisher": ["fisher", "--model", "p0_large.json", "--povm", "grid",
                                       "--theta=0.3"],
    "error_width_overflows": ["report", "--model", "width_small.json", "--theta=0.3"],
    # the schmidt construction on a family whose overlaps are not real
    "error_schmidt_nonreal": ["fisher", "--model", "two_well_512.json", "--povm", "schmidt",
                              "--theta=-0.5;0;0.5"],
    "error_usage": ["sample", "--model", "ps.json", "--povm", "grid", "--theta=0",
                    "--n", "0", "--seed", "1"],
    # --model is declared once, for every subcommand
    "error_usage_no_model": ["report", "--theta=0"],
}


def run(cli, argv):
    """``(exit code, stdout, stderr)`` of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs(src, names):
    """``{name: (exit code, stdout, stderr)}`` of the invocations ``names``
    with the ``qestgeo`` package in the directory ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from qestgeo import cli

    os.environ.pop("QESTGEO_GRID_N", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for fname, doc in FILES.items():
                with open(fname, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            return {name: run(cli, INVOCATIONS[name]) for name in names}
        finally:
            os.chdir(cwd)


def number_pairs(a, b, path, pairs):
    """Append to ``pairs`` the numbers of two parsed JSON documents, with
    their ``path`` (``.key`` and ``[index]`` steps from the root), pair by
    pair; False when the documents differ in anything else."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        pairs.append((float(a), float(b), path))
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(number_pairs(a[k], b[k], f"{path}.{k}", pairs)
                                          for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(number_pairs(x, y, f"{path}[{i}]", pairs)
                                        for i, (x, y) in enumerate(zip(a, b)))
    return a == b


def value_change(out_a, out_b):
    """``(max_abs, max_rel, count, path)`` over the numbers of two stdout
    JSON documents, ``path`` naming the number of the largest relative
    difference; None when the documents differ in anything but their
    numbers.  A relative difference is taken of the larger magnitude; two
    NaNs or two equal infinities do not differ, a finite number and a
    non-finite one differ by infinity."""
    try:
        a, b = json.loads(out_a), json.loads(out_b)
    except ValueError:
        return None
    pairs = []
    if not number_pairs(a, b, "", pairs):
        return None
    max_abs, max_rel, where = 0.0, 0.0, "-"
    for x, y, path in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        rel = diff / max(abs(x), abs(y)) if math.isfinite(diff) else math.inf
        max_abs = max(max_abs, diff if math.isfinite(diff) else math.inf)
        if rel > max_rel:
            max_rel, where = rel, path
    return max_abs, max_rel, len(pairs), where


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the qestgeo package")
    parser.add_argument("--only", default=None,
                        help="comma-separated invocation names (default: all)")
    parser.add_argument("--values", default=None, metavar="OTHER",
                        help="print the largest number changes of each stdout that "
                             "differs from the package in OTHER")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = list(INVOCATIONS) if args.only is None else args.only.split(",")
    unknown = sorted(set(names) - set(INVOCATIONS))
    if unknown:
        parser.error(f"unknown invocations {unknown}; known: {sorted(INVOCATIONS)}")
    if args.values is not None:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--src", args.values,
             "--only", ",".join(names), "--dump"],
            check=True, stdout=subprocess.PIPE, text=True)
        theirs = json.loads(child.stdout)
        for name, (_, out, _) in outputs(args.src, names).items():
            if out == theirs[name][1]:
                continue
            change = value_change(theirs[name][1], out)
            print(name, "structure" if change is None
                  else "{:.3g} {:.3g} {} {}".format(*change), flush=True)
        return 0
    results = outputs(args.src, names)
    if args.dump:
        json.dump(results, sys.stdout)
        return 0
    for name, (code, out, err) in results.items():
        print(name, code, sha256(out), sha256(err), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
