"""Smoke check of the benchmark itself (not part of the test suite).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed and names the metrics the
runs report, that one short run of every workload prints a well-formed
and correct result line, that a traced run reports every per-layer
metric, and that a copy of the benchmark without the package fails
without printing a result.  Takes about a minute; exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message):
    raise SystemExit(f"smoke: FAIL: {message}")


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric entry {m}")
        names.append(m["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m}")
    if not all(NAME.fullmatch(n) for n in names) or len(set(names)) != len(names):
        fail("names must be unique and well formed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must exist and carry the largest bound")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload, trace, expected):
    code, out, err = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace)])
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}: {err[-500:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(doc)}")
    if not doc["correct"] or doc["attempted"] < 1:
        fail(f"{workload}: correct={doc['correct']} attempted={doc['attempted']}: {err}")
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(expected)}")
    print(f"smoke: ok {workload} trace={trace} attempted={doc['attempted']} "
          f"failed={doc['failed']}")


def check_without_package():
    bare = os.path.join(ROOT, ".perfbench_run", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(["--workload", "grid_scan", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in out:
        fail("a checkout without src/qestgeo must fail without a result")
    print(f"smoke: ok without package (exit {code})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    sys.path.insert(0, HERE)
    import tracer

    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != tracer.metric_names():
        fail("BENCHMARK.json per_layer differs from tracer.metric_names()")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        check_result(w["name"], 0, end_to_end)
    check_result("basis_scan", 1, per_layer)
    check_without_package()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
