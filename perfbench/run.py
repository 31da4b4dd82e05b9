"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory, never from an installed copy.  The workload runs in a fresh
worker process (closed loop, one client) after several set-up-only
processes, so that ``setup_s`` is a median and ``peak_rss_mb`` belongs
to the workload alone.  BLAS threads are capped at the number of usable
cores.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The lines
before it give the environment, each metric by name and unit, and the
latency of each operation kind.  Inputs, raw results and kept spans stay
under ``.perfbench_run/`` in the checkout.

Exit codes: 0 after a complete run (also when some operation failed or
mismatched its reference, which ``correct`` and ``failed`` report), 1
when the worker or a reference check crashed, 2 when the checkout holds
no ``src/qestgeo``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("QESTGEO_GRID_N", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(extra, out):
    """Run worker.py to completion; returns its result document."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *extra, "--out", out]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result, setup_times):
    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    attempted = len(lat_ms)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": attempted / sum(result["latencies_s"]), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
        "ok_share": {"value": (attempted - result["failed"]) / attempted, "unit": "1"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_kind(result):
    by_kind = {}
    for kind, seconds in zip(result["kinds"], result["latencies_s"]):
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    return {k: {"ops": len(v), "median_ms": round(statistics.median(v), 3)}
            for k, v in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qestgeo", "__init__.py")):
        print(f"perfbench: no src/qestgeo under {ROOT}", file=sys.stderr)
        return 2
    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_times = []
        for k in range(SETUP_PROBES):
            probe = run_worker([*common, "--setup-only", "--workdir",
                                os.path.join(rundir, f"setup{k}")],
                               os.path.join(rundir, f"setup{k}.json"))
            setup_times.append(probe["setup_s"])
        result = run_worker([*common, "--seconds", str(args.seconds), "--trace",
                             str(args.trace), "--workdir", os.path.join(rundir, "inputs")],
                            os.path.join(rundir, "result.json"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_times.append(result["setup_s"])

    e2e = end_to_end(result, setup_times)
    metrics = result["per_layer"] if args.trace else e2e
    attempted = len(result["latencies_s"])
    summary = {
        "correct": result["n_problems"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"kinds": per_kind(result)}))
    if args.trace:
        print(json.dumps({"traced_end_to_end": e2e}))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for problem in result["problems"]:
        print(f"perfbench: wrong result: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
