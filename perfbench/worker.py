"""One workload run in a fresh process: set-up, timed closed loop, checks.

Started by ``run.py``; writes its raw results as JSON to ``--out``.
With ``--setup-only`` it times the set-up and exits, so the parent can
take the median set-up time over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_OPS = 100  # so that at least ten operations lie beyond the p90


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_package():
    sys.path.insert(0, SRC)
    import qestgeo

    origin = os.path.dirname(os.path.abspath(qestgeo.__file__))
    if origin != os.path.join(SRC, "qestgeo"):
        raise SystemExit(f"qestgeo was imported from {origin}, not from {SRC}")


def environment(seed):
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def run_op(variant):
    """Time one operation; returns (seconds, outcome, exception)."""
    t0 = time.perf_counter()
    try:
        outcome = variant.run()
    except Exception as exc:  # noqa: BLE001 - the benchmark loop must keep running
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, outcome, None


def classify(variant, outcome, exc):
    """Returns (failed, problem) where problem describes a wrong result."""
    from qestgeo.errors import QestgeoError

    from workloads import CliResult, Mismatch

    if exc is not None:
        if isinstance(exc, QestgeoError):
            return True, None
        return True, "".join(traceback.format_exception(exc))
    if isinstance(outcome, CliResult) and outcome.code != 0:
        documented = outcome.code in (2, 3) and outcome.stderr.startswith("qestgeo:")
        return True, None if documented else f"exit {outcome.code}: {outcome.stderr}"
    try:
        variant.check(outcome)
    except Mismatch as mismatch:
        return True, str(mismatch)
    return False, None


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import numpy as np

    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.workdir)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.setup_only:
        write(args.out, result)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # warm-up: one operation of each kind, not measured
    for kind in workload.kinds.values():
        run_op(kind.variants[0])
    if tracer is not None:
        tracer.reset()

    latencies, kinds, failures, problems = [], [], 0, []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(latencies) < MIN_OPS:
        for name in workload.cycle:
            variant = workload.kinds[name].next_variant()
            if tracer is not None:
                with tracer.op(name, variant.points):
                    seconds, outcome, exc = run_op(variant)
            else:
                seconds, outcome, exc = run_op(variant)
            failed, problem = classify(variant, outcome, exc)
            latencies.append(seconds)
            kinds.append(name)
            failures += failed
            if problem is not None:
                problems.append(f"{name}: {problem}")
    result.update({
        "elapsed_s": time.perf_counter() - started,
        "latencies_s": latencies,
        "kinds": kinds,
        "failed": failures,
        "problems": problems[:20],
        "n_problems": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
        "notes": workload.notes,
    })
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        trace_path = os.path.splitext(args.out)[0] + ".spans.json"
        tracer.write(trace_path)
        result["spans_file"] = trace_path
    write(args.out, result)
    return 0


def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
