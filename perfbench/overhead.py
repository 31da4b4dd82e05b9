"""Tracing overhead: traced minus untraced value of each end-to-end metric.

    python3 perfbench/overhead.py --workload basis_scan --seed 1 --seconds 20

Runs ``run.py`` once with ``--trace 0`` and once with ``--trace 1`` on the
same inputs and prints, per end-to-end metric, both values and their
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if trace:
        return next(doc["traced_end_to_end"] for doc in lines if "traced_end_to_end" in doc)
    return lines[-1]["metrics"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    plain = run(args.workload, args.seed, args.seconds, 0)
    traced = run(args.workload, args.seed, args.seconds, 1)
    print(f"{'metric':<12} {'untraced':>12} {'traced':>12} {'overhead':>12} unit")
    for name, metric in plain.items():
        a, b = metric["value"], traced[name]["value"]
        print(f"{name:<12} {a:>12.6g} {b:>12.6g} {b - a:>+12.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
