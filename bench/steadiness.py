"""Steadiness report: run each workload several times, each with another
seed, and set each end-to-end metric's spread against its bound.

    python3 bench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--traced-runs 1]

Run from the repository root.  The spread of a metric is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4), as a share of their median.  A spread at or below a third of the
bound is reported as steady.  With --traced-runs, that many runs per
workload also run with --trace 1, and the tracing overhead they report
is listed.  Runs go one at a time, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout}")
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"run_seconds {spec['run_seconds']}, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}")
    print("| workload | metric | median | spread | bound | spread/bound | values |")
    print("|---|---|---|---|---|---|---|")
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(spec, workload, args.first_seed + i, 0) for i in range(args.runs)]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            if name != "setup_s" and s > bound / 3:
                steady = False
            print(f"| {workload} | {name} | {statistics.median(values):.6g} "
                  f"{runs[0]['metrics'][name]['unit']} | {s:.3f} | {bound} | {s / bound:.2f} | "
                  + " ".join(f"{v:.4g}" for v in values) + " |")
        sys.stdout.flush()
        for i in range(args.traced_runs):
            traced = run_once(spec, workload, args.first_seed + i, 1)
            overhead = traced["metrics"]["trace.overhead_share"]["value"]
            print(f"| {workload} | trace.overhead_share (seed {args.first_seed + i}) "
                  f"| {overhead:+.3f} | | | | |")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
