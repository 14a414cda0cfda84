#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload (or those named) once per seed, in two sets, and
prints the median and quartiles of each end-to-end metric. It fails
when a metric's spread, (Q3 - Q1) / median, exceeds its bound in any
set, when a later set's median differs from the first's, in either
direction, by more than the bound, or when a seed's attempted and
failed reads differ between sets. Quartiles are Python's
statistics.quantiles(values, n=4).

    python3 rosbench/steady.py [--runs 10] [--sets 2] [--seed0 1]
        [--workloads corridor,replay]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, time.time() - t


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first, second, better):
    """Share of the first median by which the second is worse
    (negative when it is better)."""
    delta = (second - first) if better == "lower" else (first - second)
    return delta / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = spec["end_to_end"]

    ok = True
    for workload in names:
        sets, counts = [], {}
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.seed0 + i
                result, took = run_once(spec, workload, seed)
                count = (result["attempted"], result["failed"])
                if counts.setdefault(seed, count) != count:
                    print(f"# {workload} seed {seed}: attempted/failed {count} "
                          f"differ from set 1's {counts[seed]} COUNTS")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"# {workload} set {s + 1} seed {seed}: {took:.1f} s, "
                      f"attempted {result['attempted']} failed {result['failed']}",
                      flush=True)
            sets.append(values)
        print(f"\n{workload}: median [Q1, Q3] spread (bound) per set")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for values in sets:
                med, q1, q3, spread = summary(values[name])
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD", False
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}{flag}")
            drift = ""
            for k, med in enumerate(medians[1:], start=2):
                w = worse_by(medians[0], med, m["better"])
                drift += f" set {k} worse by {w:+.3f}"
                if abs(w) > bound:
                    drift += " DRIFT"
                    ok = False
            print(f"  {name:<16} ({bound}) " + " | ".join(cells) + drift)
        print(flush=True)

    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
