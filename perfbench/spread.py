#!/usr/bin/env python3
"""Repeat the benchmark and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py [--runs 10] [--workloads steady,flood] [--trace 0|1]
                                [--seed0 1] [--checkout DIR [--checkout DIR]]

Run it from the root of a checkout. Run i uses seed `seed0 + i`. The spread
is (q3 - q1) / median, with quartiles from `statistics.quantiles(n=4)`; it is
flagged when it exceeds a third of the metric's bound in BENCHMARK.json.

With two `--checkout` directories (say a parent commit and a change), each
run alternates which checkout goes first, and the report adds the change's
median relative to the parent's, the share of pairs the change won, and
REGRESSION where its median is worse than the parent's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, command, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} is not correct:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--checkout", action="append", default=[])
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    checkouts = a.checkout or ["."]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["per_layer" if a.trace else "end_to_end"]}
    # samples[checkout][workload][metric] -> list of values, in run order
    samples = {c: {w: {m: [] for m in metrics} for w in workloads} for c in checkouts}
    for i in range(a.runs):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for w in workloads:
            for c in order:
                got = run_once(c, spec["command"], w, a.seed0 + i, seconds, a.trace)
                for m in metrics:
                    samples[c][w][m].append(got[m])
        print(f"run {i + 1}/{a.runs} done", file=sys.stderr)
    base = checkouts[0]
    for w in workloads:
        print(f"\n{w}")
        for m, spec_m in metrics.items():
            bound = spec_m.get("bound")
            for c in checkouts:
                med, q1, q3, spread = summary(samples[c][w][m])
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "  spread > bound/3" if spread <= bound else "  SPREAD > BOUND"
                line = f"  {m:28} {c:>12}  median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{flag}"
                if c != base:
                    ref = statistics.median(samples[base][w][m])
                    higher = spec_m["better"] == "higher"
                    worse = (ref - med) / ref if higher else (med - ref) / ref
                    pairs = list(zip(samples[base][w][m], samples[c][w][m]))
                    wins = sum((b > p) if higher else (b < p) for p, b in pairs)
                    line += f"  vs {base}: {-worse:+.3f}, won {wins}/{len(pairs)}"
                    if bound is not None and worse > bound:
                        line += "  REGRESSION"
                print(line)


if __name__ == "__main__":
    main()
