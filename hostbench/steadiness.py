#!/usr/bin/env python3
"""Steadiness check for the host-time benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, one run at a time, and prints for every end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound, and every
run's value. It also prints the share of failed operations per run,
which must be identical across runs.

Seeds 1-10, every workload in BENCHMARK.json, run_seconds from it.
Run from the repository root:

    python3 hostbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in SEEDS:
            result, elapsed = run_once(bench["command"], workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correct is false")
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {elapsed:.1f} s, attempted "
                  f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)
        print(f"\n{workload} ({len(SEEDS)} seeds from {SEEDS[0]}, {seconds} s runs)")
        print(f"  failed share per run: {sorted(shares)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            median, q1, q3, spread = summarise(vals)
            flag = "" if spread <= bounds[name] / 3 else "  <- above bound/3"
            print(f"  {name:28} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bounds[name]:6.2f}{flag}")
            print(f"  {'':28} runs: {' '.join(f'{v:.4g}' for v in vals)}")


if __name__ == "__main__":
    main()
