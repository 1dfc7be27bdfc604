#!/usr/bin/env python3
"""Steadiness self-check: runs each workload repeatedly, one seed per run,
and reports every end-to-end metric's median and quartile spread.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--seconds S] [--first-seed N]

The spread is (q3 - q1) / median over a set's runs, with quartiles as
statistics.quantiles(values, n=4) gives them. A metric passes when its
spread stays within its bound from BENCHMARK.json and, with --sets 2,
when the two sets' medians differ by no more than the bound, in either
direction. It is marked "loose" when it passes with a spread above a
third of its bound. The report is markdown on stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d reported incorrect output" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    metrics = bench["end_to_end"]
    all_ok = True
    print("# Steadiness: %d run(s) per set, %d set(s), %d s per run\n"
          % (opts.runs, opts.sets, opts.seconds))
    for workload in opts.workloads.split(","):
        sets = []
        started = time.time()
        for s in range(opts.sets):
            first = opts.first_seed + s * opts.runs
            runs = [run_once(workload, seed, opts.seconds)
                    for seed in range(first, first + opts.runs)]
            sets.append(runs)
        print("## %s (%.0f s)\n" % (workload, time.time() - started))
        header = "| metric | bound | " + " | ".join(
            "set %d median | q1 | q3 | spread" % (i + 1) for i in range(opts.sets))
        if opts.sets == 2:
            header += " | 2nd worse by"
        print(header + " | ok |")
        print("|" + "---|" * (header.count("|") + 1))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, medians, ok, loose = [], [], True, False
            for runs in sets:
                med, q1, q3, spr = spread([r[name] for r in runs])
                medians.append(med)
                cells.append("%.6g | %.6g | %.6g | %.4f" % (med, q1, q3, spr))
                if spr > bound:
                    ok = False
                loose = loose or spr > bound / 3
            row = "| %s | %.2f | %s" % (name, bound, " | ".join(cells))
            if opts.sets == 2:
                drift = worse_by(medians[0], medians[1], m["better"])
                row += " | %.4f" % drift
                if abs(drift) > bound:
                    ok = False
            all_ok = all_ok and ok
            print(row + " | %s |" % ("NO" if not ok else "loose" if loose else "yes"))
        print()
    print("overall: %s" % ("steady" if all_ok else "NOT steady"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
