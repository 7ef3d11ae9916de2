#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints each metric's spread.

    python3 perfbench/steady.py                       # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads peak_pea,compile
    python3 perfbench/steady.py --save a.json         # keep the raw results
    python3 perfbench/steady.py --compare a.json b.json

Each run uses another seed (--first-seed, --first-seed + 1, ...) and the
run length of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(quartile distance over median) and the metric's bound, marking spreads
above a third of the bound. --compare reads two saved sets and prints,
per workload and metric, how far the second median is from the first,
as a share of the first, next to the bound (positive = worse), and
whether the failed share of the ops agrees. Exits nonzero if a run
fails, a spread (setup_s aside) exceeds its bound, or a compared median
is worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    command = ["python3", os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(command),
                                               proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def better_sign(metric):
    return 1 if metric["better"] == "lower" else -1


def report(bench, results):
    bad = False
    metrics = bench["end_to_end"]
    for workload, runs in results.items():
        failed = {r["failed"] / r["attempted"] for r in runs}
        print("%s: %d runs, attempted %s, failed share %s" % (
            workload, len(runs), sorted(r["attempted"] for r in runs),
            sorted(failed)))
        bad |= any(not r["correct"] for r in runs)
        print("  %-20s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            over = s > m["bound"] and m["name"] != "setup_s"
            bad |= over
            flag = "OVER" if over else ("high" if s > m["bound"] / 3 else "")
            print("  %-20s %14.6g %14.6g %14.6g %7.2f%% %5.0f%% %s" % (
                m["name"], med, q1, q3, 100 * s, 100 * m["bound"], flag))
    return bad


def compare(bench, first, second):
    bad = False
    for workload in first:
        if workload not in second:
            continue
        a_runs, b_runs = first[workload], second[workload]
        share = lambda runs: sorted({r["failed"] / r["attempted"] for r in runs})
        same_failed = share(a_runs) == share(b_runs)
        bad |= not same_failed
        print("%s: failed share %s vs %s%s" % (
            workload, share(a_runs), share(b_runs),
            "" if same_failed else "  DIFFERENT"))
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in a_runs)
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in b_runs)
            worse = better_sign(m) * (b - a) / a if a else 0.0
            over = worse > m["bound"]
            bad |= over
            print("  %-20s %14.6g %14.6g %+8.2f%% bound %3.0f%% %s" % (
                m["name"], a, b, 100 * worse, 100 * m["bound"],
                "WORSE" if over else ""))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw results to this file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(1 if compare(bench, *sets) else 0)

    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    results = {}
    for workload in names:
        results[workload] = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results[workload].append(run_once(bench, workload, seed, 0))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    sys.exit(1 if report(bench, results) else 0)


if __name__ == "__main__":
    main()
