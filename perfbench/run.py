#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload peak_pea --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. The harness is configured from
perfbench/CMakeLists.txt, which compiles the repository's libraries
(src/) into .bench_build/perfbench; later runs rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the harness's JSON result. With --trace 1 the spans
of the run are written to .bench_build/perfbench/traces/.

The harness runs with every JVM_* variable removed from its environment,
so the workloads are the same whatever knobs the caller's shell sets.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The first three are the workloads of BENCHMARK.json; cold_start and
# pea_speedup are reference measurements (README.md).
WORKLOADS = ("peak_pea", "peak_noea", "compile", "cold_start", "pea_speedup")
# The harness ends by itself a few seconds after --seconds; this limit
# only stops a hung run.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("JVM_")}
    sys.stdout.flush()
    with subprocess.Popen(command, env=env) as proc:
        try:
            code = proc.wait(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("harness did not finish in %d s" % HARNESS_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
