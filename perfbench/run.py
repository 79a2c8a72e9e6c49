#!/usr/bin/env python3
"""netrec benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
netrec library from the repository sources) into .bench_build/perfbench and
runs one workload:

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result.  Build output
goes to standard error.  The exit code is the benchmark's: 0 when every
output passed its check.

Other modes:

    python3 perfbench/run.py --self-test
        builds and runs the benchmark's own tests.
    python3 perfbench/run.py --steadiness
        runs every workload of BENCHMARK.json STEADINESS_RUNS times, seeds
        1, 2, ..., for its run_seconds, and prints each run's end-to-end
        metrics and, for each metric, the median, the quartiles and
        (q3 - q1) / median next to the metric's bound.  Exits 1 if a run
        fails or a spread exceeds its bound.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
# A run is bounded by its --seconds plus set-up and checks; this only stops
# a hung run so the command still ends.
RUN_TIMEOUT_S = 170
STEADINESS_RUNS = 10


def build():
    """Configures and builds the benchmark; raises on failure.  Configuring
    every time is cheap once cached and recovers from an interrupted one."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", "4"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--workdir", WORK]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("error: %s did not finish in %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        if e.stdout:
            sys.stderr.write(e.stdout if isinstance(e.stdout, str)
                             else e.stdout.decode(errors="replace"))
        return 3, None
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def steadiness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(1, STEADINESS_RUNS + 1):
            code, result = run_workload(workload, seed, seconds, 0,
                                        echo=False)
            if code != 0 or result is None:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                worst = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s: %d runs, seeds 1..%d, %d s each"
              % (workload, STEADINESS_RUNS, STEADINESS_RUNS, seconds))
        print("  per run: " + " ".join(bounds))
        for i in range(len(values["setup_s"])):
            print("    " + " ".join("%.5g" % values[name][i]
                                    for name in bounds))
        print("  %-22s %14s %14s %14s %9s %7s  %s"
              % ("metric", "q1", "median", "q3", "spread", "bound",
                 "verdict"))
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                worst = 1
            print("  %-22s %14.6g %14.6g %14.6g %9.4f %7.3f  %s"
                  % (name, q1, med, q3, spread, bound, verdict))
        sys.stdout.flush()
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("error: benchmark build failed: %s\n" % e)
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]
                              ).returncode
    if args.steadiness:
        return steadiness()
    if not args.workload or args.seconds <= 0:
        parser.error("--workload and a positive --seconds are required")
    code, _ = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
