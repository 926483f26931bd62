#!/usr/bin/env python3
"""End-to-end case-study benchmark for psg.

Builds perfbench (CMake, over the library sources of this checkout) and runs
one workload per process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error. The
build tree is $CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["psa2d-autophagy", "sobol-metabolic", "pe-metabolic-lsoda"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("%s: %s" % (cmd[0], err))
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))


def build():
    """Configures once and builds the perfbench target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no psg sources next to perfbench/ (need CMakeLists.txt, src/)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(build_dir, "perfbench"), out_dir


def run_workload(binary, out_dir, workload, seed, seconds, trace, echo):
    """Runs one workload in its own process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("%s printed no result line" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result" % workload)
    if echo:
        print("\n".join(lines[:-1]))
    return lines[:-1], result


def run_all(binary, out_dir, args):
    """Every workload in turn, then one table of the end-to-end metrics."""
    rows, correct, attempted, failed, merged = [], True, 0, 0, {}
    for workload in WORKLOADS:
        report, result = run_workload(binary, out_dir, workload, args.seed,
                                      args.seconds, args.trace, echo=True)
        print()
        verdict = next((l for l in report if l.startswith("output check")),
                       "output check: ?")
        rows.append((workload, result, verdict))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[workload + "." + name] = metric
    print("summary (seed %d, %s):" % (args.seed,
                                      "traced" if args.trace else
                                      "tracing off"))
    for workload, result, verdict in rows:
        print("  %s  failed_frac %.4g  %s" % (
            workload, result["failed"] / result["attempted"], verdict))
        for name, metric in result["metrics"].items():
            print("    %-28s %14.6g %s" % (name, metric["value"],
                                          metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary, out_dir = build()
    if args.workload == "all":
        run_all(binary, out_dir, args)
        return
    report, result = run_workload(binary, out_dir, args.workload, args.seed,
                                  args.seconds, args.trace, echo=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
