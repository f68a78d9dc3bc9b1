#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release, into .bench_build/ at
the repository root) if needed, runs one workload and prints the result
JSON as the last line of standard output. The traced run also writes its
spans as Chrome trace_event JSON to .bench_build/trace_<workload>.json.

--smoke runs every workload at a tiny size, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit and a
finite value and that every operation passed its output check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (" + " ".join(step[:2]) + ")")


def run(workload, seed, seconds, trace, tiny=False):
    """Runs the binary; returns (parsed result, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build", "trace_%s.json" % workload)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result" % workload)
    return result, proc.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            result, _ = run(workload, 1, 1, trace, tiny=True)
            label = "%s trace=%d" % (workload, trace)
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d operations failed" %
                                (label, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, not %r" %
                                    (label, m["name"], got.get("unit"), m["unit"]))
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append("%s: %s is not finite" % (label, m["name"]))
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                problems.append("%s: undeclared metrics %s" % (label, sorted(extra)))
            print("smoke: %s ok (%d metrics)" % (label, len(metrics)))
    if problems:
        for p in problems:
            print("smoke: " + p, file=sys.stderr)
        sys.exit(1)
    print("smoke: all workloads emit every declared metric")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        parser.error("--workload is required")
    _, stdout = run(args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
