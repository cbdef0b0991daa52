#!/usr/bin/env python3
"""Builds and runs one workload of the relborg benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a relborg checkout. The first run configures and builds
the library and the benchmark (Release, -march=native) under
.bench_build/perfbench; later runs rebuild incrementally. Each run first runs
the benchmark's self-tests, then the workload in its own process. The
workload's human-readable lines are passed through, and the last line printed
is the result as one JSON object whose metrics are exactly the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Any failure -- a missing source tree, a build error, a failed self-test or
correctness gate, or a result that does not match BENCHMARK.json -- exits
non-zero without printing a result.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch-train", "stream-ingest", "stream-ingest-higher",
             "serve-fresh")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def run_logged(cmd, log, timeout):
    with open(log, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail(f"{' '.join(cmd[:3])} ... failed:\n{tail}")


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no relborg source tree at {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       os.path.join(BUILD, "configure.log"), BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench", "perfbench_selftest"],
                   os.path.join(BUILD, "build.log"), BUILD_TIMEOUT_S)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parses the workload's last line; fails unless it matches the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True:
        fail("outputs were not correct")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        fail("attempted/failed must be whole numbers, attempted >= 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics {sorted(set(got) ^ set(want))} differ from "
             "BENCHMARK.json")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want[name] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} is malformed: {m}")


def main():
    args = parse_args()
    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        fail(f"self-tests failed:\n{selftest.stdout}{selftest.stderr}")

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"workload {args.workload} exited with {proc.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
