#!/usr/bin/env python3
"""Run one workload of the edgestab benchmark (see README.md).

    python3 perfbench/run.py --workload soak_clean --seed 1 --seconds 10 --trace 0

From the root of a source checkout: builds the benchmark program from the
checkout's sources (a no-op once built), runs the benchmark's selftest,
fills the model cache outside any timed run, runs the program and prints
its result JSON as the last line of standard output. Build output and diagnostics
go to standard error. Exits non-zero, printing no result, when anything
fails; a run whose correctness gate fails prints its result and exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soak_clean", "soak_chaos", "fig3_batch")
PROGRAM_TIMEOUT_S = 175


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd, timeout, env=None):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no edgestab sources at {ROOT}")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
    # The default target is the benchmark's own; the repository's targets
    # are built only as its dependencies.
    check_call(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)],
               timeout=1500)
    check_call([os.path.join(build, "perfbench_selftest"), "--gtest_brief=1"],
               timeout=60)

    program = os.path.join(build, "perfbench")
    env = dict(os.environ,
               EDGESTAB_CACHE=os.path.join(build_root, "edgestab_cache"))
    # Pretraining the base model takes minutes; it happens here, once per
    # checkout, and the timed program refuses to run on a cold cache.
    check_call([program, "--warm"], timeout=1500, env=env)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_root, "perfbench_out"),
           "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program timed out after {PROGRAM_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark program printed no result (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark result is not JSON (exit {done.returncode})")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("benchmark result has the wrong keys")
    missing = [m for m in expected_metrics(args.trace)
               if m not in result["metrics"]]
    if missing:
        fail(f"benchmark result lacks metrics {missing}")
    result["metrics"] = {m: result["metrics"][m]
                         for m in expected_metrics(args.trace)}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
