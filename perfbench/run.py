#!/usr/bin/env python3
"""Builds and runs one workload of the ISOBAR benchmark.

    python3 perfbench/run.py --workload checkpoint|insitu|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) optimised into .bench_build/ (or $CARGO_TARGET_DIR), runs the
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. setup_s, the time from the
workload process's start to the end of its set-up, is added here from the
monotonic clock the process shares with this script.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Each hook changes which code the library runs.
HOOK_VARIABLES = ("ISOBAR_FORCE_CODEC", "ISOBAR_TEST_THREADS", "ISOBAR_SIMD")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for step in (configure,
                 ["cmake", "--build", build_dir, "--target",
                  "isobar_perfbench", "--parallel", "4"]):
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "isobar_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["checkpoint", "insitu", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output to test the checks")
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in HOOK_VARIABLES}
    build_dir = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir, env)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", build_dir]
    if args.inject_fault:
        command.append("--inject-fault")
    started = time.monotonic()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("workload printed no result (exit %d)" % done.returncode)
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": info["setup_end_monotonic_s"] - started, "unit": "s"}
    print(json.dumps(info))
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
