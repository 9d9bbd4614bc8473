#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs every workload once with --inject-fault, which corrupts one output
(a decompressed variable, a range read, a compress reply) before the
benchmark checks it, and once more as a traced checkpoint run, where the
fault corrupts one re-encoded chunk record. Each run must count exactly
that operation as failed, report correct: false, and exit non-zero.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CASES = [("checkpoint", 0), ("insitu", 0), ("serve", 0), ("checkpoint", 1)]


def main():
    bad = 0
    for workload, trace in CASES:
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--inject-fault"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = (done.returncode != 0 and result.get("failed") == 1
              and result.get("correct") is False)
        print("%-10s trace=%d exit=%d failed=%s correct=%s: %s" % (
            workload, trace, done.returncode, result.get("failed"),
            result.get("correct"), "caught" if ok else "NOT CAUGHT"))
        if not ok:
            sys.stderr.write(done.stderr[-2000:])
            bad += 1
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
