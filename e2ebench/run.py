#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of translated CEP plans.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the engine libraries and the
benchmark program (Release) under .bench_build/e2ebench; later calls only
re-run the incremental build. The program's report goes to stdout and its
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("seq3_keyed_p4", "seq1_filter", "seq3_keyed_paced")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("e2ebench: e2e_bench exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print("e2ebench: e2e_bench printed no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
