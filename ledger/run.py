#!/usr/bin/env python3
"""Builds the scheduling benchmark from source and runs one workload.

Usage, from the repository root:

    python3 ledger/run.py --workload net_sched --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Build output goes to stderr; the benchmark prints
detail lines starting with '#' and, as its last stdout line, one JSON
object with "correct", "attempted", "failed" and "metrics". The exit code
is non-zero when the build fails or an output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("net_sched", "serve_mix")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        sys.exit("ledger: the scheduler sources (src/) are missing")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "ledger")
    jobs = str(min(4, os.cpu_count() or 1))

    def step(cmd):
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("ledger: build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", jobs, "--target", "ledger", "sunstone_cli"])

    work = os.path.join(build_root, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build, "ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", os.path.join(build, "sunstone"),
           "--workdir", work]
    try:
        rc = subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.exit("ledger: the benchmark did not finish in 175 s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
