#!/usr/bin/env python3
"""Builds the bgpsim benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 bgpbench/run.py --workload storm_fifo --seed 1 --seconds 20 --trace 0

Configures and builds bgpbench/CMakeLists.txt (the simulator libraries plus
bgpbench.cpp, Release) into .bench_build/, then runs the driver. Build
output goes to stderr, so the driver's JSON result stays the last line of
stdout. Exits 2 without a result when the simulator sources or the build are
missing; otherwise passes the driver's exit code through.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("storm_fifo", "schemes_grid", "warm_n400", "par_n600_k4")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to bgpbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "bgpbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(BUILD, "bgpbench")
    if not os.path.isfile(exe):
        fail("build produced no bgpbench binary")
    return exe


def commit():
    """HEAD of the enclosing git checkout, read from .git without running git
    (so nothing outside the checkout is consulted); "unknown" otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    exe = build()
    env = dict(os.environ, BGPBENCH_COMMIT=commit())
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
