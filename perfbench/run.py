#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload graph-warm|serve-repeat \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every call configures and builds
perfbench/ (which builds the mcfuser library from ../src) into
.bench_build/perfbench; only the first call compiles everything.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--work-dir", os.path.relpath(RUN_DIR, os.getcwd())]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
