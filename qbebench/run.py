#!/usr/bin/env python3
"""Builds and runs the end-to-end discovery benchmark.

    python3 qbebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbebench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the driver (Release: -O3 -DNDEBUG) under .bench_build/qbebench;
later calls rebuild incrementally. Build output goes to standard error; the
driver's standard output is passed through, so the last line is the result
object. Any build or run failure exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbebench")
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    if argv == ["--self-test"]:
        if not build("bench_lib_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "bench_lib_test")],
                              stdout=sys.stderr).returncode
    if not build("qbe_e2ebench"):
        print("qbebench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([os.path.join(BUILD, "qbe_e2ebench")] + argv,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("qbebench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
