#!/usr/bin/env python3
"""Build and run the perfbench driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream_raw --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/CMakeLists.txt (the repository's src/
libraries plus perfbench_driver) into .bench_build/perfbench, then
runs the driver with the same arguments. Build output goes to stderr;
the driver's last stdout line is the JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; "
                         "run from a full checkout\n")
        return False
    # Configure once; the build step re-configures when a CMakeLists.txt
    # changes.
    steps = [["cmake", "--build", BUILD, "--target", "perfbench_driver",
              "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [DRIVER] + sys.argv[1:] + ["--out-dir", OUT]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
