#!/usr/bin/env python3
"""Builds and runs the end-to-end qmap benchmark from a checkout's root.

    python3 e2ebench/run.py --workload hot_cached --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark binary (and the library
from ../src) under .bench_build/e2ebench, or under $CARGO_TARGET_DIR when
that is set; later runs rebuild incrementally. All arguments are passed to
the binary, whose last line of standard output is the JSON result. Traces
and the store_spill store directory go under .bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "qmap_e2ebench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(out, "qmap_e2ebench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no qmap sources at %s/src; run from a checkout"
              % ROOT, file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + sys.argv[1:] + ["--out-dir",
                                     os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
