#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Each call configures and builds the
subseq library and the perfbench binary with CMake (Release) under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; only the first call
compiles everything. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Per-run result files (and, with
--trace 1, the recorded spans) are written to <build dir>/results.
--selftest builds and runs the tests of the benchmark's own arithmetic.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    """Configures (once) and builds `target`; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no subseq sources next to %s" % HERE, file=sys.stderr)
        return False
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    bdir = build_dir()
    if argv == ["--selftest"]:
        if not build(bdir, "perfbench_test"):
            return 2
        return subprocess.run([os.path.join(bdir, "perfbench_test")]).returncode
    if not build(bdir, "perfbench"):
        return 2
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench")] + argv + [
        "--commit", commit(), "--out-dir", results]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
