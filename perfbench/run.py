#!/usr/bin/env python3
"""Build and run one workload of the fastsc end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which pulls in the
repository's library through its own CMakeLists.txt) under
.bench_build/perfbench; later calls only let the build tool confirm the
binary is current.  Build output goes to stderr, so the last line on stdout
is the benchmark's JSON result.  A traced run (--trace 1) writes its spans
as Chrome-trace JSON to .bench_build/perfbench/trace-<workload>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build the perfbench target; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
        args += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]
    return subprocess.run([os.path.join(BUILD, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
