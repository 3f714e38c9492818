#!/usr/bin/env python3
"""Build fth_bench from this checkout's sources and run one workload.

    python3 fthbench/run.py --workload hess-n512 --seed 7 --seconds 15 --trace 0

Run from the root of a checkout. The first call configures and builds into
.bench_build/fthbench (a few minutes); later calls only check the build is
current. --trace 1 runs the traced pass (per-layer metrics) instead of the
untraced one (end-to-end metrics). The harness's output passes through, so
the last line of stdout is its result object. Build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "fthbench")
BUILD = os.path.join(ROOT, ".bench_build", "fthbench")
EXE = os.path.join(BUILD, "fth_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources (src/) in this checkout; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "fth_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write the full report JSON here")
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--traced", "--trace-file",
                os.path.join(BUILD, f"{args.workload}_trace.json")]
    if args.report:
        cmd += ["--report", args.report]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: fth_bench exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
