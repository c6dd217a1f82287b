#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator sources plus hard_perfbench, Release) into
.perfbench_build/; later runs only rebuild what changed. hard_perfbench's
output is passed through; its last line is the result object. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build")
BINARY = os.path.join(BUILD, "cmake", "hard_perfbench")


def build():
    """Configure (once) and build hard_perfbench; output goes to stderr."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", cmake_dir, "--target", "hard_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--expected-out",
                    help="write the observed scores in expected.json's "
                         "layout to this file")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work"),
           "--expected", os.path.join(HERE, "expected.json")]
    if args.expected_out:
        cmd += ["--expected-out", args.expected_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("perfbench: hard_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: hard_perfbench printed no result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
