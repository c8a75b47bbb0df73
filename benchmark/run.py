#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 benchmark/run.py [--seed N] ...  # every workload, one process each

Run it from anywhere; it builds into benchmark/.build/ (CMake, Release) and
keeps its scratch stores and reports there too. Build output goes to
standard error; the last line of standard output is the workload's JSON
result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "benchmark" / ".build"
BINARY = BUILD / "bench_suite"
WORKLOADS = ["figures_cold", "figures_warm", "large512_exact",
             "large512_bloom8", "city8192_stream"]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: simulator sources not found at %s" % (ROOT / "src"))
    tmp = BUILD / "tmp"  # compiler scratch stays inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))


def suite_args(args, workload):
    argv = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--out-dir", str(BUILD / "results"),
            "--work-dir", str(BUILD / "work")]
    if args.trace:
        argv.append("--trace")
    return argv


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    sys.stdout.flush()
    if args.workload != "all":
        argv = suite_args(args, args.workload)
        os.execv(argv[0], argv)
    failed = [w for w in WORKLOADS
              if subprocess.run(suite_args(args, w)).returncode != 0]
    if failed:
        sys.exit("run.py: failed: %s" % ", ".join(failed))


if __name__ == "__main__":
    main()
