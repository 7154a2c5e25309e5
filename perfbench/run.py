#!/usr/bin/env python3
"""Builds and runs the repository benchmark (ps2bench).

    python3 perfbench/run.py --workload steady-match --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --selftest                     # harness tests

The benchmark compiles the PS2Stream library from ../src into
.perfbench/build (optimized) and runs one workload per process. Its last
line of output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits non-zero when the build fails, when deliveries differ
from ReferenceMatcher, or when a run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(OUT, "build")
WORKLOADS = ["steady-match", "durable-churn", "sharded-match"]
RUN_TIMEOUT_S = 170


def build():
    if shutil.which("cmake") is None:
        print("cmake not found", file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        # Build output goes to stderr: stdout carries the results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    # Write back the build's output now, not under the measured WAL.
    os.sync()
    return True


def commit():
    """The git commit of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        print("build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run([os.path.join(BUILD, "ps2bench_selftest")])

    rev = commit()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in workloads:
        sys.stdout.flush()
        code = run([os.path.join(BUILD, "ps2bench"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--work-dir", os.path.join(OUT, "work"),
                    "--commit", rev])
        if code != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
