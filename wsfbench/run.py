#!/usr/bin/env python3
"""Builds the wsfbench program from source and runs one benchmark run.

Usage, from the root of the repository:

    python3 wsfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: dag-replay, stream-closed, stream-open, sim-grid. The build goes
to $CARGO_TARGET_DIR when it is set, else to .bench_build (a CMake build of
wsfbench/CMakeLists.txt, Release). Build output goes to standard error; the
last line of standard output is the run's JSON result. Without the
repository's sources next to wsfbench/ the build fails and the script exits
with a nonzero code without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dag-replay", "stream-closed", "stream-open", "sim-grid")


def build(build_dir):
    """Configures (once) and builds the wsfbench target; returns its path."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "--target", "wsfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, timeout=800)
    return os.path.join(build_dir, "wsfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"wsfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("wsfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
