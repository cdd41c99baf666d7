#!/usr/bin/env python3
"""Builds the pcmax benchmark from source and runs one workload.

Run from the repository root:

    python3 pcmaxbench/run.py --workload paper-eps03 --seed 1 --seconds 30 --trace 0

The first run configures and builds an optimised (Release) tree in
`.bench_build` (or $CARGO_TARGET_DIR when set); later runs only re-check it.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. `--test` builds and runs the benchmark's own tests instead
(the check self-test and a smoke run of every workload).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "pcmaxbench", "-j", "4"]
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    for cmd in ([compile_] if configured else [configure, compile_]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    if sys.argv[1:] == ["--test"]:
        done = subprocess.run(["ctest", "--test-dir", build_dir, "--output-on-failure"],
                              stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        sys.exit(done.returncode)
    binary = os.path.join(build_dir, "pcmaxbench")
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
