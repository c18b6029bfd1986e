#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload ooc_walk --seed 1 --seconds 10 --trace 0

Every argument is passed through to the `e2ebench` executable (see
e2ebench/README.md); its last line of standard output is the JSON result.
The build lives in $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench
under the repository root) and is reused by later runs; build output goes
to standard error. Exits non-zero, printing no result, when the build
fails or a run exceeds its time limit.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out):
    """Configures (once) and builds the e2ebench target; False on failure."""
    os.makedirs(out, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "e2ebench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "e2ebench"), "--work_dir",
           os.path.join(out, "work")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
