#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds libpvar and the benchmark binary
(perfbench/CMakeLists.txt) into the build directory: $CARGO_TARGET_DIR
if set, else .bench_build. Later runs only rebuild what changed. The
binary's last stdout line is the result object; build and progress
output goes to stderr. Arguments after the four above (--tiny, --only,
--inject) are passed to the binary unchanged; perfbench/selftest.py
uses them.

Exit status: the binary's (0 ok, 1 a correctness gate failed), or 2 when
the build fails or the run exceeds its time limit, without a result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configure (once) and build the benchmark; return the binary path."""
    tree = os.path.join(out, "perfbench")
    os.makedirs(tree, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    # One build at a time per build directory.
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(tree, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", tree, "-G", "Unix Makefiles",
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", tree, "--target", "pvar_perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(tree, "pvar_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workdir = os.path.join(out, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode in (0, 1) and lines:
        print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
