#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which builds the ron library from the checkout's sources) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs one
workload in its own process. The last line of stdout is the result
object; build output goes to stderr. `--workload all` runs every workload,
one process each, and ends with one line that merges their results.

Exit codes: 0 when every answer was right, 1 when an answer was wrong, 2
when the run could not finish (build failure, time-out, no result).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["sparse-locate", "dense-churn", "estimate-labels"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run is about 40 s of fixed set-up work plus --seconds of serving; the
# time-out scales with --seconds so that a longer measurement still fits.
TIMEOUT_FIXED_S = 120
TIMEOUT_PER_SECOND = 5


class CannotFinish(Exception):
    """The run could not produce a result (exit code 2)."""


def build(build_dir):
    """Configures and builds perfbench; returns the binary path."""
    tree = os.path.join(build_dir, "perfbench")
    for cmd in (
        ["cmake", "-S", BENCH_DIR, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "-j", "4", "--target", "perfbench"],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise CannotFinish("build failed: " + " ".join(cmd))
    return os.path.join(tree, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_one(binary, workload, args, work_dir, commit):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit]
    timeout = TIMEOUT_FIXED_S + TIMEOUT_PER_SECOND * args.seconds
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CannotFinish(f"{workload} did not finish in {timeout:.0f} s")


def run(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    commit = source_id()

    if args.workload != "all":
        done = run_one(binary, args.workload, args, work_dir, commit)
        sys.stdout.write(done.stdout)
        return done.returncode if done.returncode in (0, 1) else 2

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        done = run_one(binary, workload, args, work_dir, commit)
        sys.stdout.write(done.stdout)
        code = code or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except CannotFinish as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
