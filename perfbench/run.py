#!/usr/bin/env python3
"""Builds the agreement-service benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The Rust package in this directory is built
in release mode into $CARGO_TARGET_DIR (default `.bench_build`). The run's
conditions are printed first, then the benchmark's own lines; the last line
of standard output is the result object. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def revision():
    """The git revision, or a hash of the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.lock"):
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(start) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    conditions = {
        "revision": revision(),
        "rustc": rustc_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("conditions " + json.dumps(conditions), flush=True)

    command = [os.path.join(target, "release", "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out",
                    os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.jsonl")]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"perfbench: no result (exit code {run.returncode})", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {' '.join(e.cmd)}", file=sys.stderr)
        sys.exit(1)
