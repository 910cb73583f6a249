#!/usr/bin/env python3
"""Builds and runs the PIL-Fill benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one process each
    python3 perfbench/run.py --smoke              # tiny inputs, every workload, both modes

Run from the root of a checkout. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default `.bench_build`). Each workload
runs in its own process; its metric table is printed, followed by one JSON
result line. With `--workload all` a combined result line comes last. The
exit code is non-zero when a build or run fails or an output is incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["paper_grid", "signoff_large", "serve_eco"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for a run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    target = env["CARGO_TARGET_DIR"]
    return os.path.join(ROOT, target, "release", "perfbench")


def run_one(binary, workload, args, tiny):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return done.returncode or 1, None
    want = expected_metrics(args.trace == 1)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            print(f"run.py: {workload} metrics differ from BENCHMARK.json: "
                  f"got {sorted(got.items())}, want {sorted(want.items())}",
                  file=sys.stderr)
            return 3, None
    if tiny and not args.trace:
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            print(f"run.py: {workload} end-to-end metrics not above 0: {zero}",
                  file=sys.stderr)
            return 3, None
    for line in lines:
        print(line)
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload, traced and not")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.smoke:
        args.seconds = min(args.seconds, 1)
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    elif args.workload == "all":
        runs = [(w, args.trace) for w in WORKLOADS]
    else:
        runs = [(args.workload, args.trace)]

    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        args.trace = trace
        rc, result = run_one(binary, workload, args, tiny=args.smoke)
        if rc != 0 or result is None or not result["correct"]:
            code = rc or 1
            combined["correct"] = False
        if result is not None:
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    if len(runs) > 1:
        print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
