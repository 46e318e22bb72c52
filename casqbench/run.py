#!/usr/bin/env python3
"""Build the casq benchmark from source and run one workload.

Usage (from the repository root):

    python3 casqbench/run.py --workload compile-dd --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/casqbench (default
.bench_build/casqbench under the repository root) and is reused by
later runs.  With --trace 1 the spans are also written as Chrome
trace-event JSON to .bench_build/traces/<workload>-seed<seed>.json.
The last line of standard output is the benchmark's JSON result; see
casqbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-dd", "estimate-dense", "service-clifford")
RUN_MARGIN_S = 100


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    """Configure and build incrementally; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.call(step, stdout=sys.stderr) != 0:
            print("casqbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one bit of the workload's reference "
                             "to show that a broken check fails the run")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    base = build_dir()
    out = os.path.join(base, "casqbench")
    if not build(out):
        return 3

    command = [os.path.join(out, "casq_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    # Set-ups, checks and probes take a fixed time on top of the
    # measured loop (twice --seconds in traced mode, at most).
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(command, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print("casqbench: run exceeded %.0f s" % timeout_s,
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
