#!/usr/bin/env python3
"""Compare fresh perf-bench JSON against the committed baseline.

Usage:
    bench_compare.py --baseline BENCH_baseline.json \
        --fresh pe.json ps.json px.json [--tolerance 0.25]

    bench_compare.py --collect pe.json ps.json px.json \
        --out BENCH_baseline.json

The perf binaries (perf_ensemble, perf_shard, perf_executor) emit one
JSON document each with a ``samples`` list; every sample carries a
throughput field (``instances_per_s`` or ``trajectories_per_s``) and a
set of identity keys (workload/config, threads, shards, cached).

CI machines are not the machine that produced the baseline, so raw
throughput is meaningless across runs.  Instead we normalize: the
median fresh/baseline ratio over all matched samples estimates the
machine-speed factor, and each sample's ratio is divided by it.  A
sample whose *normalized* ratio drops below ``1 - tolerance`` is a
relative regression -- that configuration got slower compared to its
peers -- and the script exits 1.

Samples faster than --min-wall-ms in the baseline are matched but not
gated: sub-millisecond timings are dominated by noise.

Integer fields other than the identity keys are deterministic work
counters (perf_executor's ``dense_sweeps``: full passes over the dense
state; ``prefix_state_hits``: trajectories forked from a prefix
checkpoint; ``stabilizer_trajectories``: trajectories routed to the
tableau; perf_ensemble's ``prefix_hits``: instances served from the
cached pass prefix; ``instructions`` and ``dd_pulses``: scheduled
instructions and DD pulses summed over the ensemble).  They
do not depend on the machine, so every matched sample must carry the
same counters as its baseline, with the same values; any difference
exits 1 naming the row, whatever its wall time.  Changing a counter
takes a deliberate ``--collect``.
"""

import argparse
import json
import statistics
import sys

THROUGHPUT_KEYS = ("instances_per_s", "trajectories_per_s")
IDENTITY_KEYS = ("workload", "config", "threads", "shards", "cached",
                 "prefix_length")


def throughput(sample):
    for key in THROUGHPUT_KEYS:
        if key in sample:
            return float(sample[key])
    raise KeyError(f"sample has no throughput field: {sample}")


def identity(bench, sample):
    parts = [bench]
    for key in IDENTITY_KEYS:
        if key in sample:
            parts.append(f"{key}={sample[key]}")
    return " ".join(parts)


def counters(sample):
    """The sample's work counters: integer, non-identity fields."""
    return {key: value for key, value in sample.items()
            if type(value) is int and key not in IDENTITY_KEYS}


def load_bench(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if "bench" not in doc or "samples" not in doc:
        raise SystemExit(f"{path}: not a perf-bench JSON document")
    return doc


def merge_samples(into, samples, bench):
    """Keep the best (highest-throughput) copy of each sample.

    Both --collect and --fresh accept repeated runs of the same
    bench; best-of-N per configuration filters scheduler noise out
    of both sides of the ratio.
    """
    for sample in samples:
        key = identity(bench, sample)
        if key not in into or throughput(sample) > throughput(into[key]):
            into[key] = sample


def collect(paths, out):
    baseline = {"format": 1, "benches": {}}
    for path in paths:
        doc = load_bench(path)
        bench = doc["bench"]
        if bench in baseline["benches"]:
            merged = {}
            merge_samples(merged, baseline["benches"][bench]["samples"],
                          bench)
            merge_samples(merged, doc["samples"], bench)
            baseline["benches"][bench]["samples"] = list(merged.values())
        else:
            baseline["benches"][bench] = doc
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    total = sum(len(d["samples"]) for d in baseline["benches"].values())
    print(f"wrote {out}: {len(baseline['benches'])} benches, "
          f"{total} samples")


def compare(baseline_path, fresh_paths, tolerance, min_wall_ms):
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("format") != 1:
        raise SystemExit(f"{baseline_path}: unknown baseline format")

    base_samples = {}
    base_wall = {}
    base_counters = {}
    for bench, doc in baseline["benches"].items():
        for sample in doc["samples"]:
            key = identity(bench, sample)
            base_samples[key] = throughput(sample)
            base_wall[key] = float(sample.get("wall_ms", 0.0))
            base_counters[key] = counters(sample)

    fresh_best = {}
    for path in fresh_paths:
        doc = load_bench(path)
        merge_samples(fresh_best, doc["samples"], doc["bench"])

    matched = []  # (key, ratio, gated)
    missing = []
    mismatched = []  # (key, counter, baseline value, fresh value)
    for key, sample in fresh_best.items():
        if key not in base_samples:
            missing.append(key)
            continue
        fresh = counters(sample)
        for name in sorted(set(fresh) | set(base_counters[key])):
            if fresh.get(name) != base_counters[key].get(name):
                mismatched.append((key, name,
                                   base_counters[key].get(name),
                                   fresh.get(name)))
        ratio = throughput(sample) / base_samples[key]
        gated = base_wall[key] >= min_wall_ms
        matched.append((key, ratio, gated))

    if not matched:
        raise SystemExit("no fresh samples matched the baseline")

    scale = statistics.median(ratio for _, ratio, _ in matched)
    if scale <= 0:
        raise SystemExit(f"degenerate machine-speed factor {scale}")
    print(f"machine-speed factor (median fresh/baseline): {scale:.3f}")

    floor = 1.0 - tolerance
    failures = []
    for key, ratio, gated in sorted(matched):
        normalized = ratio / scale
        flag = ""
        if normalized < floor:
            if gated:
                flag = "  << REGRESSION"
                failures.append(key)
            else:
                flag = "  (below floor, too fast to gate)"
        print(f"  {normalized:6.3f}  {key}{flag}")

    for key in missing:
        print(f"  fresh sample not in baseline (ignored): {key}")

    if mismatched:
        print(f"\n{len(mismatched)} work counter(s) differ from the "
              f"baseline:", file=sys.stderr)
        for key, name, base, fresh in mismatched:
            print(f"  {key}: {name} baseline {base} fresh {fresh}",
                  file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} normalized throughput regression(s) "
              f"worse than {tolerance:.0%}:", file=sys.stderr)
        for key in failures:
            print(f"  {key}", file=sys.stderr)
    if mismatched or failures:
        return 1
    print(f"\nOK: no normalized regression worse than {tolerance:.0%} "
          f"and every work counter equal across {len(matched)} samples")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--fresh", nargs="+", default=[],
                        help="fresh perf-bench JSON files")
    parser.add_argument("--collect", nargs="+", default=[],
                        help="perf-bench JSON files to merge into a "
                             "new baseline")
    parser.add_argument("--out", help="baseline path for --collect")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized throughput drop "
                             "(default 0.25)")
    parser.add_argument("--min-wall-ms", type=float, default=5.0,
                        help="baseline samples faster than this are "
                             "reported but never fail the gate")
    args = parser.parse_args()

    if args.collect:
        if not args.out:
            parser.error("--collect requires --out")
        collect(args.collect, args.out)
        return 0
    if not args.baseline or not args.fresh:
        parser.error("need --baseline and --fresh (or --collect)")
    return compare(args.baseline, args.fresh, args.tolerance,
                   args.min_wall_ms)


if __name__ == "__main__":
    sys.exit(main())
