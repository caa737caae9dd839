#!/usr/bin/env python3
"""Compare the perfbench records of two checkouts, run by run.

Pairs the `.bench_out/result-*.json` records that
`python3 perfbench/run.py` left in two checkout roots (typically the
parent commit and the change) by workload, seed and trace level, and
prints for each pair:

  * the inputs and output digests, "same" or "changed";
  * every `fixed` metric (the deterministic quota figures and
    digests), "same" or both values;
  * each modeled end-to-end metric (unit `modeled_ms`) with its
    change/parent ratio.

Host-CPU metrics are left out: one run of each side says nothing about
them (compare medians over alternating runs instead).

Exit status:
  0  same bits: every output digest and every `fixed` metric off the
     modeled clock (solved_frac, quota_paths, first_request_digest,
     launches_per_call, ...) equals the parent's; only modeled metrics
     may move;
  1  bits moved: an output digest or such a `fixed` metric differs (the
     report is printed either way, so a change that moves them on
     purpose reads it the same);
  2  not comparable: a record has no partner on the other side, the two
     sides' inputs digests differ, or there are no records -- the runs
     did not measure the same work.

Usage:
  scripts/compare_perfbench_records.py PARENT_DIR CHANGE_DIR
"""

import argparse
import glob
import json
import os
import sys

BITS_MOVED = 1
NOT_COMPARABLE = 2


def load_records(root):
    """{(workload, seed, trace): record} for every result file under
    root/.bench_out."""
    records = {}
    for path in sorted(glob.glob(os.path.join(root, ".bench_out", "result-*.json"))):
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        records[(record["workload"], record["seed"], record.get("trace", 0))] = record
    return records


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def compare(parent, change):
    """Print one pair; return its exit status (0 same bits, 1 bits
    moved, 2 inputs digests differ)."""
    status = 0
    for key in ("inputs_digest", "output_digest"):
        a, b = parent.get(key), change.get(key)
        verdict = "same" if a == b else "changed"
        print(f"  {key}: {verdict} ({a}" + ("" if a == b else f" -> {b}") + ")")
        if a != b:
            moved = NOT_COMPARABLE if key == "inputs_digest" else BITS_MOVED
            status = max(status, moved)
    fixed_a, fixed_b = parent.get("fixed", {}), change.get("fixed", {})
    for name in sorted(set(fixed_a) | set(fixed_b)):
        a = fixed_a.get(name, {}).get("value")
        b = fixed_b.get(name, {}).get("value")
        if a == b:
            print(f"  fixed {name}: same ({fmt(a)})")
            continue
        print(f"  fixed {name}: changed ({fmt(a)} -> {fmt(b)})")
        if (fixed_a.get(name) or fixed_b.get(name)).get("unit") != "modeled_ms":
            status = max(status, BITS_MOVED)
    metrics_a, metrics_b = parent.get("metrics", {}), change.get("metrics", {})
    for name in sorted(set(metrics_a) | set(metrics_b)):
        entry = metrics_a.get(name) or metrics_b.get(name)
        if entry.get("unit") != "modeled_ms":
            continue
        a = metrics_a.get(name, {}).get("value")
        b = metrics_b.get(name, {}).get("value")
        ratio = f"{b / a:.4f}x" if a and b is not None else "n/a"
        print(f"  modeled {name}: {fmt(a)} -> {fmt(b)} ms ({ratio})")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", help="checkout root of the parent runs")
    parser.add_argument("change_dir", help="checkout root of the change runs")
    args = parser.parse_args()

    parent = load_records(args.parent_dir)
    change = load_records(args.change_dir)
    status = 0
    for key in sorted(set(parent) | set(change)):
        workload, seed, trace = key
        print(f"{workload} seed {seed} trace {trace}:")
        if key not in parent or key not in change:
            side = args.parent_dir if key not in parent else args.change_dir
            print(f"  MISSING: no record in {side}")
            status = NOT_COMPARABLE
            continue
        status = max(status, compare(parent[key], change[key]))
    if not parent and not change:
        print("no records found")
        status = NOT_COMPARABLE
    return status


if __name__ == "__main__":
    sys.exit(main())
