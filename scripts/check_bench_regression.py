#!/usr/bin/env python3
"""Perf-regression gate for the BENCH_*.json artifacts.

Compares every host wall-clock field (key containing "wall_us";
lower is better), every host throughput field (key containing
"per_sec"; HIGHER is better -- this includes the solve service's
sustained "solves_per_sec", bench_service's headline number) and every
classification-quality field
(key containing "solved_frac"; HIGHER is better -- the projective
tracker's classified-endpoint fraction, which must never collapse back
toward the ~0 of the pre-projective tracker) of each current bench
JSON against the committed baseline of the same name, and fails when
any value regressed by more than --max-ratio.  Wall-clock and
throughput numbers move with the runner hardware, so the gate is
deliberately coarse (default 2x): it catches "the hot path grew an
allocation per launch", not 10% noise; solved_frac is deterministic on
a given workload, so any drop at all shows up here long before the 2x
ratio trips: solved_frac fields are held to their own tight
--max-solved-ratio (default 1.01) instead of the coarse wall-clock
ratio.  Autotuner fields (key containing "tuned_speedup") are held to
an absolute floor (--min-tuned-speedup, default 0.9999) instead of a
baseline ratio: the modeled clock is deterministic, so tuned slower
than heuristic is a tuner bug regardless of what the baseline says,
and the floor fires even when no baseline file exists yet.  Other
modeled-clock and speedup fields are left alone -- they have their own
in-bench gates.  List elements are matched to the baseline by their
identity fields (IDENTITY_KEYS), not by position; a baseline element
with no current counterpart is noted and skipped.  Beside every failing
comparison the gate prints both files' provenance: the `meta` stamp
and `host_steal_frac` (the share of the host's CPU a hypervisor stole
during the timed section, which bench_batch records), each "none" where
the file lacks it -- a wall-clock gate cannot tell steal from a
regression, but its reader can.  Neither enters the pass/fail verdict.

Usage:
  scripts/check_bench_regression.py [--baseline-dir bench/baselines]
      [--max-ratio 2.0] BENCH_batch.json BENCH_sharding.json ...
"""

import argparse
import json
import os
import sys

# String fields that name what a list element measures.  A row is
# matched to its baseline by these (e.g. rows[workload=table1_dim16,
# mode=lockstep_fused_1x4]), so adding or removing a row never shifts
# its neighbours onto the wrong baseline entry.
IDENTITY_KEYS = ("workload", "mode", "name", "schedule", "label", "scalar")


def element_labels(items):
    """Path label per list element: its identity fields when it has
    some and they are unique within the list, else its index."""
    labels = []
    for i, item in enumerate(items):
        ident = []
        if isinstance(item, dict):
            ident = [f"{k}={item[k]}" for k in IDENTITY_KEYS
                     if isinstance(item.get(k), str)]
        labels.append(",".join(ident) if ident else str(i))
    if len(set(labels)) != len(labels):
        return [str(i) for i in range(len(items))]
    return labels


def list_elements(node, path=""):
    """Yield the path of every list element, labelled as gated_leaves
    labels it."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from list_elements(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for label, value in zip(element_labels(node), node):
            sub = f"{path}[{label}]"
            yield sub
            yield from list_elements(value, sub)


def gated_leaves(node, path=""):
    """Yield (path, value, higher_is_better, is_quality) for every
    numeric leaf whose key mentions wall_us (lower is better), per_sec
    or solved_frac (higher is better; solved_frac is a deterministic
    quality field and gets the tight ratio)."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from gated_leaves(value, sub)
            elif isinstance(value, (int, float)) and "wall_us" in key:
                yield sub, float(value), False, False
            elif isinstance(value, (int, float)) and "solves_per_sec" in key:
                # The solve service's sustained-throughput headline
                # (bench_service): higher is better, coarse wall ratio.
                yield sub, float(value), True, False
            elif isinstance(value, (int, float)) and "per_sec" in key:
                yield sub, float(value), True, False
            elif isinstance(value, (int, float)) and "solved_frac" in key:
                yield sub, float(value), True, True
    elif isinstance(node, list):
        for label, value in zip(element_labels(node), node):
            yield from gated_leaves(value, f"{path}[{label}]")


def provenance(doc):
    """The file's meta stamp and host_steal_frac, "none" where absent
    (the committed baselines predate both)."""
    meta = doc.get("meta") if isinstance(doc, dict) else None
    steal = doc.get("host_steal_frac") if isinstance(doc, dict) else None
    meta_text = json.dumps(meta, sort_keys=True) if meta else "none"
    steal_text = (f"{steal:.4f}" if isinstance(steal, (int, float))
                  else "none")
    return f"meta {meta_text}, host_steal_frac {steal_text}"


def print_provenance(current, baseline=None):
    """Indented provenance lines under a FAIL line."""
    print(f"       current:  {provenance(current)}")
    if baseline is not None:
        print(f"       baseline: {provenance(baseline)}")


def tuned_speedup_leaves(node, path=""):
    """Yield (path, value) for every numeric leaf whose key mentions
    tuned_speedup -- the autotuner's modeled heuristic/tuned ratio,
    gated by an absolute floor rather than a baseline."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from tuned_speedup_leaves(value, sub)
            elif isinstance(value, (int, float)) and "tuned_speedup" in key:
                yield sub, float(value)
    elif isinstance(node, list):
        for label, value in zip(element_labels(node), node):
            yield from tuned_speedup_leaves(value, f"{path}[{label}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="current BENCH_*.json files")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current/baseline exceeds this")
    parser.add_argument("--max-solved-ratio", type=float, default=1.01,
                        help="tight ratio for solved_frac quality fields "
                             "(deterministic per workload: any real drop "
                             "must fail, not just a 2x collapse)")
    parser.add_argument("--min-tuned-speedup", type=float, default=0.9999,
                        help="absolute floor for tuned_speedup fields: the "
                             "measured autotuner must never be modeled-slower "
                             "than the heuristic it replaces (checked even "
                             "without a baseline)")
    args = parser.parse_args()

    failures = []
    compared = 0
    # Per-file binding metric: the gated field closest to (or furthest
    # past) its limit, as measured by ratio/limit headroom.  Reported on
    # pass AND fail so a green run still says which metric would trip
    # first if it drifted.
    binding = {}

    def consider(name, path, kind, base, value, ratio, limit):
        headroom = ratio / limit
        entry = binding.get(name)
        if entry is None or headroom > entry["headroom"]:
            binding[name] = {"path": path, "kind": kind, "base": base,
                             "value": value, "ratio": ratio, "limit": limit,
                             "headroom": headroom}

    # File-level problems (missing/unreadable/malformed JSON) are their
    # own failure class: report every bad file with a one-line error and
    # exit nonzero instead of dying on the first raw traceback.
    file_errors = []

    def load_json(path, role):
        try:
            with open(path) as f:
                return json.load(f)
        except OSError as e:
            file_errors.append(f"{role} {path}: cannot read ({e.strerror or e})")
        except json.JSONDecodeError as e:
            file_errors.append(f"{role} {path}: malformed JSON ({e})")
        return None

    for current_path in args.files:
        name = os.path.basename(current_path)
        current = load_json(current_path, "bench output")
        if current is None:
            continue

        # Absolute-floor gate: runs on every file, baseline or not.
        for path, value in tuned_speedup_leaves(current):
            compared += 1
            marker = "FAIL" if value < args.min_tuned_speedup else "ok"
            print(f"{marker:4} {name}:{path} [tuned-speedup]: {value:.4f} "
                  f"(floor {args.min_tuned_speedup:.4f})")
            # Floor gate: "cost ratio" is floor/value so >1 means failed.
            consider(name, path, "tuned-speedup", args.min_tuned_speedup,
                     value, args.min_tuned_speedup / value if value > 0.0
                     else float("inf"), 1.0)
            if value < args.min_tuned_speedup:
                print_provenance(current)
                failures.append((name, path, value))

        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(baseline_path):
            print(f"note: no baseline for {name}, skipping ratio gates "
                  f"(add {baseline_path} to gate it)")
            continue
        baseline = load_json(baseline_path, "baseline")
        if baseline is None:
            continue

        current_elements = set(list_elements(current))
        reported = []
        for element in list_elements(baseline):
            if element in current_elements or any(
                    element.startswith((r + ".", r + "[")) for r in reported):
                continue
            reported.append(element)
            print(f"note: {name}:{element} has no counterpart in the "
                  f"current run, not compared")

        baseline_values = {p: (v, hib, q)
                           for p, v, hib, q in gated_leaves(baseline)}
        for path, value, higher_is_better, is_quality in gated_leaves(current):
            entry = baseline_values.get(path)
            if entry is None:
                continue
            base, _, _ = entry
            if base <= 0.0:
                continue
            compared += 1
            if higher_is_better and value <= 0.0:
                # Throughput (or classification quality) collapsed to
                # nothing: the worst possible regression, not a field
                # to skip.
                print(f"FAIL {name}:{path} [higher-is-better]: {base:.1f} -> "
                      f"{value:.1f} (collapsed to zero)")
                print_provenance(current, baseline)
                failures.append((name, path, float("inf")))
                continue
            # Normalize so ratio > 1 always means "got worse".
            ratio = base / value if higher_is_better else value / base
            limit = args.max_solved_ratio if is_quality else args.max_ratio
            marker = "FAIL" if ratio > limit else "ok"
            direction = ("quality" if is_quality
                         else "throughput" if higher_is_better else "wall")
            print(f"{marker:4} {name}:{path} [{direction}]: {base:.1f} -> "
                  f"{value:.1f} ({ratio:.2f}x of baseline cost, limit "
                  f"{limit:.2f}x)")
            consider(name, path, direction, base, value, ratio, limit)
            if ratio > limit:
                print_provenance(current, baseline)
                failures.append((name, path, ratio))

    if binding:
        print("\nbinding metric per file (closest to its limit):")
        for name in sorted(binding):
            b = binding[name]
            print(f"  {name}: {b['path']} [{b['kind']}] baseline "
                  f"{b['base']:.4g} measured {b['value']:.4g} -> "
                  f"{b['ratio']:.3f}x of limit {b['limit']:.2f}x "
                  f"({100.0 * b['headroom']:.0f}% of budget)")

    if compared == 0:
        print("warning: no wall-clock or throughput fields compared; "
              "check the baseline files exist and match the bench output")
    if file_errors:
        print(f"\n{len(file_errors)} file error(s):")
        for err in file_errors:
            print(f"  error: {err}")
        return 1
    if failures:
        print(f"\n{len(failures)} gated metric(s) regressed:")
        for name, path, ratio in failures:
            print(f"  {name}:{path} at {ratio:.4f}")
        return 1
    print(f"\nperf gate passed: {compared} gated fields checked "
          f"(wall/throughput/quality vs baseline, tuned_speedup vs floor)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
