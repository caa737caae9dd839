#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/CMakeLists.txt, which compiles the
checkout's src/ tree) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, checks that every metric it
reports is declared in BENCHMARK.json with its unit, and prints as the last
stdout line one JSON object with the keys correct, attempted, failed and
metrics.  Run from the root of a checkout.  The full record (digests, fixed
metrics, stamp) is written to .bench_out/.  Exits 1 if an output check
failed, 2 on any error (no result line then).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    if not any((ROOT / "src").rglob("*.cpp")):
        fail("no library sources under src/ -- run from the root of a checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")
    return out_dir / "perfbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and len(out.stdout.strip()) >= 7:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def src_digest():
    """sha256 of the library sources: identifies the measured tree even
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def validate(record, declared):
    metrics = record.get("metrics", {})
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        fail(f"metric set mismatch: missing {missing}, undeclared {extra}")
    for name, m in metrics.items():
        if m.get("unit") != declared[name]:
            fail(f"{name}: unit {m.get('unit')!r} != declared {declared[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")
    for key in ("attempted", "failed"):
        if not isinstance(record.get(key), int) or record[key] < 0:
            fail(f"{key} is not a whole number")
    if record["attempted"] < 1:
        fail("no operation attempted")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"trace-{stem}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"measuring program exited with code {proc.returncode}")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("measuring program printed no result line")

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    validate(record, declared)

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "build_type": record["build"]["type"],
        "compiler": record["build"]["compiler"], "git_sha": git_sha(),
        "src_digest": src_digest(),
    }
    record["stamp"] = stamp
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print("stamp: " + json.dumps(stamp))
    if record["inputs_digest"]:
        print("digests: " + json.dumps({"inputs": record["inputs_digest"],
                                        "outputs": record["output_digest"]}))
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": bool(record["correct"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
