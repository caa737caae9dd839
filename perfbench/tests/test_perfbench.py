"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

They build (first run) and run perfbench/run.py from the checkout root, so
they take a few minutes.  --seconds 0 makes each run do just its workload's
fixed quota.
"""

import json
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace=0, seconds="0"):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit)
        setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_repeats_inputs_fixed_metrics_and_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result_a, a = run(workload, 3)
                _, b = run(workload, 3)
                self.assertTrue(result_a["correct"])
                self.assertEqual(result_a["failed"], 0)
                self.assertEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertEqual(a["output_digest"], b["output_digest"])
                self.assertEqual(a["fixed"], b["fixed"])
                _, other = run(workload, 4)
                self.assertNotEqual(a["inputs_digest"], other["inputs_digest"])


class MetricsDeclaredTest(unittest.TestCase):
    def check(self, result, kind):
        want = declared(kind)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result, _ = run("eval_table1_dd", 5)
        self.check(result, "end_to_end")
        self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_run_prints_every_per_layer_metric(self):
        result, _ = run("eval_table1_dd", 5, trace=1, seconds="2")
        self.check(result, "per_layer")
        self.assertTrue((ROOT / ".bench_out" / "trace-eval_table1_dd-seed5-trace1.json").exists())


if __name__ == "__main__":
    unittest.main()
