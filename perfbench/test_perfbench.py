#!/usr/bin/env python3
"""Tests of the repository benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py        # from the repository root

Every run here uses short simulated windows, so the whole file takes about a minute
after the first build.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--seconds", "1", "--warmup-s", "0.5", "--measure-s", "0.5"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_bench(*args):
    """Runs perfbench/run.py; returns (exit code, parsed last stdout line or None)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_follows_the_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], unit)
            self.assertIn(metric["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])


class BenchmarkRunTest(unittest.TestCase):
    def check_metric_names(self, result, trace):
        spec = load_spec()
        declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), declared)

    def test_decorated_and_plain_runs_are_bit_identical(self):
        # --bare-pass also runs every cell with no callbacks at all, proving the window
        # markers inert; the traced run compares plain, decorated, tracer (and, for the
        # parallel sweep, serial) passes field by field.
        for workload in [w["name"] for w in load_spec()["workloads"]]:
            with self.subTest(workload=workload):
                code, result = run_bench("--workload", workload, "--seed", "11", "--trace",
                                         "1", "--bare-pass", *SHORT)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 4 * 7)
                self.check_metric_names(result, trace=1)

    def test_planted_mismatch_fails_a_cell(self):
        code, result = run_bench("--workload", "pmbench", "--seed", "11", "--trace", "1",
                                 "--plant-mismatch", *SHORT)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_counts_and_model_metrics_repeat_exactly(self):
        spec = load_spec()
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        for trace, names in ((0, [m["name"] for m in spec["end_to_end"]
                                  if m["name"].startswith("chrono_")]), (1, counts)):
            runs = []
            for _ in range(2):
                code, result = run_bench("--workload", "tenant_cxl", "--seed", "5", "--trace",
                                         str(trace), *SHORT)
                self.assertEqual(code, 0)
                self.check_metric_names(result, trace)
                runs.append(result["metrics"])
            for name in names:
                self.assertEqual(runs[0][name], runs[1][name], name)

    def test_unknown_workload_is_refused(self):
        code, result = run_bench("--workload", "nope", "--seed", "1", "--trace", "0", *SHORT)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
