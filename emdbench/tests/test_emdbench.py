#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 emdbench/tests/test_emdbench.py            # all tests
    python3 emdbench/tests/test_emdbench.py -k json    # only the fast ones

Run from the repository root. The smoke and self-test cases build the benchmark binary
and, on the first call in a checkout, train the model cache (a few minutes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (emdbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json stays within the limits its consumers enforce."""

    def test_json_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        for part in spec["command"]:
            self.assertLessEqual(len(part), 200)
            self.assertFalse(part.startswith("/"))
            self.assertNotIn("..", part.split("/"))
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_json_names_units_bounds(self):
        spec = load_spec()
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME_RE)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(set(names) <= set(run.WORKLOADS), names)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class ContractCheckerTest(unittest.TestCase):
    """run.py's own result validation catches what it should."""

    def result(self, spec, trace):
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in wanted}}

    def test_json_complete_result_passes(self):
        spec = load_spec()
        for trace in (0, 1):
            self.assertEqual(run.contract_errors(self.result(spec, trace), spec,
                                                 trace), [])

    def test_json_missing_metric_and_wrong_unit_fail(self):
        spec = load_spec()
        r = self.result(spec, 0)
        del r["metrics"]["setup_s"]
        r["metrics"]["f1"]["unit"] = "percent"
        errors = run.contract_errors(r, spec, 0)
        self.assertTrue(any("setup_s" in e for e in errors), errors)
        self.assertTrue(any("f1" in e for e in errors), errors)

    def test_json_bad_counts_fail(self):
        spec = load_spec()
        r = self.result(spec, 1)
        r["attempted"] = 0
        self.assertTrue(run.contract_errors(r, spec, 1))


class RunnerTest(unittest.TestCase):
    """End-to-end checks through run.py (build + model cache on first use)."""

    def test_trace_arithmetic_self_test(self):
        proc = subprocess.run([sys.executable, "emdbench/run.py", "--self-test"],
                              cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])

    def test_smoke_emits_every_metric_with_its_unit(self):
        proc = subprocess.run([sys.executable, "emdbench/run.py", "--smoke"],
                              cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertEqual(json.loads(proc.stdout.strip().splitlines()[-1]),
                         {"smoke_failures": 0})

    def test_refuses_to_run_without_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        bare = os.path.join(run.build_root(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, run.BENCH_NAME),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_NAME, "run.py"),
             "--workload", "deep_local", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, env=env, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
