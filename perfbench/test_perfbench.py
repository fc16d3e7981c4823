#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py for one second per workload (the first run
also builds .bench_build/), so the whole file takes a few minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    """Runs one short benchmark run; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


class NegativeControl(unittest.TestCase):
    def test_wrong_reference_fails_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, 0, "--corrupt-reference")
                self.assertNotEqual(code, 0)
                r = result(lines)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertTrue(any(l.startswith("FAIL ") for l in lines))

    def test_wrong_reference_fails_a_traced_run(self):
        code, lines = run("kv_hot", 1, "--corrupt-reference")
        self.assertNotEqual(code, 0)
        self.assertFalse(result(lines)["correct"])


class EveryMetric(unittest.TestCase):
    def check(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, lines = run(workload, trace)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                r = result(lines)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]),
                                 {m["name"] for m in declared})
                for m in declared:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    # Every metric is also printed by name with its unit.
                    self.assertTrue(any(
                        l.split()[:2] == ["metric", m["name"]] and
                        l.split()[3] == m["unit"] for l in lines), m["name"])

    def test_gated_run_prints_every_end_to_end_metric(self):
        self.check(0, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(sum(1 for x in SPEC["end_to_end"]
                                 if x["name"] == m["name"]), 1)

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, SPEC["per_layer"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run(WORKLOADS[0], 0, cwd=bare,
                              script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
