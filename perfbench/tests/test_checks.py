#!/usr/bin/env python3
"""Proves the benchmark's checks bite.

    python3 perfbench/tests/test_checks.py

Each planted-fault case runs one workload on small inputs with --plant,
which corrupts exactly one output before it reaches its check. The run
must count exactly that one output as failed, report correct=false and
exit 1. Clean runs of every workload must pass, and a directory holding
only BENCHMARK.json and perfbench/ (no dsketch sources) must fail without
printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["ship-er100k", "congest-er20k", "serve-uniform-er100k",
             "churn-zipf-er20k"]


def run(workload, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", "0", "--small", *extra]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') \
        else None
    return proc.returncode, result


class PlantedFaults(unittest.TestCase):
    def assert_caught(self, workload, plant):
        code, result = run(workload, "--plant", plant)
        self.assertEqual(code, 1, f"{plant} on {workload} was not caught")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)

    def test_underestimate(self):
        self.assert_caught("ship-er100k", "underestimate")

    def test_stretch_above_2k_minus_1(self):
        self.assert_caught("congest-er20k", "stretch")

    def test_heap_mmap_mismatch(self):
        self.assert_caught("ship-er100k", "heap-mmap")

    def test_label_differs_from_centralized(self):
        self.assert_caught("congest-er20k", "label")

    def test_service_differs_from_pinned_oracle(self):
        self.assert_caught("serve-uniform-er100k", "service")

    def test_service_differs_from_pinned_snapshot(self):
        self.assert_caught("churn-zipf-er20k", "service")

    def test_underestimate_under_churn(self):
        self.assert_caught("churn-zipf-er20k", "underestimate")


class CleanRuns(unittest.TestCase):
    def test_every_workload_passes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_without_sources_fails_without_result(self):
        scratch_root = ROOT / ".bench_build" / "tmp"
        scratch_root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = run(WORKLOADS[0], root=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
