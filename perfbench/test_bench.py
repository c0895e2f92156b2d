#!/usr/bin/env python3
"""The benchmark's own test: a short run of every workload in both modes.

    python3 perfbench/test_bench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a clean run reports no failures, that a traced run's stage
medians come within 10% of its untraced latency, that a delivery corrupted in
flight is counted as a failure (in-process and cross-process), and that the
benchmark refuses to produce a result without the source tree.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Every workload rsf_perfbench knows, gated in BENCHMARK.json or not.
WORKLOADS = ("camera_intra", "camera_xproc", "imu_xproc", "fanout_intra")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, out


class BenchmarkTest(unittest.TestCase):
    def assert_metrics(self, result, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, BENCH["end_to_end"]),
                                    (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run(workload, trace)
                    self.assertEqual(code, 0, out.stdout + out.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, declared)
                    self.assertIn("host: ", out.stdout)
                    if trace:
                        # The traced stages add up to the untraced latency.
                        self.assertIn("# reconcile", out.stdout)
                        self.assertLessEqual(
                            result["metrics"]["bench.reconcile_error_pct"]["value"],
                            10.0, out.stdout)

    def test_corrupted_delivery_is_a_failure(self):
        # camera_intra has two in-process subscribers, imu_xproc one in
        # another process: the damaged message fails once per subscriber.
        for workload, subscribers in (("camera_intra", 2), ("imu_xproc", 1)):
            with self.subTest(workload=workload):
                code, result, out = run(workload, 0, "--corrupt-seq", "40")
                self.assertEqual(code, 1, out.stdout + out.stderr)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], subscribers)
                self.assertIn("corrupt %d" % subscribers, out.stdout)

    def test_no_result_without_the_source_tree(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, out = run("camera_intra", 0, cwd=alone)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result, out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
