#!/usr/bin/env python3
"""Tests of the benchmark itself: short runs through run.py.

    python3 perfbench/tests/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["grid_replay", "served_jobs", "asid_mix"]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    return record, json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
            declared = {m["name"]: m["unit"] for m in bench()[kind]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    record, result = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for key in ["nproc", "git_rev", "rustc", "seed", "workload", "mode"]:
                        self.assertIn(key, record)
                    if trace == 1:
                        layers = record["reconciliation"]
                        explained = layers["layer_sum_ms"] + layers["glue_ms"]
                        self.assertAlmostEqual(explained, layers["end_to_end_ms"], places=6)

    def test_served_run_holds_enough_jobs_for_p99(self):
        _, result = run("served_jobs", 0)
        self.assertGreaterEqual(result["attempted"], 1000)


class WrongDigest(unittest.TestCase):
    def test_a_wrong_reference_digest_raises_the_error_rate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                record, result = run(workload, 0, "--expect-digest", "0123456789abcdef")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(record["error_rate"], 0.0)


if __name__ == "__main__":
    unittest.main()
