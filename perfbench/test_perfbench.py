#!/usr/bin/env python3
"""Tests of the benchmark itself.

  python3 perfbench/test_perfbench.py

- the validators reject a corrupted coloring, an over-bound palette and a
  token count that is not conserved, and count each (decbench_selftest);
- every workload runs at smoke size in seconds, traced and untraced, with
  every output correct;
- every metric the command prints is named in BENCHMARK.json, with its
  unit, and every metric BENCHMARK.json names is printed.
"""
import json
import os
import subprocess
import sys
import time
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

SMOKE_LIMIT_S = 60


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    return proc, time.monotonic() - start


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = spec()

    def test_validators_reject_and_count(self):
        selftest = os.path.join(os.path.dirname(self.binary),
                                "decbench_selftest")
        proc = subprocess.run([selftest], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_smoke_workloads_print_exactly_the_named_metrics(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertGreaterEqual(len(names), 2)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in names:
                with self.subTest(workload=workload, trace=trace):
                    proc, secs = smoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    self.assertLess(secs, SMOKE_LIMIT_S)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, units)

    def test_other_hosts_are_never_compared(self):
        record = {"host": {"nproc": 4, "cpu_model": "a", "hostname": "x"},
                  "result": {"metrics": {}}}
        other = dict(record, host={"nproc": 4, "cpu_model": "a",
                                   "hostname": "y"})
        self.assertEqual(run.compare(other, record),
                         ["no baseline for this host"])
        self.assertEqual(run.compare(None, record),
                         ["no baseline for this host"])


if __name__ == "__main__":
    unittest.main()
