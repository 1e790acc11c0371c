#!/usr/bin/env python3
"""Tests of the benchmark program itself.

    python3 perfbench/test_bench.py

Builds the program (through run.py), then runs every workload at a tiny
scale, traced and untraced, and checks the command-line error paths. Takes
about a minute once the program is built.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["q21_origin8", "scan_8p", "q21_sampled", "replay_shard"]
TINY = ["--scale", "256", "--records", "20000", "--seconds", "1"]


def bench(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, seed):
        p = bench("--workload", workload, "--seed", str(seed), "--trace",
                  str(trace), *TINY)
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        spec = {m["name"]: m["unit"] for m in benchmark_spec()[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, spec)
        return result["metrics"]

    def test_every_workload_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check_run(w, 0, 3)
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_every_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check_run(w, 1, 5)
                self.assertGreater(m["sim.refs"]["value"], 0)
                if w == "replay_shard":
                    self.assertGreater(m["batch.replay_s"]["value"], 0)
                    self.assertEqual(m["tpch.steps"]["value"], 0)
                else:
                    self.assertGreater(m["tpch.steps"]["value"], 0)
                    self.assertEqual(m["batch.replay_s"]["value"], 0)
                sampled = m["sample.windows"]["value"] > 0
                self.assertEqual(sampled, w == "q21_sampled")


class UsageTest(unittest.TestCase):
    def check_usage(self, *args):
        p = bench(*args)
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("usage:", p.stderr)
        self.assertEqual(p.stdout.strip(), "")

    def test_help(self):
        self.check_usage("--help")

    def test_missing_workload(self):
        self.check_usage("--seed", "1")

    def test_unknown_workload(self):
        self.check_usage("--workload", "q99")

    def test_unknown_flag(self):
        self.check_usage("--workload", "scan_8p", "--jobs", "2")

    def test_bad_numbers(self):
        for flag, value in [("--seed", "abc"), ("--seconds", "0"),
                            ("--trace", "2"), ("--scale", "-4"),
                            ("--seconds", "1.5")]:
            with self.subTest(flag=flag, value=value):
                self.check_usage("--workload", "scan_8p", flag, value)

    def test_missing_value(self):
        self.check_usage("--workload", "scan_8p", "--seed")

    def test_record_needs_default_inputs(self):
        self.check_usage("--workload", "scan_8p", "--seed", "3", "--record")


if __name__ == "__main__":
    unittest.main()
