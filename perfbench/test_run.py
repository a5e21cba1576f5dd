#!/usr/bin/env python3
"""End-to-end checks of the benchmark command.

    python3 perfbench/test_run.py

Runs every workload briefly in both modes and checks that the result line
carries exactly the metrics BENCHMARK.json declares for the mode, each with
its declared unit; and that the command fails without printing a result in
a tree that holds only BENCHMARK.json and perfbench/ (no library sources).
"""

import json
import os
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, workload, trace, seconds="1", env=None):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


class BenchmarkCommandTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_declared_metric_and_no_other(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().split("\n")[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    declared = {m["name"]: m["unit"]
                                for m in self.spec[section]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    host = [line for line in done.stdout.split("\n")
                            if line.startswith("host ")]
                    self.assertEqual(len(host), 1)
                    self.assertIn("effective_parallelism", host[0])

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = run(tmp, self.spec["workloads"][0]["name"], 0, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
