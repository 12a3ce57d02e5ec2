#!/usr/bin/env python3
"""Tests of the benchmark itself: every workload in a short mode, the metric
contract of BENCHMARK.json, and each correctness check on a corrupted output.

    python3 perfbench/test_perfbench.py      (about two minutes on 4 cores)
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=1, corrupt=None, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class MetricContract(unittest.TestCase):
    """Each workload prints every declared metric, with its unit."""

    def check(self, trace, seed):
        declared = SPEC["per_layer" if trace else "end_to_end"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                out = result(run(workload, trace, seed))
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(list(out["metrics"]),
                                 [m["name"] for m in declared])
                for m in declared:
                    got = out["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace:
                        self.assertGreater(got["value"], 0, m["name"])
                if trace:
                    self.assertGreater(out["metrics"]["trace.overhead"]["value"],
                                       0)

    def test_end_to_end_default_seed(self):
        self.check(trace=0, seed=1)

    def test_per_layer_second_seed(self):
        self.check(trace=1, seed=2)


class ChecksTrip(unittest.TestCase):
    """Every correctness check fails the run when its output is corrupted."""

    CASES = [
        ("train-allreduce", 0, "train.params"),
        ("train-qsgd8", 0, "train.loss"),
        ("serve-dlrm", 0, "serve.logits"),
        ("fl-fedavg", 0, "fl.accounting"),
        ("fl-fedavg", 0, "fl.dropouts"),
        ("train-allreduce", 1, "traced"),
        ("serve-dlrm", 1, "traced"),
        ("fl-fedavg", 1, "traced"),
    ]

    def test_corrupted_outputs_fail(self):
        for workload, trace, corrupt in self.CASES:
            with self.subTest(workload=workload, corrupt=corrupt):
                out = result(run(workload, trace, corrupt=corrupt))
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)


class MissingSources(unittest.TestCase):
    """With only BENCHMARK.json and the benchmark's files, the run fails
    without printing a result."""

    def test_exits_nonzero_without_result(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.decode().strip(), "")


if __name__ == "__main__":
    unittest.main()
