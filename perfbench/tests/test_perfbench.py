"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

They build the runner (as perfbench/run.py does), then check the metric
names, each workload's short smoke run and the per-layer sample rule.
"""
import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

METRIC_NAME = r"^[A-Za-z0-9_.-]+$"


def setUpModule():
    if not run.build():
        raise RuntimeError("perfbench build failed")


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names(self):
        bench = run.load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, METRIC_NAME)

    def test_every_layer_metric_is_declared(self):
        bench = run.load_benchmark()
        declared = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(declared, set(run.LAYER_RUNS_ON))

    def test_reported_names(self):
        raw = run.run_runner("fig2_bpf", 1, 0, 1)
        self.assertTrue(raw["metrics"])
        for name in raw["metrics"]:
            self.assertRegex(name, METRIC_NAME)


class Smoke(unittest.TestCase):
    """Each workload's minimum run: three episodes, every one balancing
    its ledger and reproducing the first one's digest in-process."""

    def check(self, workload):
        raw = run.run_runner(workload, 1, 0, 0)
        self.assertEqual(raw["failures"], [])
        self.assertEqual(raw["failed"], 0)
        self.assertGreaterEqual(raw["attempted"], 3)
        pinned = run.pinned_digest(workload, 1)
        self.assertIsNotNone(pinned)
        self.assertEqual(raw["digest"], pinned)
        again = run.run_runner(workload, 1, 0, 0)
        self.assertEqual(again["digest"], raw["digest"])
        other = run.run_runner(workload, 2, 0, 0)
        self.assertNotEqual(other["digest"], raw["digest"])

    def test_fig2_bpf(self):
        self.check("fig2_bpf")

    def test_fib_ecmp_churn(self):
        self.check("fib_ecmp_churn")

    def test_ring_pdes(self):
        self.check("ring_pdes")


class LayerSamples(unittest.TestCase):
    def test_traced_smoke_reports_every_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                raw = run.run_runner(workload, 1, 0, 1)
                self.assertEqual(raw["failures"], [])
                self.assertEqual(run.layer_errors(workload, raw["metrics"]),
                                 [])

    def test_zero_samples_where_layer_runs_is_an_error(self):
        metrics = {name: {"value": 1.0, "samples": 5}
                   for name in run.LAYER_RUNS_ON}
        metrics["ebpf.run_ns"] = {"value": 0, "samples": 0}
        self.assertEqual(run.layer_errors("fib_ecmp_churn", metrics), [])
        errors = run.layer_errors("fig2_bpf", metrics)
        self.assertEqual(len(errors), 1)
        self.assertIn("ebpf.run_ns", errors[0])
        del metrics["sim.link.tx_ns"]
        self.assertTrue(any("sim.link.tx_ns" in e
                            for e in run.layer_errors("ring_pdes", metrics)))


if __name__ == "__main__":
    unittest.main()
