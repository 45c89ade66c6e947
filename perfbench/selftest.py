"""Self-test of the benchmark harness at tiny sizes.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.
Shrinks every workload (few bins, short orbits, shallow towers) and
shows that each metric named in BENCHMARK.json is reported, that the
benchmark seed reaches the srblab config, that a deliberately wrong
reference makes the output check fail, and that the tracer leaves the
emitted CSVs unchanged.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import unittest

import run
from workloads import WORKLOADS, read_csv

TINY = {
    "tent_sweep": {"sweep.steps": 3, "ulam.bins": 256, "orbit.sample_size": 4,
                   "orbit.n_iters": 2000, "induce.tau_max": 10},
    "circle_sweep": {"sweep.steps": 3, "ulam.bins": 256, "orbit.sample_size": 4,
                     "orbit.n_iters": 2000, "induce.tau_max": 10},
    "quadratic_tower": {"ulam.bins": 512, "orbit.sample_size": 8,
                        "orbit.n_iters": 5000, "induce.tau_max": 8},
    "cylinder": {"ulam.bins": 256, "orbit.sample_size": 4, "orbit.n_iters": 2000,
                 "tail.n_max": 60, "tail.sample_size": 500},
}
TINY_SCAN = ((4, 6), 256)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def tiny_run(name: str, seed: int = 3, trace: bool = False, exact=None):
    workdir = os.path.join(run.ROOT, ".bench_out", f"selftest-{name}-{int(trace)}")
    return run.run(name, seed, 0.0, trace, workdir, exact=exact,
                   overrides=TINY[name], scan=TINY_SCAN, log=lambda _: None)


class HarnessTest(unittest.TestCase):

    def test_benchmark_json_matches_the_harness(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         run.per_layer_spec())

    def test_every_end_to_end_metric_is_reported(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = tiny_run(workload)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                self.assertGreaterEqual(result["attempted"], 1)
                for metric in result["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]))

    def test_every_per_layer_metric_is_reported(self):
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, checks = tiny_run(workload, trace=True)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                tracer_check = [c for c in checks if "tracer" in c.name]
                self.assertEqual(len(tracer_check), 1)
                self.assertTrue(tracer_check[0].ok)
                coverage = result["metrics"]["trace.coverage"]["value"]
                self.assertTrue(0.0 < coverage <= 1.0, coverage)

    def test_seed_reaches_the_config(self):
        for workload, csv_name in (("tent_sweep", "sweep.csv"), ("cylinder", "tail.csv")):
            with self.subTest(workload=workload):
                tiny_run(workload, seed=1234)
                path = os.path.join(run.ROOT, ".bench_out", f"selftest-{workload}-0",
                                    "it0", csv_name)
                self.assertEqual(read_csv(path)[0]["seed"], "1234")

    def test_wrong_reference_fails_the_check(self):
        right, checks = tiny_run("quadratic_tower")
        self.assertTrue(right["correct"], [c for c in checks if not c.ok])
        wrong, _ = tiny_run("quadratic_tower", exact=lambda _: math.log(2.0) + 0.1)
        self.assertFalse(wrong["correct"])
        self.assertGreaterEqual(wrong["failed"], 1)


if __name__ == "__main__":
    unittest.main()
