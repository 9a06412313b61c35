#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

  python3 perfbench/selftest.py

Checks the percentile/tail-selection rule and the metric plumbing of
run.py, then builds qsp_perfbench and runs its own checks: the counting
estimator decorator is transparent (traced plans stay identical), the
per-shard replica reproduces ShardStats::groups, and layer self times add
up to the root span.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_rung_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_rung(19))
        self.assertEqual(run.tail_rung(20), 50.0)
        self.assertEqual(run.tail_rung(99), 50.0)
        self.assertEqual(run.tail_rung(100), 90.0)
        self.assertEqual(run.tail_rung(199), 90.0)
        self.assertEqual(run.tail_rung(200), 95.0)
        self.assertEqual(run.tail_rung(1000), 99.0)
        self.assertEqual(run.tail_rung(10000), 99.9)

    def test_tail_value_and_fallback(self):
        samples = list(range(1, 101))  # 1..100
        value, p, supported = run.tail(samples)
        self.assertEqual((p, supported), (90.0, True))
        self.assertAlmostEqual(value, 90.1)
        value, p, supported = run.tail([5.0, 1.0, 3.0])
        self.assertEqual((value, p, supported), (3.0, 50.0, False))

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4], 50.0), 2.5)
        self.assertEqual(run.percentile([7], 99.0), 7)


class Plumbing(unittest.TestCase):
    RAW = {
        "setup_s": [0.3, 0.1, 0.2], "plan_s": [2.0, 4.0],
        "round_ms": [float(x) for x in range(1, 41)],
        "placement_ms": [10.0] * 25, "admit_ops": 500, "admit_seconds": 2.5,
        "plan_cost_ratio": 0.8, "peak_rss_mb": 60.0,
        "attempted": 200, "failed": 3, "layers": {"net.execute_s": 0.5},
    }

    def test_every_end_to_end_metric_is_computed(self):
        spec = run.load_spec()
        values, tails = run.end_to_end(self.RAW)
        self.assertEqual(sorted(values),
                         sorted(m["name"] for m in spec["end_to_end"]))
        self.assertEqual(values["plan_s"], 3.0)
        self.assertEqual(values["round_p50_ms"], 20.5)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["admit_ops_per_s"], 200.0)
        self.assertEqual(tails["round_ms"]["percentile"], 50.0)
        self.assertEqual(tails["round_ms"]["n"], 40)

    def test_failed_share_is_a_layer_metric(self):
        values = run.per_layer(self.RAW)
        self.assertEqual(values["failed_share"], 0.015)
        names = {m["name"] for m in run.load_spec()["per_layer"]}
        self.assertIn("failed_share", names)

    def test_fit_exponent(self):
        self.assertAlmostEqual(run.fit_exponent([1, 2, 4], [3, 12, 48]), 2.0)


def binary_selftest():
    run.build()
    return subprocess.run([str(run.BINARY), "--mode", "selftest"]).returncode


if __name__ == "__main__":
    result = unittest.main(exit=False, verbosity=2).result
    ok = result.wasSuccessful()
    ok = binary_selftest() == 0 and ok
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    sys.exit(0 if ok else 1)
