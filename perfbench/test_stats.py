#!/usr/bin/env python3
"""Tests for the benchmark's own aggregation (stats.py).

    python3 perfbench/test_stats.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_unsorted_single_and_empty(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertIsNone(stats.percentile([], 50))

    def test_samples_beyond_a_tail_percentile(self):
        # p99 of 1000 samples has ten samples above its rank, p90 of 100
        # has ten, p99 of 100 only one.
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(100, 99), 1)
        self.assertEqual(stats.beyond(0, 50), 0)

    def test_timing_reports_count_and_support(self):
        t = stats.timing([float(x) for x in range(1000)], 99, scale=1e-3)
        self.assertEqual(t["count"], 1000)
        self.assertEqual(t["beyond"], 10)
        self.assertEqual(t["q"], 99)
        self.assertAlmostEqual(t["value"], 989.01e-3)
        empty = stats.timing([], 50)
        self.assertIsNone(empty["value"])
        self.assertEqual(empty["count"], 0)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 9.0, 11.0, 30.0, 10.5, 9.5, 11.5, 10.2, 9.8]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_degenerate_sets(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.spread([4.0, 4.0, 4.0]), 0.0)

    def test_round_rate_is_a_median_of_rounds(self):
        # Rates 100, 50 and 200 per second; the slow and fast rounds do not
        # move the median the way they move a pooled total.
        self.assertEqual(stats.round_rate([100, 100, 400], [1, 2, 2]), 100)
        self.assertEqual(stats.round_rate([5, 8], [0, 2]), 4)
        self.assertIsNone(stats.round_rate([], []))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [
            {"id": 1, "parent": 0, "layer": "bench", "start": 0, "end": 100},
            {"id": 2, "parent": 1, "layer": "bench", "start": 10, "end": 90},
            {"id": 3, "parent": 2, "layer": "core", "start": 20, "end": 50},
            {"id": 4, "parent": 2, "layer": "peel", "start": 50, "end": 60},
            {"id": 5, "parent": 2, "layer": "core", "start": 70, "end": 75},
        ]
        self.assertEqual(stats.self_times(spans),
                         {"bench": 20 + 35, "core": 35, "peel": 10})

    def test_layer_totals_add_up_to_the_root(self):
        spans = [
            {"id": 1, "parent": 0, "layer": "bench", "start": 0, "end": 40},
            {"id": 2, "parent": 1, "layer": "service", "start": 5, "end": 25},
            {"id": 3, "parent": 2, "layer": "storage", "start": 6, "end": 16},
        ]
        self.assertEqual(sum(stats.self_times(spans).values()), 40)


class AgreementTest(unittest.TestCase):
    METRICS = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "eps", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]

    def steady(self, base):
        return [base * (1 + 0.01 * (i % 3 - 1)) for i in range(10)]

    def test_steady_sets_agree(self):
        a = {"setup_s": self.steady(1.0), "eps": self.steady(100.0),
             "ms": self.steady(5.0)}
        self.assertEqual(stats.agreement(a, a, self.METRICS), [])

    def test_wide_spread_fails(self):
        wide = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        a = {"setup_s": wide, "eps": self.steady(100.0), "ms": wide}
        problems = stats.agreement(a, a, self.METRICS)
        # setup_s and ms, each in both sets.
        self.assertEqual(sorted(p.split(":")[0] for p in problems),
                         ["ms", "ms", "setup_s", "setup_s"])

    def test_drift_respects_direction(self):
        a = {"setup_s": self.steady(1.0), "eps": self.steady(100.0),
             "ms": self.steady(5.0)}
        faster = {"setup_s": self.steady(1.0), "eps": self.steady(150.0),
                  "ms": self.steady(3.0)}
        self.assertEqual(stats.agreement(a, faster, self.METRICS), [])
        slower = {"setup_s": self.steady(1.5), "eps": self.steady(80.0),
                  "ms": self.steady(6.0)}
        problems = stats.agreement(a, slower, self.METRICS)
        self.assertEqual([p.split(":")[0] for p in problems],
                         ["setup_s", "eps", "ms"])

    def test_missing_values_are_reported(self):
        a = {"setup_s": [1.0], "eps": [], "ms": [1.0]}
        self.assertIn("eps: missing values",
                      stats.agreement(a, a, self.METRICS))


if __name__ == "__main__":
    unittest.main()
