"""Self-tests for the benchmark's statistics and naming rules.

    python3 perfbench/tests/test_stats.py
"""
import json
import re
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import stats  # noqa: E402

# The character sets BENCHMARK.json allows for metric names and units.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_chosen_percentile_leaves_ten_above(self):
        for n in range(20, 3000, 7):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(n - stats.rank(p, n), stats.MIN_BEYOND)

    def test_nearest_rank(self):
        values = list(range(1, 41))
        self.assertEqual(stats.percentile(values, 50), 20)
        self.assertEqual(stats.percentile(values, 75), 30)
        self.assertEqual(stats.percentile([7.0], 99.9), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["bench.unit", 0.0, 10.0, -1, 0],
            ["chaos.run", 1.0, 4.0, 0, 0],
            ["sim.run_until", 2.0, 3.0, 1, 0],
            ["sim.run_until", 5.0, 9.0, 0, 0],
        ]
        self.assertEqual(stats.self_times(spans),
                         {"bench": 3.0, "chaos": 2.0, "sim": 5.0})

    def test_self_times_sum_to_root_time(self):
        spans = [
            ["bench.setup", 0.0, 2.0, -1, -1],
            ["desi.generate", 0.5, 1.5, 0, -1],
            ["bench.unit", 3.0, 7.0, -1, 0],
            ["check.audit", 3.5, 6.0, 2, 0],
            ["check.plan", 4.0, 5.0, 3, 0],
        ]
        self.assertAlmostEqual(sum(stats.self_times(spans).values()), 6.0)


def histogram(bounds, counts, maximum):
    buckets = [{"le": b, "count": c} for b, c in zip(bounds, counts)]
    buckets.append({"le": None, "count": counts[-1]})
    return {"buckets": buckets, "max": maximum}


class PooledHistograms(unittest.TestCase):
    def test_pooled_percentiles_use_all_tenants(self):
        a = histogram([10.0, 20.0, 30.0], [5, 0, 0, 0], 9.0)
        b = histogram([10.0, 20.0, 30.0], [0, 0, 5, 0], 28.0)
        merged = stats.merge_histograms([a, b])
        self.assertEqual(merged["counts"], [5, 0, 5, 0])
        self.assertEqual(stats.histogram_percentile(merged, 50), 10.0)
        self.assertEqual(stats.histogram_percentile(merged, 60), 30.0)
        self.assertEqual(stats.histogram_percentile(merged, 90), 30.0)

    def test_overflow_bucket_reports_observed_max(self):
        a = histogram([10.0], [1, 9], 5000.0)
        b = histogram([10.0], [0, 10], 7000.0)
        merged = stats.merge_histograms([a, b])
        self.assertEqual(stats.histogram_percentile(merged, 5), 10.0)
        self.assertEqual(stats.histogram_percentile(merged, 99), 7000.0)

    def test_rejects_mixed_bounds_and_nothing(self):
        with self.assertRaises(ValueError):
            stats.merge_histograms([histogram([1.0], [1, 0], 1.0),
                                    histogram([2.0], [1, 0], 1.0)])
        with self.assertRaises(ValueError):
            stats.merge_histograms([])


class AtReference(unittest.TestCase):
    def test_contention_that_slows_both_cancels(self):
        # The same 40 ms unit on a core slowed 1x, 1.5x and 1.25x.
        cpu = [[40.0], [60.0], [50.0]]
        ref = [[20.0], [30.0], [25.0]]
        self.assertEqual(stats.at_reference(cpu, ref, 20.0, 8), [40.0])

    def test_one_disturbed_kernel_run_is_outvoted(self):
        cpu = [[40.0] * 5]
        ref = [[20.0, 20.0, 40.0, 20.0, 20.0]]
        self.assertEqual(stats.at_reference(cpu, ref, 20.0, 2), [40.0] * 5)

    def test_window_follows_a_change_within_a_pass(self):
        # The core slows to half speed from the third unit on.
        cpu = [[10.0, 10.0, 20.0, 20.0]]
        ref = [[5.0, 5.0, 10.0, 10.0]]
        self.assertEqual(stats.at_reference(cpu, ref, 5.0, 0),
                         [10.0, 10.0, 10.0, 10.0])

    def test_median_over_passes(self):
        cpu = [[40.0], [44.0], [90.0]]
        ref = [[20.0], [20.0], [20.0]]
        self.assertEqual(stats.at_reference(cpu, ref, 20.0, 8), [44.0])

    def test_needs_one_reference_per_time(self):
        with self.assertRaises(ValueError):
            stats.at_reference([[1.0, 2.0]], [[1.0]], 20.0, 8)
        with self.assertRaises(ValueError):
            stats.at_reference([[1.0]], [], 20.0, 8)
        with self.assertRaises(ValueError):
            stats.at_reference([], [], 20.0, 8)


class MetricNames(unittest.TestCase):
    def test_character_set(self):
        for good in ("setup_s", "run_ref_ms.p50", "layer.sim.self_ms",
                     "a" * 64, "9x"):
            self.assertTrue(NAME.fullmatch(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "p99%"):
            self.assertFalse(NAME.fullmatch(bad), bad)
        for good in ("ms", "1/s", "count", "%", "s/s"):
            self.assertTrue(UNIT.fullmatch(good), good)
        for bad in ("", "m s", "x" * 17):
            self.assertFalse(UNIT.fullmatch(bad), bad)

    def test_reported_names_are_valid_and_unique(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for unit in list(run.END_TO_END.values()) + \
                list(run.PER_LAYER.values()):
            self.assertTrue(UNIT.fullmatch(unit), unit)

    def test_benchmark_json_matches_the_report(self):
        spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
