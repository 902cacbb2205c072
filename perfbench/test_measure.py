"""Self-tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import layers
import measure


class Percentile(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        with self.assertRaises(ValueError):
            measure.percentile(list(range(199)), 95)
        # 1..200: the 190th value, with ten samples beyond it.
        self.assertEqual(measure.percentile(list(range(1, 201)), 95), 190)

    def test_ten_beyond_for_other_percentiles(self):
        values = list(range(1, 21))
        self.assertEqual(measure.percentile(values, 50), 10)
        with self.assertRaises(ValueError):
            measure.percentile(values[:-1], 50)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(300)]
        self.assertEqual(
            measure.percentile(values, 95), measure.percentile(values[::-1], 95)
        )

    def test_failures_count_as_missing_any_limit(self):
        values = [0.1] * 185 + [math.inf] * 15
        self.assertEqual(measure.percentile(values, 95), math.inf)
        self.assertEqual(measure.percentile([0.1] * 190 + [math.inf] * 10, 95), 0.1)

    def test_quartile_spread(self):
        self.assertAlmostEqual(measure.quartile_spread([10.0] * 10), 0.0)
        # statistics.quantiles' default (exclusive) method: Q1 9.75, Q3 10.25.
        spread = measure.quartile_spread([9, 9, 10, 10, 10, 10, 10, 10, 11, 11])
        self.assertAlmostEqual(spread, 0.05)


def span(sid, parent, start, stop, name="s"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "stop": stop, "attrs": {}}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertAlmostEqual(measure.self_times([span(1, None, 0.0, 2.5)])[1], 2.5)

    def test_children_are_subtracted(self):
        spans = [span(1, None, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 6)]
        own = measure.self_times(spans)
        self.assertAlmostEqual(own[1], 7)
        self.assertAlmostEqual(own[2], 2)

    def test_overlapping_children_count_once(self):
        # Two workers busy at once: their union, not their sum, is covered.
        spans = [span(1, None, 0, 10), span(2, 1, 1, 6), span(3, 1, 4, 8)]
        self.assertAlmostEqual(measure.self_times(spans)[1], 3)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, None, 2, 4), span(2, 1, 1, 3), span(3, 1, 3.5, 9)]
        self.assertAlmostEqual(measure.self_times(spans)[1], 0.5)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span(1, None, 0, 10), span(2, 1, 2, 8), span(3, 2, 3, 7)]
        own = measure.self_times(spans)
        self.assertAlmostEqual(own[1], 4)
        self.assertAlmostEqual(own[2], 2)

    def test_pool_busy_share(self):
        trace = {
            "spans": [
                {**span(1, None, 0, 10, "pool.map"), "attrs": {"workers": 2}},
                span(2, 1, 0, 10, "pool.worker"),
                span(3, 1, 0, 5, "pool.worker"),
            ],
            "counters": [],
        }
        self.assertAlmostEqual(layers.pool_layers(trace, {})["pool.busy_share"], 0.75)

    def test_counters_attributed_to_their_stage(self):
        trace = {
            "spans": [
                {**span(1, None, 0, 10, "pipeline.stage"), "attrs": {"stage": "good-space"}},
                {**span(2, None, 10, 20, "pipeline.stage"), "attrs": {"stage": "evaluate-cat"}},
                span(3, 2, 11, 12, "evaluate.class"),
                {**span(4, None, 20, 30, "pipeline.stage"), "attrs": {"stage": "evaluate-ncat"}},
            ],
            "counters": [
                {"name": "newton_iterations", "span": 1, "total": 5},
                {"name": "newton_iterations", "span": 3, "total": 7},
                {"name": "newton_iterations", "span": 4, "total": 11},
            ],
        }
        self.assertEqual(layers.counter_totals(trace)["newton_iterations"], 23)
        inside = layers.counter_totals(trace, within="evaluate")
        self.assertEqual(inside["newton_iterations"], 18)

    def test_layer_times_account_for_the_analysis(self):
        metrics = dict.fromkeys(layers.LAYER_TIMES, 1.5)
        self.assertAlmostEqual(layers.accounted(metrics, 8.0), 7.5 / 8.0)


class VmHWM(unittest.TestCase):
    STATUS = "Name:\tdotest_cli.exe\nVmPeak:\t  120000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"

    def test_parses_kilobytes_to_megabytes(self):
        self.assertAlmostEqual(measure.vmhwm_mb(self.STATUS), 50.0)

    def test_missing_or_malformed(self):
        with self.assertRaises(ValueError):
            measure.vmhwm_mb("Name:\tx\nVmRSS:\t 1 kB\n")
        with self.assertRaises(ValueError):
            measure.vmhwm_mb("VmHWM:\t 12 MB\n")


class GcStats(unittest.TestCase):
    STDERR = "dotest: done\nminor_words: 283131173\npromoted_words: 11832582\nmajor_words: 13956250\nminor_collections: 1113\n"

    def test_major_words_to_megabytes(self):
        self.assertAlmostEqual(measure.major_words_mb(self.STDERR), 111.65)

    def test_missing(self):
        with self.assertRaises(ValueError):
            measure.major_words_mb("minor_words: 12\n")


class LatencySplit(unittest.TestCase):
    def test_wire_is_the_remainder(self):
        self.assertAlmostEqual(measure.latency_split(0.050, 0.010, 0.022), 0.018)

    def test_queue_lane_and_wire_sum_to_latency(self):
        latency, queue, lane = 1.75, 1.2, 0.5
        wire = measure.latency_split(latency, queue, lane)
        self.assertAlmostEqual(queue + lane + wire, latency)

    def test_never_negative(self):
        # Within the clock slack a negative remainder reads as zero ...
        self.assertEqual(measure.latency_split(0.0300, 0.0102, 0.0200), 0.0)
        # ... beyond it the three numbers cannot describe one request.
        with self.assertRaises(ValueError):
            measure.latency_split(0.030, 0.010, 0.030)
        with self.assertRaises(ValueError):
            measure.latency_split(0.030, -0.001, 0.010)


if __name__ == "__main__":
    unittest.main()
