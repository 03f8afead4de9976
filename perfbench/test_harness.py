"""Self-tests for the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    Measurement, OpenLoop, Reference, Span, Tracer, check_table, golden_diff, parse_tables,
    self_times, tail_percentile,
)

GOLDEN = os.path.join(HERE, os.pardir, "experiment_results_default.txt")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(200), 95)
        self.assertEqual(tail_percentile(1000), 99)
        self.assertEqual(tail_percentile(20), 50)
        self.assertEqual(tail_percentile(99), 89)

    def test_too_few_samples(self):
        self.assertIsNone(tail_percentile(19))


class FakeTime:
    """A clock that moves only when the code under test sleeps or sends."""

    def __init__(self, oversleep=0.0):
        self.now = 0.0
        self.oversleep = oversleep

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds + self.oversleep


class OpenLoopTiming(unittest.TestCase):
    def run_loop(self, service_times, rate, oversleep=0.0):
        fake = FakeTime(oversleep)

        def send(conn, index):
            fake.now += service_times[index]
            return True, index

        loop = OpenLoop(send, connections=1, clock=fake.clock, sleep=fake.sleep)
        return loop.run(len(service_times), rate)

    def test_latency_counts_from_due_time(self):
        # The second request is due at 1.0 but its connection is busy
        # until 2.5; its latency includes that wait.
        sent = self.run_loop([2.5, 0.5, 0.5], rate=1.0)
        self.assertEqual([s.due for s in sent], [0.0, 1.0, 2.0])
        self.assertEqual([s.latency for s in sent], [2.5, 2.0, 1.5])
        self.assertEqual([s.lag for s in sent], [0.0, 0.0, 0.0])

    def test_lateness_is_the_generators_own(self):
        sent = self.run_loop([0.1, 0.1, 0.1], rate=1.0, oversleep=0.25)
        self.assertEqual([round(s.lag, 9) for s in sent], [0.0, 0.25, 0.25])
        self.assertEqual([round(s.latency, 9) for s in sent], [0.1, 0.35, 0.35])


class Rescaling(unittest.TestCase):
    def test_rates_and_medians_use_each_operations_scale(self):
        out = Measurement()
        out.record(2.0, 10, 2.0, 0.5)  # measured on a machine at half speed
        out.record(1.5, 10, 1.5, 1.0)
        out.record(0.5, 10, 0.5, 1.0)
        self.assertEqual(out.rate(normalised=False), 30 / 4.0)
        self.assertEqual(out.rate(normalised=True), 30 / 3.0)
        self.assertEqual(out.p50_ms(normalised=False), 1500.0)
        self.assertEqual(out.p50_ms(normalised=True), 1000.0)
        out.measured_rate = 40.0
        self.assertEqual(out.rate(normalised=True), 40.0)

    def test_scale_is_nominal_over_the_mean_reference_time(self):
        self.assertEqual(Reference.scale(Reference, 0.04, 0.06), Reference.NOMINAL_S / 0.05)


class SelfTime(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        spans = [
            Span(0, "outer", 0.0, 10.0, None, 1),
            Span(1, "left", 1.0, 4.0, 0, 1),
            Span(2, "right", 5.0, 7.0, 0, 1),
            Span(3, "leaf", 2.0, 3.0, 1, 1),
            Span(4, "leaf", 5.5, 6.0, 2, 1),
        ]
        self.assertEqual(
            self_times(spans), {"outer": 5.0, "left": 2.0, "right": 1.5, "leaf": 1.5}
        )

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            Span(0, "parent", 0.0, 4.0, None, 1),
            Span(1, "child", 1.0, 3.0, 0, 2),
            Span(2, "child", 2.0, 3.5, 0, 3),
        ]
        self.assertEqual(self_times(spans)["parent"], 1.5)

    def test_tracer_links_parents_per_thread(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                self.assertEqual(tracer.active(), ["a", "c"])
        parents = {s.name: s.parent for s in tracer.spans}
        self.assertEqual(parents, {"a": None, "b": 0, "c": 0})
        times = tracer.self_times()
        whole = tracer.spans[0].end - tracer.spans[0].start
        self.assertAlmostEqual(sum(times.values()), whole, places=9)


class GoldenComparator(unittest.TestCase):
    def setUp(self):
        with open(GOLDEN) as handle:
            self.golden = handle.read()

    def test_identical_dumps_agree(self):
        self.assertEqual(golden_diff(self.golden, self.golden), [])

    def test_one_digit_in_a_row_fails(self):
        row = "0.0100 |        976 |         59 |   0.4803 |      0.9425 | 0.4622"
        self.assertIn(row, self.golden)
        changed = self.golden.replace(row, row.replace("0.9425", "0.9426"), 1)
        diffs = golden_diff(self.golden, changed)
        self.assertEqual(len(diffs), 1)
        self.assertIn("0.9426", diffs[0])

    def test_changed_wall_time_is_ignored(self):
        changed = self.golden.replace("(wall time 0.7s)", "(wall time 12.3s)", 1)
        self.assertNotEqual(changed, self.golden)
        self.assertEqual(golden_diff(self.golden, changed), [])

    def test_tables_parse_and_gate(self):
        tables = parse_tables(self.golden)
        self.assertEqual(len(tables), 20)
        self.assertEqual(tables["A1"].columns[3:5], ["P_direct", "P_mechanism"])
        for eid, table in tables.items():
            self.assertEqual(check_table(eid, table, table), [])
        bad = parse_tables(self.golden.replace("|   0.4803 |      0.9425 |", "|   1.4803 |      0.9425 |", 1))
        self.assertEqual(len(check_table("A1", bad["A1"], tables["A1"])), 1)


class Catalogue(unittest.TestCase):
    def test_layer_tables_match_benchmark_json(self):
        import layers

        with open(BENCHMARK) as handle:
            listed = [m["name"] for m in json.load(handle)["per_layer"]]
        produced = list(layers.TIME_METRICS.values()) + list(layers.COUNT_METRICS)
        produced += list(layers.RATIO_METRICS) + list(layers.SERVICE_METRICS)
        produced += list(layers.TRACE_METRICS)
        self.assertEqual(
            sorted(n for n in listed if not n.startswith("experiments.")), sorted(produced)
        )


if __name__ == "__main__":
    unittest.main()
