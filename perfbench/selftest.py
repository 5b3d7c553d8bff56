"""Self-test for the benchmark's own arithmetic.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import json
import unittest
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import checks
import run
import stats
from reference import NOMINAL_S
from run import (
    END_TO_END,
    PER_LAYER,
    OpResult,
    end_to_end_metrics,
    layer_totals,
    per_layer_metrics,
)
from workloads import Op
from spans import Span, self_times, top_level_covered

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10) with children [1, 4) and [5, 9); the second child has
        # a grandchild [6, 7) and an overlapping one [6.5, 8)
        spans = [
            Span("extremal.min_weakly_spreading", 0, 10, None, {}),
            Span("core.build_system", 1, 4, 0, {}),
            Span("closure.is_weakly_spreading", 5, 9, 0, {}),
            Span("core.build_system", 6, 7, 2, {}),
            Span("core.build_system", 6.5, 8, 2, {}),
        ]
        self.assertEqual(self_times(spans), [3, 3, 2, 1, 1.5])
        self.assertEqual(top_level_covered(spans), 10)

    def test_layer_totals(self):
        spans = [
            Span("extremal.min_weakly_spreading", 0, 10, None, {"nodes": 100}),
            Span("closure.is_weakly_spreading", 2, 3, 0, {"seeds": 7}),
            Span("closure.closure", 20, 21, None, {"size": 9}),
        ]
        tot = layer_totals(spans, weight=0.5)
        self.assertEqual(tot["self.extremal"], 4.5)
        self.assertEqual(tot["self.closure"], 1.0)
        self.assertEqual(tot["closure.in_search_calls"], 0.5)
        self.assertEqual(tot["closure.in_search_s"], 0.5)
        self.assertEqual(tot["work.nodes"], 50)
        self.assertEqual(tot["covered"], 5.5)


class Tail(unittest.TestCase):
    def test_percentile_from_sample_count(self):
        cases = {
            19: None,
            20: Fraction(50),
            39: Fraction(50),
            40: Fraction(75),
            100: Fraction(90),
            199: Fraction(90),
            200: Fraction(95),
            1000: Fraction(99),
            10000: Fraction(999, 10),
        }
        for count, expected in cases.items():
            self.assertEqual(stats.tail_percentile(count), expected, count)

    def test_at_least_ten_beyond(self):
        for count in range(1, 2500):
            pct = stats.tail_percentile(count)
            if pct is None:
                continue
            values = list(range(count))
            value = stats.nearest_rank(values, pct)
            self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_nearest_rank(self):
        self.assertEqual(stats.nearest_rank([1, 2, 3, 4], Fraction(50)), 2)
        self.assertEqual(stats.nearest_rank(list(range(1, 101)), Fraction(90)), 90)


class Checks(unittest.TestCase):
    def test_lex_rank(self):
        for n, k in ((7, 3), (6, 2), (8, 4)):
            for i, combo in enumerate(combinations(range(n), k)):
                self.assertEqual(checks.lex_rank(combo, n), i)

    def test_close_and_neighbourhood(self):
        table = checks.pair_table([(0, 1, 2), (0, 3, 4), (1, 3, 5)])
        self.assertEqual(checks.close(table, {0, 1, 3}), {0, 1, 2, 3, 4, 5})
        self.assertEqual(checks.neighbourhood(table, {0, 1, 3}), {2, 4, 5})


class Normalisation(unittest.TestCase):
    def test_op_scaled_by_references_around_it(self):
        refs = iter([2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S])
        ticks = iter([10.0, 13.0, 20.0, 21.0])
        ops = [Op("a", lambda _: 1, lambda _: None), Op("b", lambda _: 2, lambda _: None)]
        saved = run.reference_seconds, run.time.perf_counter
        run.reference_seconds, run.time.perf_counter = lambda: next(refs), lambda: next(ticks)
        try:
            batch = run.run_batch(ops, None, stop_at=1000.0)
        finally:
            run.reference_seconds, run.time.perf_counter = saved
        self.assertEqual([r.seconds for r in batch], [3.0, 1.0])
        # a ran between references of 2 and 4 nominal, b between 4 and 1
        self.assertAlmostEqual(batch[0].norm, 1.0)
        self.assertAlmostEqual(batch[1].norm, 0.4)


class MetricTable(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    def test_end_to_end_names_and_units(self):
        batch = [OpResult("a", 9, 0.5, None, True), OpResult("b", 9, 1.5, None, False)]
        slow = [OpResult("a", 9, 0.7, None, True), OpResult("b", 9, 9.0, None, False)]
        metrics = end_to_end_metrics(
            [batch, batch, slow], [(9, 0.2), (9, 0.3), (9, 0.4)], 10.0
        )
        self.assertEqual(metrics["wall_norm_s"], 2.0)
        self.assertEqual(metrics["op_p50_norm_ms"], 500.0)
        self.assertEqual(metrics["setup_s"], 0.3)
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(metrics), set(declared))
        self.assertEqual(END_TO_END, declared)

    def test_per_layer_names_and_units(self):
        metrics = per_layer_metrics({}, 1.0, 0.0, 0.1, 0.2, 0.0)
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(set(metrics), set(declared))
        self.assertEqual(PER_LAYER, declared)


if __name__ == "__main__":
    unittest.main()
