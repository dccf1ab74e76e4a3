#!/usr/bin/env python3
"""Tests of the benchmark's own code: the summary statistics, the metric
set against BENCHMARK.json, and run.py's refusal outside a source tree.

    python3 perfbench/test_summary.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import summary  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def make_record(round_ms, traced=None, stage_ms=None, segment_rounds=None):
    """A raw driver record with `len(round_ms)` rounds and 5 queries a round.

    Fresh times and query times count up from 0 in round order.
    """
    n = len(round_ms)
    segment_rounds = segment_rounds or [n]
    stage_ms = stage_ms or {s: [1.0] * n for s in summary.STAGES}
    queries = 5 * n
    return {
        "elements_per_round": 1_000_000,
        "setup_s": [0.2, 0.1, 0.3],
        "segment_rounds": segment_rounds,
        "segment_queries": [5 * c for c in segment_rounds],
        "rss_base_kib": 1024,
        "rss_peak_kib": 3072,
        "traced": traced or [0] * n,
        "round_ms": round_ms,
        "fresh_ms": [float(i) for i in range(n)],
        "stage_ms": stage_ms,
        "frame_kib": [80.0, 81.0],
        "query_us": [float(i) for i in range(queries)],
        "query_kind": ["Quantile"] * queries,
        "query_traced": [1] * queries,
        "local_us": [1.0, 2.0],
        "local_kind": ["Quantile", "Quantile"],
        "direct_meps": [1.0, 2.0, 3.0],
        "batches": 100,
        "stalls": 5,
        "ships": 10,
        "shard_skew": 1.25,
        "revive": {"count": 20, "sum_ns": 40_000},
        "merge": {"count": 10, "sum_ns": 5_000_000},
        "checkpoint": {"count": 0, "sum_ns": 0},
    }


class PercentileTest(unittest.TestCase):
    def test_tail_refused_with_fewer_than_ten_beyond(self):
        with self.assertRaises(summary.TailRefused):
            summary.percentile(list(range(199)), 95)
        with self.assertRaises(summary.TailRefused):
            summary.percentile(list(range(999)), 99)
        with self.assertRaises(summary.TailRefused):
            summary.percentile([], 50)

    def test_tail_with_ten_beyond(self):
        self.assertEqual(summary.percentile(list(range(200)), 95), (189, 10))
        self.assertEqual(summary.percentile(list(range(1000)), 99), (989, 10))

    def test_nearest_rank_on_unsorted_input(self):
        self.assertEqual(summary.percentile([5, 1, 4, 2, 3], 50), (3, 2))


class EndToEndTest(unittest.TestCase):
    def test_ingest_meps_is_elements_over_median_round(self):
        record = make_record([30.0] * 100 + [10.0] * 50 + [1000.0] * 50)
        metrics, _ = summary.end_to_end(record)
        # 1e6 elements / median round 30 ms -> 33.3 Melem/s.
        self.assertAlmostEqual(metrics["ingest_meps"]["value"], 1e6 / 30e-3 / 1e6)

    def test_setup_is_median_and_rss_is_peak_minus_base(self):
        metrics, _ = summary.end_to_end(make_record([1.0] * 200))
        self.assertEqual(metrics["setup_s"]["value"], 0.2)
        self.assertEqual(metrics["rss_mib"]["value"], 2.0)

    def test_refuses_a_run_with_too_few_rounds(self):
        with self.assertRaises(summary.TailRefused):
            summary.end_to_end(make_record([1.0] * 199))

    def test_timings_come_from_the_quieter_half_of_segments(self):
        # Segment 0 ran in a slow spell; segments 1 and 2 are kept.
        record = make_record([50.0] * 200 + [10.0] * 200 + [20.0] * 200,
                             segment_rounds=[200, 200, 200])
        self.assertEqual(summary.quiet_segments(record),
                         ([1, 2], [50.0, 10.0, 20.0]))
        metrics, notes = summary.end_to_end(record)
        self.assertAlmostEqual(metrics["ingest_meps"]["value"], 1e6 / 15e-3 / 1e6)
        self.assertEqual(metrics["fresh_p50_ms"]["value"], 399.5)
        self.assertEqual(metrics["query_p50_us"]["value"], 1999.5)
        self.assertIn("50.000 10.000* 20.000* ms", notes[0])


class PerLayerTest(unittest.TestCase):
    def setUp(self):
        # Traced rounds 1, 3, 5; the ingest stage is skewed so the median of
        # the per-round sums differs from the sum of the stage medians.
        stages = {s: [1.0] * 6 for s in summary.STAGES}
        stages["pipeline.ingest"] = [0.0, 1.0, 0.0, 2.0, 0.0, 9.0]
        stages["net.ship"] = [0.0, 5.0, 0.0, 3.0, 0.0, 4.0]
        self.record = make_record([9.0, 11.0, 9.0, 12.0, 9.0, 20.0],
                                  [0, 1, 0, 1, 0, 1], stages)

    def test_sum_ratio_uses_the_stage_table_medians(self):
        rows, round_ms = summary.stage_table(self.record)
        stage = dict(rows)
        self.assertEqual(stage["pipeline.ingest"], 2.0)
        self.assertEqual(stage["net.ship"], 4.0)
        self.assertEqual(round_ms, 12.0)
        metrics, lines = summary.per_layer(self.record)
        # Four stages at 1 ms, ingest 2 ms, ship 4 ms, over a 12 ms round.
        self.assertAlmostEqual(metrics["stages.sum_ratio"]["value"], 10.0 / 12.0)
        self.assertAlmostEqual(metrics["stages.sum_ratio"]["value"],
                               sum(ms for _, ms in rows) / round_ms)
        self.assertTrue(any("pipeline.ingest" in line for line in lines))

    def test_counter_ratios(self):
        metrics, _ = summary.per_layer(self.record)
        self.assertEqual(metrics["net.revives_per_ship"]["value"], 2.0)
        self.assertEqual(metrics["pipeline.stalls_per_batch"]["value"], 0.05)
        self.assertEqual(metrics["wire.revive_us"]["value"], 2.0)
        self.assertEqual(metrics["net.merge_ms"]["value"], 0.5)
        self.assertEqual(metrics["net.checkpoint_ms"]["value"], 0.0)

    def test_overhead_compares_traced_and_untraced_rounds(self):
        metrics, _ = summary.per_layer(self.record)
        self.assertAlmostEqual(metrics["trace.overhead_pct"]["value"],
                               100.0 * (1.0 - 9.0 / 12.0))


class BenchmarkJsonTest(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        record = make_record([1.0] * 200, [0, 1] * 100)
        for section, (metrics, _) in (
                ("end_to_end", summary.end_to_end(record)),
                ("per_layer", summary.per_layer(record))):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = {name: m["unit"] for name, m in metrics.items()}
            self.assertEqual(printed, declared, section)

    def test_workloads_are_the_runners(self):
        # hh-zipf stays runnable by name but is not gated (see README.md).
        gated = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertTrue(set(gated) <= set(run.WORKLOADS), gated)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class RunnerTest(unittest.TestCase):
    def test_fails_without_a_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "hh-zipf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
