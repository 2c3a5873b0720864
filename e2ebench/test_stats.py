"""Self-tests of the benchmark's own statistics and checks, on fixed inputs.

    python3 e2ebench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_p90_needs_ten_samples_beyond_it(self):
        xs = list(range(100, 0, -1))
        self.assertEqual(stats.tail_percentile(xs, 90), 90)
        self.assertIsNone(stats.tail_percentile(xs[:99], 90))
        self.assertEqual(stats.tail_percentile(list(range(1, 21)), 50), 10)

    def test_blocks_drop_the_short_tail(self):
        self.assertEqual(stats.blocks(list(range(7)), 3), [[0, 1, 2], [3, 4, 5]])
        self.assertEqual(stats.blocks([1, 2], 3), [])

    def test_pair_ratio_is_median_of_per_pair_ratios(self):
        # Per-pair ratios 2, 3, 2: the median of ratios, not the ratio of
        # medians (which would be 3 / 1 = 3).
        self.assertEqual(stats.pair_ratio([(2.0, 1.0), (3.0, 1.0), (4.0, 2.0)]), 2.0)


def solve(solver, rnd, seconds, traced=False, iterations=3, applies=192):
    return {"solver": solver, "round": rnd, "seconds": seconds, "traced": traced,
            "iterations": iterations, "applies": applies}


class Checks(unittest.TestCase):
    def test_service_metrics_are_medians_over_blocks(self):
        # Four 50-request blocks finishing at 1, 2, 3 and 13 s: the stalled
        # last block sets neither the throughput nor the latencies.
        reqs = []
        for b, (end, ms) in enumerate([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (13.0, 500.0)]):
            start = 0.0 if b == 0 else reqs[-1]["done_s"]
            for i in range(50):
                reqs.append({"cols": 1, "ms": ms + i, "done_s": start + (end - start) * (i + 1) / 50})
        m = run.service_metrics(reqs)
        self.assertAlmostEqual(m["svc_cols_per_s"][0], 50.0)
        self.assertEqual(m["svc_req_p50_ms"][0], (20.0 + 24.5 + 30.0 + 24.5) / 2)
        # 100-request blocks: {10..59, 20..69} and {30..79, 500..549}; their
        # nearest-rank p90s are 59 and 539, and the median is their mean.
        self.assertEqual(m["svc_req_p90_ms"][0], (59.0 + 539.0) / 2)

    def test_pairs_are_selected_by_ratio(self):
        raw = {"library": {"pairs": [
            {"ratio": "f3r_fp16_speedup", "num": 4.0, "den": 2.0},
            {"ratio": "f3r_fp16_vs_fp32", "num": 3.0, "den": 2.0},
            {"ratio": "f3r_fp16_speedup", "num": 3.0, "den": 3.0},
        ]}}
        self.assertEqual(run.pairs(raw, "f3r_fp16_speedup"), [(4.0, 2.0), (3.0, 3.0)])

    def test_traced_counts_must_match_untraced(self):
        same = {"library": {"solves": [
            solve("f3r_fp64", 0, 1.0), solve("f3r_fp64", 0, 1.1, traced=True)]}}
        self.assertEqual(run.count_mismatches(same), [])
        moved = {"library": {"solves": [
            solve("f3r_fp64", 0, 1.0),
            solve("f3r_fp64", 0, 1.1, traced=True, applies=256)]}}
        self.assertEqual(run.count_mismatches(moved), ["f3r_fp64"])


if __name__ == "__main__":
    unittest.main()
