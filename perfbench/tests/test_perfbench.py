"""Tests of the benchmark's own logic, and a reduced-pass smoke run of every workload.

    python3 -m unittest discover -s perfbench/tests

The smoke runs build the driver (into .bench_build/perfbench) on first use and run one
pass of each workload, so they take about half a minute once built.
"""

import collections
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def hist(buckets, max_ns=0):
    """A histogram with the given {bucket index: count} filled in."""
    b = [0] * 40
    for i, n in buckets.items():
        b[i] = n
    return {"count": sum(b), "sum_ns": 0, "max_ns": max_ns, "buckets": b}


def app_run(app, par_s, wall_s, counters=None, spans=None):
    return {"app": app, "par_s": par_s, "wall_s": wall_s, "verified": True,
            "wire_bytes": 4000, "wire_packets": 40, "recv_bytes_copied": 0,
            "counters": collections.defaultdict(int, counters or {}), "spans": spans or {}}


def a_pass(index, traced, apps):
    return {"pass": index, "seed": index, "traced": traced, "wall_s": 0,
            "peak_rss_kb": 1024 * (index + 1), "apps": apps}


class QuartileTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [0.21, 0.19, 0.25, 0.2, 0.22, 0.18, 0.3, 0.2, 0.24, 0.23]
        self.assertEqual(metrics.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = metrics.quartiles(values)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        self.assertAlmostEqual(q2, statistics.median(values))

    def test_even_count_median_is_midpoint(self):
        self.assertEqual(metrics.quartiles([4, 1, 3, 2])[1], 2.5)

    def test_single_value_is_every_quartile(self):
        # statistics.quantiles needs two values; one pass must still report.
        self.assertEqual(metrics.quartiles([5.0]), (5.0, 5.0, 5.0))


class HistogramPercentileTest(unittest.TestCase):
    def test_empty_is_zero(self):
        self.assertEqual(metrics.hist_percentile_ns(hist({}), 0.5), 0)

    def test_upper_bound_of_bucket(self):
        # Bucket i holds [2^(i-1), 2^i): ten samples of 4-7 ns report 8 ns.
        h = hist({3: 10})
        self.assertEqual(metrics.hist_percentile_ns(h, 0.5), 8)
        self.assertEqual(metrics.hist_percentile_ns(h, 0.99), 8)

    def test_zeros_report_one_ns(self):
        self.assertEqual(metrics.hist_percentile_ns(hist({0: 5}), 0.5), 1)

    def test_p50_and_p99_split(self):
        h = hist({10: 98, 20: 2})
        self.assertEqual(metrics.hist_percentile_ns(h, 0.5), 1 << 10)
        self.assertEqual(metrics.hist_percentile_ns(h, 0.98), 1 << 10)
        self.assertEqual(metrics.hist_percentile_ns(h, 0.99), 1 << 20)

    def test_overflow_bucket_reports_max(self):
        h = hist({5: 1, 39: 1}, max_ns=123456789)
        self.assertEqual(metrics.hist_percentile_ns(h, 0.99), 123456789)

    def test_merge_adds_buckets_and_keeps_max(self):
        a, b = hist({3: 2}, max_ns=7), hist({3: 1, 9: 4}, max_ns=300)
        a["sum_ns"], b["sum_ns"] = 10, 1000
        m = metrics.merge_hists([a, b])
        self.assertEqual(m["count"], 7)
        self.assertEqual(m["sum_ns"], 1010)
        self.assertEqual(m["max_ns"], 300)
        self.assertEqual(m["buckets"][3], 3)
        self.assertEqual(m["buckets"][9], 4)
        self.assertEqual(metrics.merge_hists([])["count"], 0)


class MetricTest(unittest.TestCase):
    def setUp(self):
        spans = {"acquire_wait": {**hist({12: 10}), "sum_ns": 40000},
                 "grant_build": {**hist({10: 10}), "sum_ns": 8000},
                 "barrier_apply": {**hist({20: 4}), "sum_ns": 4_000_000}}
        self.untraced = [a_pass(i, False, [app_run("sor", 0.2 + i / 100, 0.3 + i / 100,
                                                   {"data_bytes_sent": 2_000_000})])
                         for i in range(0, 6, 2)]
        self.traced = [a_pass(i, True, [app_run("sor", 0.25, 0.4,
                                                {"lock_acquires": 10,
                                                 "lock_acquires_local": 4,
                                                 "clean_dirtybits_read": 30,
                                                 "dirty_dirtybits_read": 10}, spans)])
                       for i in range(1, 6, 2)]

    def test_end_to_end_values(self):
        e = metrics.end_to_end(self.untraced)
        self.assertAlmostEqual(e["pass_s"], 0.22)
        self.assertAlmostEqual(e["setup_s"], 0.1)
        self.assertAlmostEqual(e["data_mb"], 2.0)
        self.assertAlmostEqual(e["wire_mb"], 0.004)
        self.assertEqual(e["msgs"], 40)
        # Peak RSS once the first pass has run (1 MB), not at the end of the run (5 MB).
        self.assertEqual(e["rss_mb"], 1.0)

    def test_per_layer_values(self):
        p = metrics.per_layer(self.untraced, self.traced)
        self.assertAlmostEqual(p["apps.sor.par_s"], 0.25)
        self.assertEqual(p["apps.water.par_s"], 0.0)
        self.assertAlmostEqual(p["core.acquire_local_share"], 0.4)
        self.assertAlmostEqual(p["core.collect.dirty_share"], 0.25)
        self.assertEqual(p["core.lines_scanned"], 40)
        self.assertEqual(p["core.acquire_wait.n"], 10)
        self.assertAlmostEqual(p["core.acquire_wait.attributed_share"], 0.2)
        self.assertAlmostEqual(p["core.grant_build.mean_us"], 0.8)
        self.assertAlmostEqual(p["core.barrier_apply.per_proc_s"], 4e-3 / metrics.PROCS)
        self.assertAlmostEqual(p["obs.trace_overhead"], 0.25 / 0.22 - 1)
        self.assertEqual(p["net.bytes_per_msg"], 100)

    def test_names_and_units_match_benchmark_json(self):
        spec = load_benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, metrics.PER_LAYER)
        self.assertEqual(set(metrics.end_to_end(self.untraced)), set(metrics.END_TO_END))
        self.assertEqual(set(metrics.per_layer(self.untraced, self.traced)),
                         set(metrics.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(metrics.FINGERPRINTS))

    def test_fingerprint_flags_drift(self):
        ranges = dict(zip(metrics.FINGERPRINT_COUNTERS, metrics.FINGERPRINTS["rt-barriers"]["sor"]))
        ok = {name: lo for name, (lo, hi) in ranges.items()}
        self.assertEqual(metrics.fingerprint_problems(
            "rt-barriers", [a_pass(0, False, [app_run("sor", 1, 1, ok)])]), [])
        drifted = dict(ok, barrier_crossings=ranges["barrier_crossings"][1] + 1)
        problems = metrics.fingerprint_problems(
            "rt-barriers", [a_pass(0, False, [app_run("sor", 1, 1, drifted)])])
        self.assertEqual(len(problems), 1)
        self.assertIn("barrier_crossings", problems[0])


class SmokeTest(unittest.TestCase):
    """One pass of each workload through run.py, checked like a full run."""

    def run_bench(self, workload, trace, min_passes):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "0", "--trace", str(trace),
             "--min-passes", str(min_passes)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.splitlines()[-1])

    def test_each_workload_end_to_end(self):
        for w in load_benchmark_json()["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.run_bench(w["name"], trace=0, min_passes=1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 metrics.END_TO_END)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = self.run_bench("rt-locks", trace=1, min_passes=2)
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         metrics.PER_LAYER)
        self.assertGreater(result["metrics"]["core.acquire_wait.n"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
