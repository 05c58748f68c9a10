"""Tests of the benchmark's own helpers.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The op-list fingerprint test runs the load generator's `ops` mode and is
skipped until run.py has built it.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pbstats  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(pbstats.percentile(range(20), 0.5), 9)
        self.assertIsNone(pbstats.percentile(range(19), 0.5))
        self.assertEqual(pbstats.percentile(range(100), 0.9), 89)
        self.assertIsNone(pbstats.percentile(range(99), 0.9))
        self.assertIsNone(pbstats.percentile(range(999), 0.99))
        self.assertEqual(pbstats.percentile(range(1000), 0.99), 989)

    def test_min_samples(self):
        self.assertEqual(pbstats.min_samples(0.5), 20)
        self.assertEqual(pbstats.min_samples(0.9), 100)
        self.assertEqual(pbstats.min_samples(0.99), 1000)

    def test_order_of_input_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(pbstats.percentile(samples, 0.5), 3.0)
        self.assertEqual(pbstats.percentile(sorted(samples), 0.5), 3.0)

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            pbstats.percentile(range(100), 1.0)

    def test_workload_floors_cover_the_reported_percentiles(self):
        # Rounds each workload completes per run, times pure checks per
        # round (load/ops.cpp), must reach the p90 floor; check_flood p99.
        self.assertGreaterEqual(1000, pbstats.min_samples(0.99))
        self.assertGreaterEqual(100 * 1, pbstats.min_samples(0.9))  # interactive_large
        self.assertGreaterEqual(20 * 5, pbstats.min_samples(0.9))  # update_cycle
        self.assertGreaterEqual(20, pbstats.min_samples(0.5))  # fix, generate


METRICS_BEFORE = """\
# TYPE jinjing_svc_jobs_done_total counter
jinjing_svc_jobs_done_total 10
jinjing_svc_queue_wait_micros_bucket{le="1"} 2
jinjing_svc_queue_wait_micros_sum 500
jinjing_svc_queue_wait_micros_count 10
jinjing_svc_head_version 3
"""

METRICS_AFTER = """\
# TYPE jinjing_svc_jobs_done_total counter
jinjing_svc_jobs_done_total 30
jinjing_svc_queue_wait_micros_bucket{le="1"} 5
jinjing_svc_queue_wait_micros_sum 2500
jinjing_svc_queue_wait_micros_count 30
jinjing_svc_head_version 7

jinjing_svc_batch_jobs_coalesced_total 18
"""


class MetricsDeltaTest(unittest.TestCase):
    def test_parses_samples_and_skips_comments(self):
        series = pbstats.parse_prometheus(METRICS_BEFORE)
        self.assertEqual(series["jinjing_svc_jobs_done_total"], 10)
        self.assertEqual(series['jinjing_svc_queue_wait_micros_bucket{le="1"}'], 2)
        self.assertEqual(len(series), 5)

    def test_delta_over_window(self):
        d = pbstats.metrics_delta(METRICS_BEFORE, METRICS_AFTER)
        self.assertEqual(d["jinjing_svc_jobs_done_total"], 20)
        self.assertEqual(d["jinjing_svc_head_version"], 4)
        # A series first exported after the window opened counts from 0.
        self.assertEqual(d["jinjing_svc_batch_jobs_coalesced_total"], 18)
        mean_wait_us = pbstats.ratio(d["jinjing_svc_queue_wait_micros_sum"],
                                     d["jinjing_svc_queue_wait_micros_count"])
        self.assertEqual(mean_wait_us, 100)

    def test_malformed_line(self):
        with self.assertRaises(ValueError):
            pbstats.parse_prometheus("justonetoken\n")

    def test_layer_metrics_from_deltas(self):
        raw = {
            "metrics_before": METRICS_BEFORE,
            "metrics_after": METRICS_AFTER,
            "latency_ms": {k: [] for k in ("check", "control_check", "fix", "generate", "apply")},
            "wire": {"check_request_bytes": 0, "check_response_bytes": 0, "checks": 0},
            "server_cpu_s": 3.0,
            "window_s": 2.0,
        }
        replay = {"layers": {"config.parse_acl_ms": {"ms": 6.0, "calls": 3, "per": 3}},
                  "wall_s": 0.5}
        m = run.layer_metrics(raw, replay, {"check_p50_ms": 10.0})
        self.assertEqual(m["svc.coalesced_share"], 18 / 20)
        self.assertEqual(m["svc.queue_wait_ms_mean"], 0.1)
        self.assertEqual(m["svc.server_cpu_per_wall"], 1.5)
        self.assertEqual(m["config.parse_acl_ms"], 2.0)
        self.assertEqual(m["core.fixer.fix_ms"], 0)  # never called
        self.assertEqual(m["client.fix_p50_ms"], 0)  # no fixes
        # parse_acl 2 ms + queue wait 0.1 ms of a 10 ms check.
        self.assertAlmostEqual(m["unattributed_share"], 1 - 2.1 / 10)
        self.assertEqual(set(m), {name for name, _ in run.PER_LAYER})


class FingerprintTest(unittest.TestCase):
    def test_fnv1a64(self):
        self.assertEqual(pbstats.fnv1a64([]), "cbf29ce484222325")  # offset basis
        self.assertEqual(pbstats.fnv1a64(["a", "b"]), pbstats.fnv1a64(["a", "b"]))
        self.assertNotEqual(pbstats.fnv1a64(["a", "b"]), pbstats.fnv1a64(["b", "a"]))
        self.assertNotEqual(pbstats.fnv1a64(["ab"]), pbstats.fnv1a64(["a", "b"]))

    @unittest.skipUnless(os.path.isfile(os.path.join(run.BUILD_DIR, "perfbench_load")),
                         "load generator not built (run perfbench/run.py once)")
    def test_op_list_fingerprint_is_stable_per_seed(self):
        load = os.path.join(run.BUILD_DIR, "perfbench_load")

        def fingerprint(workload, seed):
            out = subprocess.run([load, "ops", "--workload", workload, "--seed", str(seed),
                                  "--rounds", "3"], capture_output=True, text=True, check=True)
            return pbstats.fnv1a64(json.loads(out.stdout)["op_lines"])

        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(fingerprint(workload, 1), fingerprint(workload, 1))
                self.assertNotEqual(fingerprint(workload, 1), fingerprint(workload, 2))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        median, q1, q3, spread = pbstats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((median, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(spread, 1.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        # update_cycle runs on request but is not gated (see README.md).
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "update_cycle"])


if __name__ == "__main__":
    unittest.main()
