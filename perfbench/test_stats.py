"""Tests for the benchmark's statistics and output (perfbench/stats.py, run.py).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402

E2E_WORKLOAD = {"target_accuracy": 0.85, "accuracy_floor": 0.75}
# The span names the traced driver prints (traced.cpp kSpanNames).
SPANS = ("worker.compute_and_pack_us", "worker.apply_model_diff_us",
         "nn.forward_us", "nn.backward_us", "sparse.algo_step_us",
         "sparse.up_encode_us", "sparse.down_decode_us",
         "server.handle_push_us", "comm.send_push_us",
         "comm.server_recv_wait_us", "comm.send_reply_us",
         "comm.reply_wait_us", "eval.pass_us")


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = stats.quartiles(values)
        expected = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (expected[0], expected[2]))
        self.assertEqual(med, 4.0)

    def test_even_count_median_is_midpoint(self):
        self.assertEqual(stats.quartiles([1, 2, 3, 4])[1], 2.5)

    def test_single_value_and_empty(self):
        self.assertEqual(stats.quartiles([3.5]), (3.5, 3.5, 3.5))
        self.assertIsNone(stats.quartiles([]))


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(101))  # 0..100
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 99), 99.0)
        self.assertAlmostEqual(stats.percentile([0, 10], 25), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_beyond_the_reported_percentile(self):
        # 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        # 999 samples: p99 has 9.99 beyond it, so p95 is reported.
        self.assertEqual(stats.tail_percentile(list(range(999)))[0], 95.0)
        pct, value = stats.tail_percentile(list(range(10000)))
        self.assertEqual(pct, 99.9)
        self.assertAlmostEqual(value, stats.percentile(range(10000), 99.9))

    def test_small_samples(self):
        self.assertEqual(stats.tail_percentile(list(range(40)))[0], 75.0)
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)
        # Fewer than 20: no percentile qualifies; the maximum is reported.
        self.assertEqual(stats.tail_percentile([3, 9, 1]), (None, 9.0))
        self.assertEqual(stats.tail_percentile([]), (None, 0.0))


class FailureCountTest(unittest.TestCase):
    def test_errors_and_failed_checks_count(self):
        runs = [
            {"ok": True},
            {"ok": False},                  # failed a correctness check
            {"error": "driver exit -9"},    # crashed or timed out
            {"ok": True, "error": "boom"},  # an error overrides ok
            {},                             # never checked
        ]
        self.assertEqual(stats.count_failures(runs), (5, 4))
        self.assertEqual(stats.count_failures([{"ok": True}] * 3), (3, 0))

    def test_crashed_driver_counts_the_interrupted_run(self):
        records = [{"kind": "run", "index": 0, "error": "bad alloc"}]
        values, _, correct, attempted, failed = run.summarize_e2e(
            records, code=-9, timed_out=True, workload=E2E_WORKLOAD)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertEqual(values["run_success_fraction"], 0.0)


class CrossingTimeTest(unittest.TestCase):
    def test_interpolates_between_evaluations(self):
        curve = [(1.0, 0.5), (2.0, 0.9)]
        self.assertAlmostEqual(stats.crossing_time(curve, 0.7), 1.5)

    def test_first_point_and_never(self):
        self.assertEqual(stats.crossing_time([(1.0, 0.8)], 0.7), 1.0)
        self.assertIsNone(stats.crossing_time([(1.0, 0.5), (2.0, 0.6)], 0.7))


def fake_e2e_records(accuracies):
    records = []
    for i, acc in enumerate(accuracies):
        records.append({
            "kind": "run", "index": i, "seed": i + 1,
            "setup_s": 0.03 + i * 1e-3, "run_s": 1.0 + 0.1 * i,
            "data_fp": "%016x" % i, "samples": 32768,
            "final_test_accuracy": acc, "finite": True,
            "up_bytes_per_element": 8.05, "down_bytes_per_element": 6.9,
            "curve": [[0.1, 0.6], [0.2, acc]],
        })
    records.append({"kind": "summary", "repeat_data_fp": "%016x" % 0,
                    "rss_self_mb": 20.5, "rss_children_mb": 0.0})
    return records


def fake_traced_record():
    return {
        "kind": "traced", "workers": 8, "steps": 100, "steps_on": 64,
        "steps_off": 64, "seconds_on": 1.02, "seconds_off": 1.0,
        "spans": {name: [float(i + 1) for i in range(50)] for name in SPANS},
        "phase_us_on": {p: 10.0 for p in (
            "fwd_bwd", "sparsify_select", "encode", "wire", "server_apply",
            "reply_encode", "decode_apply")},
        "generate_s": [0.03, 0.031, 0.029], "data_reproducible": True,
        "data_seed_changes": True, "engine_staleness_p95": 6.5,
        "push_density_mean": 0.1, "reply_nnz": 5, "reply_dense": 10,
        "server_state_mb": 1.8, "on_wire": True,
        "driver_bytes": {"up": 10, "down": 20},
        "server_bytes": {"up": 10, "down": 20},
        "client_bytes": {"up": 10, "down": 20},
        "comm_failures": 0, "eq5_max_abs_diff": 1e-6,
        "eq5_violations": 0, "finite": True, "final_test_accuracy": 0.8,
        "ok": True,
    }


class OutputTest(unittest.TestCase):
    def test_every_declared_end_to_end_metric_is_printed_with_its_unit(self):
        declared = load_benchmark()["end_to_end"]
        values, _, correct, attempted, failed = run.summarize_e2e(
            fake_e2e_records([0.9, 0.88, 0.91]), code=0, timed_out=False,
            workload=E2E_WORKLOAD)
        self.assertTrue(correct)
        line = stats.result_line(declared, values, correct, attempted, failed)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
            self.assertNotEqual(line["metrics"][m["name"]]["value"], 0.0)
        # Median over the three runs' crossings of 0.85.
        self.assertAlmostEqual(line["metrics"]["time_to_target_s"]["value"],
                               0.1 + 0.1 * (0.25 / 0.3))

    def test_accuracy_below_floor_fails_the_run(self):
        _, _, correct, attempted, failed = run.summarize_e2e(
            fake_e2e_records([0.9, 0.7, 0.91]), code=0, timed_out=False,
            workload={"target_accuracy": 0.65, "accuracy_floor": 0.75})
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (3, 1))

    def test_target_never_reached_fails_the_run(self):
        _, _, correct, _, failed = run.summarize_e2e(
            fake_e2e_records([0.9, 0.8]), code=0, timed_out=False,
            workload=E2E_WORKLOAD)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)

    def test_repeated_dataset_is_incorrect(self):
        records = fake_e2e_records([0.9, 0.9])
        records[1]["data_fp"] = records[0]["data_fp"]
        self.assertFalse(run.summarize_e2e(
            records, code=0, timed_out=False, workload=E2E_WORKLOAD)[2])

    def test_every_declared_per_layer_metric_is_printed_with_its_unit(self):
        declared = load_benchmark()["per_layer"]
        values, _, correct, attempted, failed = run.summarize_traced(
            [fake_traced_record()], code=0, timed_out=False,
            workload={"accuracy_floor": 0.5})
        self.assertTrue(correct)
        line = stats.result_line(declared, values, correct, attempted, failed)
        self.assertEqual(list(line["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        self.assertAlmostEqual(
            line["metrics"]["obs.trace_overhead_frac"]["value"], 0.02)

    def test_bytes_disagreeing_with_the_byte_counter_are_incorrect(self):
        record = fake_traced_record()
        record["server_bytes"] = {"up": 11, "down": 20}
        self.assertFalse(run.summarize_traced(
            [record], code=0, timed_out=False,
            workload={"accuracy_floor": 0.5})[2])

    def test_worker_byte_check_binds_only_with_separate_counters(self):
        record = fake_traced_record()
        record["client_bytes"] = {"up": 10, "down": 21}
        self.assertFalse(run.summarize_traced(
            [record], code=0, timed_out=False,
            workload={"accuracy_floor": 0.5})[2])
        # The channel transport has no worker-end counter: no check to fail.
        record["client_bytes"] = None
        self.assertTrue(run.summarize_traced(
            [record], code=0, timed_out=False,
            workload={"accuracy_floor": 0.5})[2])

    def test_missing_or_undeclared_metric_is_refused(self):
        declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
        for values in ({"a": 1.0}, {"a": 1.0, "b": 2.0, "c": 3.0},
                       {"a": 1.0, "b": float("nan")}):
            with self.assertRaises(ValueError):
                stats.result_line(declared, values, True, 1, 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_workloads_and_layer_map_agree_with_benchmark_json(self):
        bench = load_benchmark()
        with open(os.path.join(HERE, "workloads.json")) as f:
            config = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(config["workloads"]))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        per_layer = {m["name"] for m in bench["per_layer"]}
        end_to_end = set(bounds)
        for entry in config["layer_map"]:
            metric = entry["layer_metric"]
            self.assertTrue(metric in per_layer or metric + ".p50" in per_layer,
                            metric)
            if entry["end_to_end"] is not None:
                self.assertIn(entry["end_to_end"], end_to_end)
                self.assertIn(entry["workload"], config["workloads"])


if __name__ == "__main__":
    unittest.main()
