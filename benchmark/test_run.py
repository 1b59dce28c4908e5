#!/usr/bin/env python3
"""Self-test of the runner's statistics, bounds, compare and retry logic,
and of the layer table, on synthetic inputs:  python3 benchmark/test_run.py"""
import json
import os
import statistics
import sys
import tempfile
import textwrap
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import run  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.20},
], "per_layer": [{"name": "server.steals", "unit": "count", "better": "higher"}]}


def result_file(qps, p50, identity=None):
    runs = [{"workload": "hot", "metrics": {
        "qps": {"value": q, "unit": "1/s"},
        "p50_ms": {"value": p, "unit": "ms"},
        "p99_ms": {"value": 3 * p, "unit": "ms"}}} for q, p in zip(qps, p50)]
    return {"identity": identity or {"nproc": 4, "cpu": "x", "compiler": "g",
                                     "build_type": "Release", "git_sha": "a"},
            "runs": runs, "summary": run.summarize(runs)}


class QuantileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(run.spread([2.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, med, q3 = run.quartiles(values)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)


class CompareTest(unittest.TestCase):
    def verdicts(self, a, b):
        rows = run.compare_results(SPEC, a, b)
        self.assertEqual(len(rows), 1)
        return {name: verdict for name, verdict, *_ in rows[0][1]}

    def test_within_bound_is_ok(self):
        a = result_file([100, 101, 99], [10, 10.2, 9.9])
        b = result_file([97, 98, 96], [11, 11.1, 10.9])  # 3% / 10% worse
        self.assertEqual(self.verdicts(a, b),
                         {"qps": "ok", "p50_ms": "ok", "p99_ms": "reported"})

    def test_direction_aware_regression(self):
        a = result_file([100, 101, 99], [10, 10.1, 9.9])
        b = result_file([80, 81, 79], [13, 13.1, 12.9])  # 20% / 30% worse
        self.assertEqual(self.verdicts(a, b),
                         {"qps": "regressed", "p50_ms": "regressed",
                          "p99_ms": "reported"})
        # The mirror image is an improvement on both, not a regression.
        self.assertEqual(self.verdicts(b, a),
                         {"qps": "better", "p50_ms": "better",
                          "p99_ms": "reported"})

    def test_wide_spread_is_unresolved(self):
        a = result_file([100, 150, 60, 130, 70], [10, 10, 10, 10, 10])
        b = result_file([98, 99, 97, 98, 99], [10, 10, 10, 10, 10])
        self.assertEqual(self.verdicts(a, b)["qps"], "unresolved")

    def test_separated_runs_resolve_despite_spread(self):
        a = result_file([100, 150, 60, 130, 70], [10, 10, 10, 10, 10])
        b = result_file([200, 220, 210, 205, 215], [10, 10, 10, 10, 10])
        self.assertEqual(self.verdicts(a, b)["qps"], "better")

    def test_refuses_other_hardware(self):
        a = result_file([100], [10])
        b = result_file([100], [10], {"nproc": 8, "cpu": "x", "compiler": "g",
                                      "build_type": "Release", "git_sha": "b"})
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, data in (("a.json", a), ("b.json", b)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    json.dump(data, f)
            self.assertEqual(run.compare(paths, SPEC), 2)
            # Same hardware, another commit: compared.
            b["identity"] = dict(a["identity"], git_sha="b")
            with open(paths[1], "w") as f:
                json.dump(b, f)
            self.assertEqual(run.compare(paths, SPEC), 0)


class ResultLineTest(unittest.TestCase):
    RESULT = {"correct": True, "attempted": 10, "failed": 0, "exit_code": 0,
              "metrics": {"qps": {"value": 1.0, "unit": "1/s"},
                          "p50_ms": {"value": 2.0, "unit": "ms"},
                          "server.steals": {"value": 3, "unit": "count"}}}

    def test_selects_the_mode_metrics(self):
        line = run.result_line(SPEC, self.RESULT, trace=False)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"qps", "p50_ms"})
        line = run.result_line(SPEC, self.RESULT, trace=True)
        self.assertEqual(set(line["metrics"]), {"server.steals"})

    def test_missing_metric_is_an_error(self):
        result = dict(self.RESULT, metrics={"qps": {"value": 1.0, "unit": "1/s"}})
        with self.assertRaises(KeyError):
            run.result_line(SPEC, result, trace=False)

    def test_failed_check_is_not_correct(self):
        result = dict(self.RESULT, exit_code=1)
        self.assertFalse(run.result_line(SPEC, result, trace=False)["correct"])


class RetryTest(unittest.TestCase):
    """run_once repeats an invalid measurement, never a failed check, and
    keeps every invalid attempt."""

    def attempts(self, correct, invalid_runs=1):
        with tempfile.TemporaryDirectory() as d:
            count = os.path.join(d, "count")
            fake = os.path.join(d, "fake_ustbench")
            with open(fake, "w") as f:
                # Invalid on its first `invalid_runs` runs, valid afterwards.
                f.write(textwrap.dedent("""\
                    #!%s
                    import json, os, sys
                    n = int(open(%r).read()) if os.path.exists(%r) else 0
                    open(%r, "w").write(str(n + 1))
                    valid = n >= %d
                    print(json.dumps({"correct": %r, "valid": valid,
                                      "attempted": 1, "failed": 0,
                                      "failed_checks": [],
                                      "metrics": {"n": n}}))
                    sys.exit(0 if %r and valid else 1)
                    """ % (sys.executable, count, count, count, invalid_runs,
                           correct, correct)))
            os.chmod(fake, 0o755)
            saved = run.RESULTS_DIR
            run.RESULTS_DIR = d
            try:
                result = run.run_once(fake, "hot", 1, 1, False, "bench")
            finally:
                run.RESULTS_DIR = saved
            with open(count) as f:
                return int(f.read()), result

    def test_invalid_measurement_runs_again_and_is_kept(self):
        n, result = self.attempts(correct=True)
        self.assertEqual(n, 2)
        self.assertTrue(result["valid"])
        self.assertEqual(result["exit_code"], 0)
        self.assertEqual([a["metrics"]["n"] for a in result["invalid_attempts"]],
                         [0])

    def test_attempts_are_capped(self):
        n, result = self.attempts(correct=True, invalid_runs=10)
        self.assertEqual(n, run.MAX_ATTEMPTS)
        self.assertFalse(result["valid"])
        self.assertNotEqual(result["exit_code"], 0)
        self.assertEqual(len(result["invalid_attempts"]), run.MAX_ATTEMPTS - 1)

    def test_failed_check_is_final(self):
        n, result = self.attempts(correct=False)
        self.assertEqual(n, 1)
        self.assertNotEqual(result["exit_code"], 0)
        self.assertEqual(result["invalid_attempts"], [])

    def test_compare_counts_invalid_attempts(self):
        report = result_file([100, 101], [10, 10])
        report["runs"][0]["invalid_attempts"] = [{}, {}]
        self.assertEqual(run.invalid_attempts(report, "hot"), 2)
        self.assertEqual(run.invalid_attempts(report, "cold"), 0)


class LayerTableTest(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        events = [
            {"name": "morsel_exec", "ph": "X", "ts": 0, "dur": 100, "tid": 1},
            {"name": "exec_mc", "ph": "X", "ts": 10, "dur": 60, "tid": 1},
            {"name": "arena_build", "ph": "X", "ts": 20, "dur": 30, "tid": 1},
            # Same interval on another thread: not a child.
            {"name": "query.sample", "ph": "X", "ts": 5, "dur": 50, "tid": 2},
            {"name": "lane_adopt", "ph": "i", "ts": 1, "tid": 1},
        ]
        rows = {r["name"]: r for r in layers.self_times(events)}
        self.assertAlmostEqual(rows["morsel_exec"]["self_ms"], 0.040)
        self.assertAlmostEqual(rows["exec_mc"]["self_ms"], 0.030)
        self.assertAlmostEqual(rows["arena_build"]["self_ms"], 0.030)
        self.assertAlmostEqual(rows["query.sample"]["self_ms"], 0.050)
        self.assertNotIn("lane_adopt", rows)

    def test_overlapping_children_count_once(self):
        events = [
            {"name": "flush", "ph": "X", "ts": 0, "dur": 100, "tid": 1},
            {"name": "queue", "ph": "X", "ts": 10, "dur": 50, "tid": 1},
            {"name": "queue", "ph": "X", "ts": 30, "dur": 50, "tid": 1},
        ]
        rows = {r["name"]: r for r in layers.self_times(events)}
        self.assertAlmostEqual(rows["flush"]["self_ms"], 0.030)

    def test_modules(self):
        table = layers.layer_table({"traceEvents": [
            {"name": "index.prune", "ph": "X", "ts": 0, "dur": 10, "tid": 1},
            {"name": "exec_mc", "ph": "X", "ts": 20, "dur": 30, "tid": 1},
            {"name": "admit", "ph": "X", "ts": 60, "dur": 10, "tid": 1},
        ]}, trace_overhead=1.02)
        self.assertEqual(set(table["modules"]), {"index", "query", "server"})
        self.assertAlmostEqual(table["modules"]["query"]["self_share"], 0.6)
        self.assertEqual(table["trace_overhead"], 1.02)


if __name__ == "__main__":
    unittest.main()
