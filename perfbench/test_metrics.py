"""Tests of the benchmark's own arithmetic and correctness gate.

Run from the repository root:
  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def make_run(label="sort-tiny", ok=True, drill=False, injected=0, **extra):
    run = {
        "label": label, "app": label.split("-")[0], "cpu_ms": 9.0, "ok": ok,
        "note": "checked", "drill": drill,
        "injected": injected, "columnar": False, "host_execute_s": 0.5,
        "json_bytes": 100,
    }
    run.update(extra)
    return run


def make_pass(kind="timed", variant="main", threads=1, digest="aa", runs=None,
              wall=1.0, cpu=None):
    return {
        "kind": kind, "variant": variant, "task_threads": threads,
        "wall_s": wall, "cpu_s": wall if cpu is None else cpu, "digest": digest,
        "plane": {}, "runs": runs if runs is not None else [make_run()],
        "spans": [],
    }


def make_raw(*passes):
    return {"workload": "w", "seed": 1, "trace": 0, "setup_s": [0.2, 0.1, 0.3],
            "setup_cpu_s": [0.15, 0.1, 0.3], "peak_rss_kib": 2048,
            "passes": list(passes)}


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 85))  # 84 samples, e.g. the Fig. 2 configs
        value, pct, n = metrics.tail(values)
        self.assertEqual(n, 84)
        self.assertEqual(value, 74)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 74 / 84)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.5]
        value, pct, n = metrics.tail(values)
        self.assertEqual((value, n), (1.0, 12))
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)

    def test_smallest_sample_with_a_tail(self):
        value, pct, n = metrics.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(10)))


class ArithmeticTest(unittest.TestCase):
    def test_commit_share_excludes_ready_wait(self):
        # 0.9 s of commit time of which 0.8 s blocked on evaluation, in a
        # 1.0 s stage: commit work is 10% of the stage, not 90%.
        self.assertAlmostEqual(metrics.commit_share(0.9, 0.8, 1.0), 0.1)

    def test_commit_share_without_stages(self):
        self.assertEqual(metrics.commit_share(0.0, 0.0, 0.0), 0.0)

    def test_ratio_bases(self):
        self.assertAlmostEqual(metrics.ratio(3.0, 1.5), 2.0)
        self.assertEqual(metrics.ratio(3.0, 0.0), 0.0)

    def test_rss_is_reported_in_mib(self):
        self.assertAlmostEqual(metrics.peak_rss_mb(25 * 1024), 25.0)

    def test_paper_error_is_mean_absolute_points(self):
        t = {"simulated_pct": [50.0, 10.0], "paper_pct": [40.0, 20.0]}
        self.assertAlmostEqual(metrics.paper_err_pct(t), 10.0)

    def test_speedup_and_overhead_bases(self):
        runs = [make_run("sort-large"), make_run("sort-large")]
        def pass_(kind, threads, run_s, cpu):
            p = make_pass(kind, threads=threads, runs=copy.deepcopy(runs), wall=run_s,
                          cpu=cpu)
            p["plane"] = {k: 0 for k in (
                "stage_ns", "eval_ns", "commit_ns", "ready_wait_ns",
                "lock_acquisitions", "lock_contended", "lock_wait_ns",
                "shuffle_puts", "shuffle_put_batches")}
            p["spans"] = [["run_workload", 0, 0.0, run_s / 2],
                          ["run_workload", 1, run_s / 2, run_s]]
            return p
        for r in runs:
            r.update({k: 0 for k in (
                "tasks", "stages", "virtual_s", "nvm_media_reads",
                "nvm_media_writes", "export_bytes", "obs_spans", "obs_other_s",
                "obs_run_span_s", "tiering_promotions", "tiering_epochs",
                "tiering_migration_s", "fault_task_failures", "fault_retries",
                "fault_recomputed_map_tasks", "fault_spec_wins",
                "fault_spec_launches", "dfs_datanodes_lost",
                "dfs_chunks_repaired", "columnar_queries",
                "columnar_arena_leases")})
        raw = make_raw(pass_("untraced", 1, 3.0, 2.0), pass_("traced", 1, 3.0, 2.2),
                       pass_("threads", 4, 1.0, 4.0))
        raw["passes"][2]["runs"][0]["host_execute_s"] = 1.5
        m, _ = metrics.per_layer(raw)
        self.assertAlmostEqual(m["spark.plane.speedup"], 3.0)  # 1-thread / N-thread
        # Traced / untraced pass CPU time, not wall-clock.
        self.assertAlmostEqual(m["bench.trace_overhead_frac"], 0.1)
        # Wall-clock task time comes from the serial traced pass; the
        # N-thread pass's host seconds are summed over threads.
        self.assertAlmostEqual(m["spark.task_exec_s"], 1.0)
        self.assertAlmostEqual(m["spark.outside_tasks_s"], 2.0)
        self.assertAlmostEqual(m["spark.task_exec_sum_s"], 2.0)

    def test_end_to_end(self):
        runs = [make_run(f"r{i}") for i in range(12)]
        for i, r in enumerate(runs):
            r["cpu_ms"] = float(i + 1)
        raw = make_raw(make_pass(runs=runs, wall=2.0),
                       make_pass(runs=copy.deepcopy(runs), wall=4.0),
                       make_pass(runs=copy.deepcopy(runs), wall=3.0))
        raw["passes"][1]["runs"][11]["cpu_ms"] = 30.0  # a disturbed repeat
        raw["passes"][2]["runs"][0]["cpu_ms"] = 0.5    # the least repeat
        m, notes = metrics.end_to_end(raw)
        # Per-config least CPU time: 0.5, 2, 3, ..., 12.
        self.assertAlmostEqual(m["cpu_s"], (0.5 + sum(range(2, 13))) / 1e3)
        self.assertEqual(m["run_cpu_ms_p50"], 6.5)
        self.assertEqual(m["run_cpu_ms_tail"], 2.0)
        self.assertEqual(m["setup_s"], 0.15)  # median of the CPU set-up times
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["ok_frac"], 1.0)
        self.assertIn("n=12", notes["run_cpu_ms_tail"])
        self.assertIn("wall-clock pass median 3.0000 s", notes["cpu_s"])


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        raw = make_raw(make_pass("traced"), make_pass("threads", threads=4))
        self.assertEqual(metrics.gate(raw), [])

    def test_digest_mismatch_trips(self):
        raw = make_raw(make_pass("traced", digest="aa"),
                       make_pass("threads", threads=4, digest="bb"))
        problems = metrics.gate(raw)
        self.assertEqual(len(problems), 1)
        self.assertIn("digest mismatch", problems[0])

    def test_obs_off_pass_is_compared_only_with_itself(self):
        raw = make_raw(make_pass(digest="aa"),
                       make_pass("obs_off", variant="obs_off", digest="cc"))
        self.assertEqual(metrics.gate(raw), [])

    def test_invalid_run_trips(self):
        raw = make_raw(make_pass(runs=[make_run(), make_run("bayes-large", ok=False)]))
        problems = metrics.gate(raw)
        self.assertEqual(len(problems), 1)
        self.assertIn("not ok: bayes-large", problems[0])
        self.assertEqual(metrics.attempt_counts(raw), (2, 1))
        m, _ = metrics.end_to_end(make_raw(make_pass(
            runs=[make_run(f"x{i}", ok=i != 0) for i in range(12)])))
        self.assertAlmostEqual(m["ok_frac"], 11 / 12)

    def test_drill_that_injected_nothing_trips(self):
        raw = make_raw(make_pass(runs=[
            make_run("sort-small", drill=True, injected=2),
            make_run("pagerank-small", drill=True, injected=0)]))
        problems = metrics.gate(raw)
        self.assertEqual(len(problems), 1)
        self.assertIn("injected nothing: pagerank-small", problems[0])

    def test_no_runs_trips(self):
        self.assertTrue(metrics.gate(make_raw(make_pass(runs=[]))))


if __name__ == "__main__":
    unittest.main()
