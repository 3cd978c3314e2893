"""Statistics and correctness gate of the benchmark.

The driver (driver.cpp) prints raw samples; everything computed from them
lives here so that test_metrics.py can check the arithmetic and the gate
without building or running the program.

Raw document shape (one per driver run):
  {"workload", "seed", "trace", "provenance": {...}, "setup_s": [..],
   "setup_cpu_s": [..], "peak_rss_kib", "excluded": [..],
   "passes": [{"kind", "variant", "task_threads", "wall_s", "cpu_s",
               "digest", "plane": {...}, "takeaways"?: {...},
               "runs": [{"cpu_ms", ...per-run counters...}],
               "spans": [[name, run_index, start_s, end_s], ...]}]}

Pass kinds: "timed" (end-to-end runs), "untraced" / "traced" (alternating
in the traced run), "threads" (the same list on N task threads) and
"obs_off" (the same list with the observability plane off). All but
"threads" run on one task thread.

End-to-end times are CPU time of the driver process (every thread). The
host the benchmark shares lends its cores to other work in spells; the
kernel leaves the time a process waits for a core out of its CPU time, so
the same work reads the same through such a spell while its wall-clock
time may double. Per-layer times are wall-clock spans (no bound applies).
"""

import statistics

# A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# End-to-end metrics: name -> unit.
END_TO_END = {
    "cpu_s": "s",
    "run_cpu_ms_p50": "ms",
    "run_cpu_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-layer metrics: name -> (unit, better, the end-to-end metric it should
# move and on which workload). The last field is printed beside each value.
_ALL = "cpu_s, all workloads"
_FIG2 = "fig2-serial cpu_s"
_SHUFFLE = "shuffle-large cpu_s, run_cpu_ms_p50"
_PLANE = "shuffle-large N-thread contrast pass; no end-to-end metric"
_MIX = "traced-mix cpu_s, run_cpu_ms_p50"
_MIX_TAIL = "traced-mix cpu_s, run_cpu_ms_tail"
_COUNT = "count repeats exactly; no perf target"
PER_LAYER = {
    "runner.run_s": ("s", "lower", _ALL),
    "runner.serialize_s": ("s", "lower", _ALL),
    "runner.json_bytes": ("bytes", "lower", _COUNT),
    "workloads.sort.run_s": ("s", "lower", _FIG2),
    "workloads.repartition.run_s": ("s", "lower", _FIG2),
    "workloads.als.run_s": ("s", "lower", _FIG2),
    "workloads.bayes.run_s": ("s", "lower", _FIG2 + ", run_cpu_ms_tail"),
    "workloads.rf.run_s": ("s", "lower", _FIG2),
    "workloads.lda.run_s": ("s", "lower", _FIG2),
    "workloads.pagerank.run_s": ("s", "lower", _FIG2),
    "spark.task_exec_s": ("s", "lower", _FIG2 + "; " + _SHUFFLE),
    "spark.outside_tasks_s": ("s", "lower", _FIG2 + "; " + _SHUFFLE),
    "spark.tasks": ("count", "lower", _COUNT),
    "spark.stages": ("count", "lower", _COUNT),
    "spark.task_exec_sum_s": ("s", "lower", _PLANE + " (thread-summed, never wall)"),
    "spark.plane.stage_s": ("s", "lower", _PLANE),
    "spark.plane.eval_sum_s": ("s", "lower", _PLANE),
    "spark.plane.commit_s": ("s", "lower", _PLANE),
    "spark.plane.ready_wait_s": ("s", "lower", _PLANE),
    "spark.plane.commit_work_s": ("s", "lower", _PLANE),
    "spark.plane.commit_share": ("ratio", "lower", _PLANE),
    "spark.plane.lock_acquisitions": ("count", "lower", _PLANE),
    "spark.plane.lock_contended": ("count", "lower", _PLANE),
    "spark.plane.lock_wait_s": ("s", "lower", _PLANE),
    "spark.plane.puts_per_batch": ("count", "higher", _PLANE),
    "spark.plane.speedup": ("ratio", "higher", _PLANE),
    "sim.virtual_s": ("s", "lower", _COUNT),
    "sim.virtual_per_host_s": ("ratio", "higher", _ALL),
    "mem.nvm_media_reads": ("count", "lower", _COUNT),
    "mem.nvm_media_writes": ("count", "lower", _COUNT),
    "obs.record_overhead_s": ("s", "lower", _MIX),
    "obs.spans": ("count", "lower", _MIX),
    "obs.export_chrome_s": ("s", "lower", _MIX),
    "obs.export_metrics_s": ("s", "lower", _MIX),
    "obs.export_bytes": ("bytes", "lower", _MIX),
    "obs.other_share": ("ratio", "lower", "traced-mix; virtual attribution, no host time"),
    "tiering.promotions": ("count", "lower", _MIX_TAIL),
    "tiering.epochs": ("count", "lower", _MIX_TAIL),
    "tiering.migration_s": ("s", "lower", _MIX_TAIL + " (virtual seconds)"),
    "fault.task_failures": ("count", "lower", _MIX_TAIL),
    "fault.retries": ("count", "lower", _MIX_TAIL),
    "fault.recomputed_map_tasks": ("count", "lower", _MIX_TAIL),
    "fault.spec_win_ratio": ("ratio", "higher", _MIX_TAIL),
    "dfs.datanodes_lost": ("count", "lower", _MIX_TAIL),
    "dfs.chunks_repaired": ("count", "lower", _MIX_TAIL),
    "columnar.exec_s": ("s", "lower", _MIX_TAIL),
    "columnar.queries": ("count", "lower", _MIX_TAIL),
    "columnar.arena_leases": ("count", "lower", _MIX_TAIL),
    "analysis.takeaways_s": ("s", "lower", _FIG2),
    "analysis.paper_err_pct": ("pp", "lower", "model check: simulator vs paper, not a perf target"),
    "bench.trace_overhead_frac": ("ratio", "lower", "none (the benchmark's own tracing)"),
}

APPS = ("sort", "repartition", "als", "bayes", "rf", "lda", "pagerank")


# ---- arithmetic ---------------------------------------------------------------

def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). The sample at 1-based rank n - 10 has
    exactly ten samples above it, and its percentile is 100 * (n - 10) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def ratio(numerator, base):
    """numerator / base; 0.0 when the base is 0 (nothing measured)."""
    return numerator / base if base else 0.0


def commit_share(commit_s, ready_wait_s, stage_s):
    """Share of parallel-stage wall-clock spent on commit work.

    The plane's commit time includes the time commit hosts sat blocked on
    evaluation (ready-wait), which is not commit work.
    """
    return ratio(commit_s - ready_wait_s, stage_s)


def peak_rss_mb(ru_maxrss_kib):
    """Linux getrusage reports ru_maxrss in KiB."""
    return ru_maxrss_kib / 1024.0


def paper_err_pct(takeaways):
    """Mean absolute error, in percentage points, of the takeaway
    aggregates against the paper's reported values."""
    sim, ref = takeaways["simulated_pct"], takeaways["paper_pct"]
    if len(sim) != len(ref) or not sim:
        raise ValueError("takeaway lists differ in length")
    return sum(abs(s - r) for s, r in zip(sim, ref)) / len(sim)


# ---- per-pass aggregation -------------------------------------------------

def span_sum(pass_, name, runs=None):
    """Total seconds of spans called `name`, optionally only of runs whose
    index satisfies `runs`."""
    total = 0.0
    for span_name, run, start, end in pass_["spans"]:
        if span_name == name and (runs is None or runs(run)):
            total += end - start
    return total


def run_sum(pass_, key, where=None):
    return sum(r[key] for r in pass_["runs"] if where is None or where(r))


def passes_of(raw, kind):
    return [p for p in raw["passes"] if p["kind"] == kind]


def median_pass(passes):
    """The pass with the median wall time (lower middle for an even count),
    so its layer values add up against one real wall time."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_config_cpu_ms(passes):
    """Least CPU time of each run-list entry across passes.

    Interference from the rest of the host (caches, memory bandwidth, a
    sibling hyperthread) only ever adds time, so the least of several
    repeats spread over the run is the steadiest estimate of the work.
    """
    lists = [[r["cpu_ms"] for r in p["runs"]] for p in passes]
    return [min(column) for column in zip(*lists)]


# ---- metrics --------------------------------------------------------------

def end_to_end(raw):
    """Returns (metrics, notes). metrics: name -> value in END_TO_END units."""
    timed = passes_of(raw, "timed")
    if not timed:
        raise ValueError("no timed passes")
    configs = per_config_cpu_ms(timed)
    tail_ms, tail_pct, tail_n = tail(configs)
    attempted, failed = attempt_counts(raw)
    wall_s = median([p["wall_s"] for p in timed])
    metrics = {
        "cpu_s": sum(configs) / 1e3,
        "run_cpu_ms_p50": median(configs),
        "run_cpu_ms_tail": tail_ms,
        "setup_s": median(raw["setup_cpu_s"]),
        "peak_rss_mb": peak_rss_mb(raw["peak_rss_kib"]),
        "ok_frac": 1.0 - ratio(failed, attempted),
    }
    notes = {
        "cpu_s": (f"sum over {len(configs)} configs of each one's least CPU time "
                  f"of {len(timed)} passes; wall-clock pass median {wall_s:.4f} s"),
        "run_cpu_ms_p50": f"median over {len(configs)} configs of each one's least of {len(timed)}",
        "run_cpu_ms_tail": f"p{tail_pct:.1f}, n={tail_n} configs ({TAIL_BEYOND} beyond)",
        "setup_s": (f"median CPU time of {len(raw['setup_cpu_s'])} set-ups; "
                    f"wall-clock median {median(raw['setup_s']):.4f} s"),
        "peak_rss_mb": "peak resident set of the driver by the end of its first pass",
        "ok_frac": f"fail_frac={ratio(failed, attempted):.4f} ({failed} of {attempted} runs)",
    }
    return metrics, notes


def per_layer(raw):
    """Returns (metrics, notes). notes names metrics absent on this workload
    (reported as 0) and the layer closure."""
    traced = passes_of(raw, "traced")
    untraced = passes_of(raw, "untraced")
    threads = passes_of(raw, "threads")
    obs_off = passes_of(raw, "obs_off")
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced passes")
    rep = median_pass(traced)
    runs = rep["runs"]
    m = {}
    notes = {}

    m["runner.run_s"] = span_sum(rep, "run_workload")
    m["runner.serialize_s"] = span_sum(rep, "to_json")
    m["runner.json_bytes"] = run_sum(rep, "json_bytes")
    for app in APPS:
        idx = {i for i, r in enumerate(runs) if r["app"] == app}
        m[f"workloads.{app}.run_s"] = span_sum(rep, "run_workload", idx.__contains__)

    # The traced pass is serial, so the scheduler's host seconds are wall
    # time; on N threads they are summed over threads.
    parallel = median_pass(threads) if threads else rep
    m["spark.task_exec_s"] = run_sum(rep, "host_execute_s")
    m["spark.outside_tasks_s"] = m["runner.run_s"] - m["spark.task_exec_s"]
    m["spark.tasks"] = run_sum(rep, "tasks")
    m["spark.stages"] = run_sum(rep, "stages")
    m["spark.task_exec_sum_s"] = run_sum(parallel, "host_execute_s")

    plane = parallel["plane"]
    ns = 1e-9
    m["spark.plane.stage_s"] = plane["stage_ns"] * ns
    m["spark.plane.eval_sum_s"] = plane["eval_ns"] * ns
    m["spark.plane.commit_s"] = plane["commit_ns"] * ns
    m["spark.plane.ready_wait_s"] = plane["ready_wait_ns"] * ns
    m["spark.plane.commit_work_s"] = (plane["commit_ns"] - plane["ready_wait_ns"]) * ns
    m["spark.plane.commit_share"] = commit_share(
        plane["commit_ns"] * ns, plane["ready_wait_ns"] * ns, plane["stage_ns"] * ns)
    m["spark.plane.lock_acquisitions"] = plane["lock_acquisitions"]
    m["spark.plane.lock_contended"] = plane["lock_contended"]
    m["spark.plane.lock_wait_s"] = plane["lock_wait_ns"] * ns
    m["spark.plane.puts_per_batch"] = ratio(plane["shuffle_puts"], plane["shuffle_put_batches"])
    if threads:
        m["spark.plane.speedup"] = ratio(
            median([span_sum(p, "run_workload") for p in traced]),
            median([span_sum(p, "run_workload") for p in threads]))
        notes["spark.plane.*"] = (
            f"from the {parallel['task_threads']}-thread contrast pass; "
            f"task_exec_sum_s too")
        notes["spark.plane.speedup"] = (
            f"1-thread / {parallel['task_threads']}-thread runner.run_s, medians of "
            f"{len(traced)} and {len(threads)} passes")
    else:
        m["spark.plane.speedup"] = 0.0
        notes["spark.plane.speedup"] = "absent: this workload has no N-thread contrast pass"
    if plane["stage_ns"] == 0:
        notes["spark.plane.*"] = "zero: no stage ran on the parallel plane"

    m["sim.virtual_s"] = run_sum(rep, "virtual_s")
    m["sim.virtual_per_host_s"] = ratio(m["sim.virtual_s"], m["runner.run_s"])
    m["mem.nvm_media_reads"] = run_sum(rep, "nvm_media_reads")
    m["mem.nvm_media_writes"] = run_sum(rep, "nvm_media_writes")

    if obs_off:
        m["obs.record_overhead_s"] = (
            median([span_sum(p, "run_workload") for p in traced])
            - median([span_sum(p, "run_workload") for p in obs_off]))
        notes["obs.record_overhead_s"] = (
            f"runner.run_s obs on - off, medians of {len(traced)} and {len(obs_off)} passes")
    else:
        m["obs.record_overhead_s"] = 0.0
        notes["obs.record_overhead_s"] = "absent: obs is off on this workload"
    m["obs.spans"] = run_sum(rep, "obs_spans")
    m["obs.export_chrome_s"] = span_sum(rep, "chrome_trace_json")
    m["obs.export_metrics_s"] = span_sum(rep, "metrics_jsonl")
    m["obs.export_bytes"] = run_sum(rep, "export_bytes")
    m["obs.other_share"] = ratio(run_sum(rep, "obs_other_s"), run_sum(rep, "obs_run_span_s"))

    m["tiering.promotions"] = run_sum(rep, "tiering_promotions")
    m["tiering.epochs"] = run_sum(rep, "tiering_epochs")
    m["tiering.migration_s"] = run_sum(rep, "tiering_migration_s")
    m["fault.task_failures"] = run_sum(rep, "fault_task_failures")
    m["fault.retries"] = run_sum(rep, "fault_retries")
    m["fault.recomputed_map_tasks"] = run_sum(rep, "fault_recomputed_map_tasks")
    m["fault.spec_win_ratio"] = ratio(run_sum(rep, "fault_spec_wins"),
                                      run_sum(rep, "fault_spec_launches"))
    m["dfs.datanodes_lost"] = run_sum(rep, "dfs_datanodes_lost")
    m["dfs.chunks_repaired"] = run_sum(rep, "dfs_chunks_repaired")
    m["columnar.exec_s"] = run_sum(rep, "host_execute_s", lambda r: r["columnar"])
    m["columnar.queries"] = run_sum(rep, "columnar_queries")
    m["columnar.arena_leases"] = run_sum(rep, "columnar_arena_leases")

    m["analysis.takeaways_s"] = span_sum(rep, "summarize_takeaways")
    if "takeaways" in rep:
        m["analysis.paper_err_pct"] = paper_err_pct(rep["takeaways"])
    else:
        m["analysis.paper_err_pct"] = 0.0
        notes["analysis.paper_err_pct"] = "absent: needs the full Fig. 2 sweep (fig2-serial)"

    m["bench.trace_overhead_frac"] = ratio(
        median([p["cpu_s"] for p in traced]),
        median([p["cpu_s"] for p in untraced])) - 1.0
    notes["bench.trace_overhead_frac"] = (
        f"traced / untraced pass CPU time - 1, medians of {len(traced)} and "
        f"{len(untraced)} passes")

    # The layers must account for the pass's wall time (outside_tasks_s
    # is what run_workload spends beyond task execution).
    accounted = (m["spark.task_exec_s"] + m["spark.outside_tasks_s"]
                 + m["runner.serialize_s"] + m["obs.export_chrome_s"]
                 + m["obs.export_metrics_s"] + m["analysis.takeaways_s"])
    notes["closure"] = (
        f"task_exec + outside_tasks + serialize + exports + takeaways = {accounted:.4f} s "
        f"= {100.0 * ratio(accounted, rep['wall_s']):.2f}% of the pass's wall_s "
        f"{rep['wall_s']:.4f} s")
    return m, notes


# ---- correctness gate -------------------------------------------------------

def attempt_counts(raw):
    runs = [r for p in raw["passes"] for r in p["runs"]]
    return len(runs), sum(1 for r in runs if not r["ok"])


def gate(raw):
    """Returns the list of reasons the outputs are wrong (empty = correct).

    - every run completes and passes its app self-check (a drill must also
      reproduce its fault-free baseline's self-check note);
    - every pass over the same configs yields the same simulated-output
      digest, whatever its task-thread count;
    - every fault drill injected at least one event.
    """
    problems = []
    if not raw["passes"] or not any(p["runs"] for p in raw["passes"]):
        problems.append("no runs attempted")
    for p in raw["passes"]:
        for r in p["runs"]:
            if not r["ok"]:
                problems.append(f"{p['kind']} pass: run not ok: {r['label']}: {r['note']}")
            if r["drill"] and r["injected"] < 1:
                problems.append(f"{p['kind']} pass: drill injected nothing: {r['label']}")
    by_variant = {}
    for p in raw["passes"]:
        by_variant.setdefault(p["variant"], []).append(p)
    for variant, passes in by_variant.items():
        ref = passes[0]
        for p in passes[1:]:
            if p["digest"] != ref["digest"]:
                problems.append(
                    f"{variant} digest mismatch: {p['kind']} pass on {p['task_threads']} "
                    f"thread(s) {p['digest']} != {ref['kind']} pass on "
                    f"{ref['task_threads']} thread(s) {ref['digest']}")
    return problems


def sim_digest(raw):
    """Digest of the simulated outputs of the workload's main configs."""
    return next(p["digest"] for p in raw["passes"] if p["variant"] == "main")
