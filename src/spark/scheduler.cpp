#include "spark/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/running_median.hpp"
#include "core/strings.hpp"
#include "spark/context.hpp"
#include "spark/plane_stats.hpp"
#include "spark/task_effects.hpp"

namespace tsx::spark {

namespace {
/// Wall-clock seconds elapsed since `start` (host execute accounting).
double elapsed_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

void DAGScheduler::collect_shuffles(
    const RddBase& rdd,
    std::vector<std::shared_ptr<ShuffleDependencyBase>>& order,
    std::unordered_set<int>& seen_rdds,
    std::unordered_set<int>& seen_shuffles) const {
  if (!seen_rdds.insert(rdd.id()).second) return;
  for (const Dependency& dep : rdd.dependencies()) {
    if (dep.is_shuffle()) {
      if (!seen_shuffles.insert(dep.shuffle->shuffle_id()).second) continue;
      if (sc_.shuffle_store().is_complete(dep.shuffle->shuffle_id()))
        continue;  // map output reuse: already materialized by a prior job
      collect_shuffles(*dep.shuffle->parent(), order, seen_rdds,
                       seen_shuffles);
      order.push_back(dep.shuffle);  // post-order: parents first
    } else {
      collect_shuffles(*dep.narrow, order, seen_rdds, seen_shuffles);
    }
  }
}

void DAGScheduler::advance(Duration d) {
  // run_until (not run): background activity — e.g. a noisy-neighbor load
  // generator — may keep the event queue permanently non-empty.
  sim::Simulator& sim = sc_.machine().simulator();
  sim.run_until(sim.now() + d);
}

StageRecord DAGScheduler::run_stage(const std::string& label,
                                    std::size_t num_tasks, const TaskFn& task,
                                    JobMetrics& metrics,
                                    const StageOptions& opts) {
  TSX_CHECK(num_tasks > 0, "stage with zero tasks: " + label);
  advance(sc_.conf().stage_overhead);

  StageRecord record;
  record.stage_id = next_stage_id_++;
  record.label = label;
  record.tasks = num_tasks;
  record.start = sc_.now();

  // Recovery stages are tagged by category so the job rollup folds their
  // whole window into the recovery bucket.
  obs::Recorder* const rec = sc_.obs();
  const obs::SpanId stage_span =
      rec != nullptr ? rec->open_stage(record.stage_id, label,
                                       starts_with(label, "recover:"),
                                       record.start)
                     : 0;

  // Snapshot per-channel drained volume to derive stage-average bandwidth.
  const auto channels = sc_.machine().all_memory_channels();
  std::vector<double> drained_before;
  drained_before.reserve(channels.size());
  for (const auto* ch : channels) drained_before.push_back(ch->drained_total().b());

  if (sc_.fault() != nullptr) {
    run_tasks_with_recovery(record, stage_span, num_tasks, task, metrics,
                            opts);
  } else if (sc_.task_pool() != nullptr && num_tasks > 1) {
    run_tasks_parallel(record, stage_span, num_tasks, task, metrics);
  } else {
    PlaneStats::global().stages_serial.fetch_add(1,
                                                 std::memory_order_relaxed);
    auto& executors = sc_.executors();
    auto remaining = std::make_shared<std::size_t>(num_tasks);
    for (std::size_t p = 0; p < num_tasks; ++p) {
      Executor& executor = *executors[task_counter_++ % executors.size()];
      const int stage_id = record.stage_id;
      Executor::Work work;
      work.stage_id = stage_id;
      work.partition = p;
      if (rec != nullptr)
        work.obs_span = rec->open_task(stage_span, stage_id, p, 0,
                                       executor.spec().id, sc_.now());
      const obs::SpanId tspan = work.obs_span;
      work.host = [this, stage_id, p, &task, &record]() -> TaskCost {
        // Per-task rng stream: deterministic in (job seed, stage, task).
        std::uint64_t mix = sc_.job_seed() ^
                            (static_cast<std::uint64_t>(stage_id) << 32) ^
                            static_cast<std::uint64_t>(p);
        TaskContext ctx(stage_id, p, sc_.costs(), sc_.cost_multiplier(),
                        Rng(splitmix64(mix)));
        const auto host_start = std::chrono::steady_clock::now();
        task(p, ctx);
        const double secs = elapsed_since(host_start);
        record.host_seconds += secs;
        host_seconds_ += secs;
        return ctx.cost();
      };
      work.done = [this, remaining, rec, tspan,
                   &metrics](const TaskCost& cost) {
        if (rec != nullptr) rec->close_task(tspan, sc_.now());
        metrics.total_cost += cost;
        lifetime_cost_ += cost;
        --*remaining;
      };
      executor.submit(std::move(work));
    }

    // The stage barrier: step the simulator until the last task (and its
    // memory flows) completes. Stepping — rather than draining — tolerates
    // concurrent background activity (noisy-neighbor load generators).
    sim::Simulator& sim = sc_.machine().simulator();
    while (*remaining > 0) {
      TSX_CHECK(sim.step() > 0,
                "deadlock: stage " + label + " has unfinished tasks but no "
                "pending events");
    }
  }

  record.end = sc_.now();
  if (rec != nullptr) rec->close_stage(stage_span, record.end);
  if (record.duration().sec() > 0.0) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const Bandwidth avg{
          (channels[c]->drained_total().b() - drained_before[c]) /
          record.duration().sec()};
      if (avg > record.peak_channel_bandwidth) {
        record.peak_channel_bandwidth = avg;
        record.peak_channel = channels[c]->name();
      }
    }
  }
  metrics.num_tasks += num_tasks;
  metrics.num_stages += 1;
  tasks_run_ += num_tasks;
  TSX_LOG(kInfo) << "stage " << record.stage_id << " [" << label << "] "
                 << num_tasks << " tasks in "
                 << tsx::to_string(record.duration());
  return record;
}

void DAGScheduler::run_tasks_parallel(StageRecord& record,
                                      obs::SpanId stage_span,
                                      std::size_t num_tasks,
                                      const TaskFn& task,
                                      JobMetrics& metrics) {
  const int stage_id = record.stage_id;
  obs::Recorder* const rec = sc_.obs();
  PlaneStats& stats = PlaneStats::global();
  const auto stage_t0 = std::chrono::steady_clock::now();

  // Recycled buffers: grow to the widest stage, never shrink. A buffer
  // starts empty even if the previous stage unwound before committing it.
  if (effects_.size() < num_tasks) effects_.resize(num_tasks);
  if (stage_costs_.size() < num_tasks) stage_costs_.resize(num_tasks);
  if (host_times_.size() < num_tasks) host_times_.resize(num_tasks);
  for (std::size_t p = 0; p < num_tasks; ++p) effects_[p].reset();

  // Phase 1 — evaluate. Every host function runs concurrently on the
  // context's pool. A task is a pure function of (job seed, stage,
  // partition): its rng stream is private, its TaskContext is
  // thread-confined, and every write to shared engine state (shuffle
  // buckets, cached blocks, accumulators, tiering hotness) is recorded into
  // its TaskEffects buffer instead of applied. Reads see the stage-start
  // snapshot plus the task's own buffer — which is exactly what the serial
  // engine shows a task, because within one fault-free stage tasks only
  // ever read state they wrote themselves or state committed before the
  // previous stage barrier. The driver mutates no store until the batch
  // returns, so the stores need no locks. A task's exception propagates
  // once every other task has finished.
  const std::uint64_t seed = sc_.job_seed();
  sc_.task_pool()->run_batch(num_tasks, [this, stage_id, seed,
                                         &task](std::size_t p) {
    TaskEffects::Scope scope(&effects_[p]);
    std::uint64_t mix = seed ^ (static_cast<std::uint64_t>(stage_id) << 32) ^
                        static_cast<std::uint64_t>(p);
    TaskContext ctx(stage_id, p, sc_.costs(), sc_.cost_multiplier(),
                    Rng(splitmix64(mix)));
    const auto host_start = std::chrono::steady_clock::now();
    task(p, ctx);
    host_times_[p] = elapsed_since(host_start);
    stage_costs_[p] = ctx.cost();
  });

  // Phase 2 — commit. Submissions replay the serial path exactly: same
  // partition order, same round-robin executor assignment, same dispatch
  // serialization, and a host that returns the pre-computed cost — so the
  // simulator sees an identical event schedule, each buffer commits at the
  // very instant the serial engine would have mutated the stores, and the
  // done callbacks (whose += order sets the low bits of total_cost) fire in
  // the identical completion order.
  const auto commit_t0 = std::chrono::steady_clock::now();
  auto& executors = sc_.executors();
  auto remaining = std::make_shared<std::size_t>(num_tasks);
  for (std::size_t p = 0; p < num_tasks; ++p) {
    Executor& executor = *executors[task_counter_++ % executors.size()];
    Executor::Work work;
    work.stage_id = stage_id;
    work.partition = p;
    // Task spans open here, in the same submit order as the serial branch,
    // so the span tree (ids included) is identical at any thread count.
    if (rec != nullptr)
      work.obs_span = rec->open_task(stage_span, stage_id, p, 0,
                                     executor.spec().id, sc_.now());
    const obs::SpanId tspan = work.obs_span;
    work.host = [this, p]() -> TaskCost {
      effects_[p].commit();
      return stage_costs_[p];
    };
    work.done = [this, remaining, rec, tspan,
                 &metrics](const TaskCost& cost) {
      if (rec != nullptr) rec->close_task(tspan, sc_.now());
      metrics.total_cost += cost;
      lifetime_cost_ += cost;
      --*remaining;
    };
    executor.submit(std::move(work));
  }

  sim::Simulator& sim = sc_.machine().simulator();
  while (*remaining > 0) {
    TSX_CHECK(sim.step() > 0,
              "deadlock: stage " + record.label + " has unfinished tasks "
              "but no pending events");
  }

  // Host execute accounting, folded in serial partition order.
  double eval = 0.0;
  for (std::size_t p = 0; p < num_tasks; ++p) {
    record.host_seconds += host_times_[p];
    host_seconds_ += host_times_[p];
    eval += host_times_[p];
  }

  stats.stages_barrier.fetch_add(1, std::memory_order_relaxed);
  stats.commit_tasks.fetch_add(num_tasks, std::memory_order_relaxed);
  stats.commit_ns.fetch_add(
      static_cast<std::uint64_t>(elapsed_since(commit_t0) * 1e9),
      std::memory_order_relaxed);
  stats.eval_ns.fetch_add(static_cast<std::uint64_t>(eval * 1e9),
                          std::memory_order_relaxed);
  stats.stage_ns.fetch_add(
      static_cast<std::uint64_t>(elapsed_since(stage_t0) * 1e9),
      std::memory_order_relaxed);
}

void DAGScheduler::run_tasks_with_recovery(StageRecord& record,
                                           obs::SpanId stage_span,
                                           std::size_t num_tasks,
                                           const TaskFn& task,
                                           JobMetrics& metrics,
                                           const StageOptions& opts) {
  // One entry per task slot of the stage. `done` is the first-completion-
  // wins guard: whichever launch (original, retry or speculative duplicate)
  // reports first owns the outcome; every later report is a zombie and is
  // dropped here. `live` counts launches currently queued or running so a
  // crash that kills one copy does not retry while a duplicate survives.
  struct TaskState {
    int attempts = 0;
    int live = 0;
    int spec_attempt = -1;  ///< attempt number of the speculative duplicate
    bool done = false;
    bool speculated = false;
    Duration launched;  ///< most recent launch (straggler detection)
  };

  const int stage_id = record.stage_id;
  const int rng_stage = opts.rng_stage >= 0 ? opts.rng_stage : stage_id;
  auto states = std::make_shared<std::vector<TaskState>>(num_tasks);
  auto remaining = std::make_shared<std::size_t>(num_tasks);
  // Completed-task durations feed the straggler sweep. The two-heap keeps
  // the upper median (the same rank-n/2 order statistic a full nth_element
  // selects) incrementally: O(log n) per completion instead of copying and
  // selecting over the whole sample — O(n^2) per stage — every time.
  auto durations = std::make_shared<RunningMedian>();
  auto launch = std::make_shared<std::function<void(std::size_t)>>();

  obs::Recorder* const rec = sc_.obs();
  *launch = [this, states, remaining, durations, launch, stage_id, rng_stage,
             num_tasks, opts, rec, stage_span, &task, &metrics,
             &record](std::size_t i) {
    sim::Simulator& sim = sc_.machine().simulator();
    auto& executors = sc_.executors();

    TaskState& st = (*states)[i];
    const int attempt = st.attempts++;
    ++st.live;
    st.launched = sim.now();
    const std::size_t p = opts.partitions != nullptr ? (*opts.partitions)[i] : i;

    // Round-robin over executors currently accepting dispatches; when every
    // process is mid-restart, fall back to the plain round-robin choice
    // (the task then waits out the restart in the dispatch queue).
    Executor* chosen = nullptr;
    Executor* fallback = nullptr;
    for (std::size_t k = 0; k < executors.size(); ++k) {
      Executor& e = *executors[task_counter_++ % executors.size()];
      if (fallback == nullptr) fallback = &e;
      if (e.available_from() <= sim.now()) {
        chosen = &e;
        break;
      }
    }
    if (chosen == nullptr) chosen = fallback;

    Executor::Work work;
    work.stage_id = stage_id;
    work.partition = p;
    work.attempt = attempt;
    const int executor_id = chosen->spec().id;
    // Every launch — original, retry, speculative duplicate — is its own
    // span; the attempt number disambiguates them in the trace.
    if (rec != nullptr)
      work.obs_span = rec->open_task(stage_span, stage_id, p, attempt,
                                     executor_id, sim.now());
    const obs::SpanId tspan = work.obs_span;
    work.host = [this, states, i, p, rng_stage, executor_id, &task,
                 &record]() -> TaskCost {
      if ((*states)[i].done) return TaskCost{};  // losing duplicate: no-op
      // Retries and duplicates replay the *same* rng stream as the first
      // attempt — a task is a pure function of (job seed, stage, partition),
      // which is what makes recovery reproduce results byte for byte.
      std::uint64_t mix = sc_.job_seed() ^
                          (static_cast<std::uint64_t>(rng_stage) << 32) ^
                          static_cast<std::uint64_t>(p);
      TaskContext ctx(rng_stage, p, sc_.costs(), sc_.cost_multiplier(),
                      Rng(splitmix64(mix)), executor_id);
      const auto host_start = std::chrono::steady_clock::now();
      task(p, ctx);
      const double secs = elapsed_since(host_start);
      record.host_seconds += secs;
      host_seconds_ += secs;
      return ctx.cost();
    };
    work.done = [this, states, remaining, durations, launch, i, attempt,
                 stage_id, num_tasks, opts, rec, tspan,
                 &metrics](const TaskCost& cost) {
      TaskState& st = (*states)[i];
      // Close the launch span whether it won or lost the race: a losing
      // duplicate's whole residual is wasted (recovery) time.
      if (rec != nullptr)
        rec->close_task(tspan, sc_.machine().simulator().now(),
                        st.done ? obs::Bucket::kRecovery
                                : obs::Bucket::kOther);
      if (st.done) return;  // a duplicate already delivered this partition
      st.done = true;
      --st.live;
      FaultHooks& fault = *sc_.fault();
      sim::Simulator& sim = sc_.machine().simulator();
      const std::size_t p =
          opts.partitions != nullptr ? (*opts.partitions)[i] : i;
      metrics.total_cost += cost;
      lifetime_cost_ += cost;
      durations->push((sim.now() - st.launched).sec());
      --*remaining;
      if (st.spec_attempt >= 0 && attempt == st.spec_attempt)
        fault.on_speculative_win(stage_id, p, attempt);

      // Straggler sweep (Spark's speculative execution): once most of the
      // stage has finished, duplicate any task running far beyond the
      // median completed duration.
      const RecoveryPolicy& policy = fault.recovery();
      if (!policy.speculation || *remaining == 0) return;
      const std::size_t completed = num_tasks - *remaining;
      const auto quorum = static_cast<std::size_t>(
          std::ceil(policy.speculation_min_fraction *
                    static_cast<double>(num_tasks)));
      if (completed < quorum) return;
      const double median = durations->upper_median();
      for (std::size_t j = 0; j < states->size(); ++j) {
        TaskState& other = (*states)[j];
        if (other.done || other.speculated || other.attempts == 0) continue;
        const double running = (sim.now() - other.launched).sec();
        if (running <= median * policy.speculation_multiplier) continue;
        other.speculated = true;
        other.spec_attempt = other.attempts;
        const std::size_t pj =
            opts.partitions != nullptr ? (*opts.partitions)[j] : j;
        fault.on_speculative_launch(stage_id, pj, other.attempts);
        (*launch)(j);
      }
    };
    work.failed = [this, states, launch, i, attempt, stage_id, opts, rec,
                   tspan]() {
      TaskState& st = (*states)[i];
      // The launch died with the executor; everything it consumed is
      // recovery time from the job's perspective.
      if (rec != nullptr)
        rec->close_task(tspan, sc_.machine().simulator().now(),
                        obs::Bucket::kRecovery);
      if (st.done) return;  // zombie of an already-delivered partition
      --st.live;
      FaultHooks& fault = *sc_.fault();
      const std::size_t p =
          opts.partitions != nullptr ? (*opts.partitions)[i] : i;
      fault.on_task_failure(stage_id, p, attempt);
      if (st.live > 0) return;  // a surviving duplicate still owns the task
      TSX_CHECK(st.attempts < fault.recovery().max_task_attempts,
                "task exhausted its attempts: stage " +
                    std::to_string(stage_id) + " partition " +
                    std::to_string(p));
      // Capped exponential backoff before the relaunch, exactly Spark's
      // per-task retry discipline.
      const RecoveryPolicy& policy = fault.recovery();
      const double wait =
          std::min(std::ldexp(policy.backoff_base.sec(), attempt),
                   policy.backoff_cap.sec());
      const Duration backoff = Duration::seconds(wait);
      fault.on_retry(stage_id, p, backoff);
      sc_.machine().simulator().schedule_in(backoff,
                                            [launch, i] { (*launch)(i); });
    };
    chosen->submit(std::move(work));
  };

  for (std::size_t i = 0; i < num_tasks; ++i) (*launch)(i);

  sim::Simulator& sim = sc_.machine().simulator();
  while (*remaining > 0) {
    TSX_CHECK(sim.step() > 0,
              "deadlock: stage " + record.label + " has unfinished tasks "
              "but no pending events");
  }
}

JobMetrics DAGScheduler::run_job(const std::shared_ptr<RddBase>& final_rdd,
                                 const ResultFn& result_task,
                                 std::size_t result_partitions,
                                 const std::string& name) {
  TSX_CHECK(final_rdd != nullptr, "run_job on null RDD");

  if (!executors_launched_) {
    // Executors spin up in parallel, but each additional one registers
    // serially with the driver.
    const auto extra =
        static_cast<double>(sc_.executors().size() - 1);
    advance(sc_.conf().executor_launch +
            sc_.conf().executor_register * extra);
    executors_launched_ = true;
  }
  advance(sc_.conf().job_submit_overhead);

  JobMetrics metrics;
  metrics.job = name;
  metrics.start = sc_.now();

  obs::Recorder* const rec = sc_.obs();
  const obs::SpanId job_span =
      rec != nullptr ? rec->open_job(name, metrics.start) : 0;

  std::vector<std::shared_ptr<ShuffleDependencyBase>> shuffle_order;
  std::unordered_set<int> seen_rdds;
  std::unordered_set<int> seen_shuffles;
  collect_shuffles(*final_rdd, shuffle_order, seen_rdds, seen_shuffles);

  const bool fault_mode = sc_.fault() != nullptr;
  for (const auto& dep : shuffle_order) {
    // Record the lineage before the stage runs: a crash inside the stage
    // (or any later one) recomputes lost map output through it.
    if (fault_mode) sc_.shuffle_store().register_dependency(dep);
    const auto map_tasks = dep->parent()->num_partitions();
    const auto map_fn = [&dep](std::size_t p, TaskContext& ctx) {
      dep->run_map_task(p, ctx);
    };
    metrics.stages.push_back(run_stage("shuffle-map:" + dep->parent()->name(),
                                       map_tasks, map_fn, metrics));
    if (fault_mode) {
      sc_.shuffle_store().set_map_stage(dep->shuffle_id(),
                                        metrics.stages.back().stage_id);
      // A crash mid-stage can take already-completed map outputs down with
      // the executor; rerun exactly the lost partitions — under the
      // original stage's rng streams — before passing the barrier.
      while (true) {
        const std::vector<std::size_t> lost =
            sc_.shuffle_store().lost_parts(dep->shuffle_id());
        if (lost.empty()) break;
        StageOptions opts;
        opts.rng_stage = sc_.shuffle_store().map_stage(dep->shuffle_id());
        opts.partitions = &lost;
        metrics.stages.push_back(
            run_stage("recover:" + dep->parent()->name(), lost.size(),
                      map_fn, metrics, opts));
      }
    }
    sc_.shuffle_store().mark_complete(dep->shuffle_id());
  }

  metrics.stages.push_back(
      run_stage("result:" + final_rdd->name(), result_partitions, result_task,
                metrics));

  metrics.end = sc_.now();
  if (rec != nullptr) rec->close_job(job_span, metrics.end);
  ++jobs_run_;
  return metrics;
}

}  // namespace tsx::spark
