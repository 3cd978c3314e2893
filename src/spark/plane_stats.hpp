// Throughput counters for the parallel data plane.
//
// The 84-config identity gate compares run results, exported metrics and
// trace bytes across thread counts, so anything thread-dependent — commit
// batching, evaluation and commit wall-clock — must never reach a RunResult
// or the obs recorder attached to a run. These counters therefore live in
// a process-global struct outside every serialized artifact; bench_perf
// and the plane tests snapshot it (as an obs::MetricsRegistry, so the
// counters still speak the observability plane's canonical format) to
// attribute where wall-clock goes.
//
// Wall-clock here is real host time (std::chrono), not virtual time: the
// plane optimizes the engine's own execution cost, which the simulator
// never sees.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace tsx::spark {

/// Plain-value snapshot of PlaneStats (subtractable, copyable).
struct PlaneCounters {
  std::uint64_t stages_barrier = 0;
  std::uint64_t stages_serial = 0;
  std::uint64_t commit_tasks = 0;
  std::uint64_t commit_ops_typed = 0;
  std::uint64_t commit_ops_generic = 0;
  std::uint64_t shuffle_puts = 0;
  std::uint64_t shuffle_put_batches = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t stage_ns = 0;

  // Always 0 (no locks, no ready-wait); perfbench/driver.cpp still reads them.
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t lock_wait_ns = 0;
  std::uint64_t ready_wait_ns = 0;

  PlaneCounters operator-(const PlaneCounters& rhs) const;

  /// Renders the counters as `plane.*` rows of a metrics registry —
  /// a standalone registry, never the one a run's Recorder owns.
  obs::MetricsRegistry to_metrics() const;
};

/// Process-global counters (like ThreadBudget: the plane is a process-wide
/// execution resource, and sweeps run many contexts concurrently). Each
/// context's driver thread updates them once per stage or commit.
struct PlaneStats {
  std::atomic<std::uint64_t> stages_barrier{0};
  std::atomic<std::uint64_t> stages_serial{0};
  std::atomic<std::uint64_t> commit_tasks{0};
  std::atomic<std::uint64_t> commit_ops_typed{0};
  std::atomic<std::uint64_t> commit_ops_generic{0};
  std::atomic<std::uint64_t> shuffle_puts{0};
  std::atomic<std::uint64_t> shuffle_put_batches{0};
  std::atomic<std::uint64_t> commit_ns{0};  ///< submit + step-loop wall
  std::atomic<std::uint64_t> eval_ns{0};    ///< summed task-host wall
  std::atomic<std::uint64_t> stage_ns{0};   ///< whole parallel stage

  static PlaneStats& global();

  PlaneCounters read() const;
  void reset();
};

}  // namespace tsx::spark
