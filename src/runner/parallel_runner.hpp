// Parallel experiment execution.
//
// ParallelRunner fans a list of RunConfigs out over the work-stealing pool.
// Each worker constructs its own Simulator + MachineModel + SparkContext
// inside workloads::run_workload, so runs share no mutable state; results
// land in pre-assigned slots of the output vector, which therefore keeps
// *sweep order* regardless of completion order.
//
// Determinism contract: for the same config list, ParallelRunner returns
// results byte-identical (runner::results_identical) to a serial
// run_workload loop — seeds are fixed per config at enumeration time and
// every run is isolated, so thread count and scheduling cannot leak into any
// measured quantity. tests/runner_test.cpp enforces this.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/thread_pool.hpp"
#include "runner/result_cache.hpp"
#include "runner/sweep.hpp"

namespace tsx::runner {

/// Snapshot handed to the progress callback after every completed run.
struct Progress {
  std::size_t completed = 0;   ///< runs finished so far (cache hits included)
  std::size_t total = 0;       ///< runs in this sweep
  std::size_t cache_hits = 0;  ///< of `completed`, served from the cache
  std::size_t failures = 0;    ///< of `completed`, ended as failed results
  double elapsed_seconds = 0.0;  ///< wall clock since run() started
};

/// Called under a lock — keep it cheap (print a line, update a bar).
using ProgressFn = std::function<void(const Progress&)>;

struct RunnerOptions {
  /// Worker threads; <= 0 selects all hardware threads.
  int threads = 0;
  /// Optional memoization: hits skip the simulation, misses are inserted.
  /// Failed runs are never inserted — a retry with the same config should
  /// simulate again, not replay the failure.
  ResultCache* cache = nullptr;
  /// Optional observability for long sweeps.
  ProgressFn progress;
  /// Per-run wall-clock budget in real seconds; <= 0 = unlimited. A run
  /// exceeding it is stopped cooperatively and recorded as a failed
  /// RunResult — one runaway config cannot hang a sweep.
  double run_timeout_seconds = 0.0;
};

class ParallelRunner {
 public:
  /// Registers the worker count with the process ThreadBudget for the
  /// runner's lifetime, so each run's intra-run task pool (TSX_TASK_THREADS)
  /// is clamped to its fair share of the machine.
  explicit ParallelRunner(RunnerOptions options = {});
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  /// Executes every config; result[i] corresponds to configs[i].
  std::vector<workloads::RunResult> run(
      const std::vector<workloads::RunConfig>& configs);

  /// Sugar: enumerate + run.
  std::vector<workloads::RunResult> run(const SweepSpec& spec);

  int thread_count() const { return pool_.thread_count(); }

 private:
  RunnerOptions options_;
  ThreadPool pool_;
};

/// One-shot convenience for call sites that run a single sweep.
std::vector<workloads::RunResult> run_sweep(const SweepSpec& spec,
                                            RunnerOptions options = {});

}  // namespace tsx::runner
