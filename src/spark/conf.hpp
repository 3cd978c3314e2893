// Spark engine configuration.
//
// Mirrors the knobs the paper varies — number of executors, cores per
// executor, the NUMA/tier binding applied via numactl — plus the engine
// internals (shuffle partitions, storage fraction) it leaves at defaults.
// Defaults reproduce the paper's default deployment: one executor using all
// 40 hardware threads of one socket, bound to Tier 0.
#pragma once

#include <optional>
#include <string>

#include "core/config.hpp"
#include "mem/tier.hpp"
#include "spark/placement.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

/// SparkConf embeds PlacementSpec as a base so the placement knobs are one
/// value (`conf.placement()`) while the historical field spellings
/// (`conf.mem_bind` / `shuffle_bind` / `cache_bind`) and `conf.tier_for`
/// keep compiling unchanged at every pre-spec call site.
struct SparkConf : PlacementSpec {
  /// Number of executor processes (paper: 1..8 in Fig. 4).
  int executor_instances = 1;
  /// Cores (hardware threads) per executor (paper: 5..40).
  int cores_per_executor = 40;

  /// numactl --cpunodebind: socket whose cores every executor binds to.
  mem::SocketId cpu_node_bind = 1;

  /// The placement knobs as one value.
  PlacementSpec& placement() { return *this; }
  const PlacementSpec& placement() const { return *this; }
  SparkConf& set_placement(const PlacementSpec& spec) {
    placement() = spec;
    return *this;
  }

  /// Zero-copy shuffle over a unified memory space (Sec. IV-G's "avoid
  /// shuffling operations" direction): reducers map the producers' buffers
  /// directly instead of serializing through private copies. Halves shuffle
  /// stream traffic and skips the (de)serialization cpu.
  bool zero_copy_shuffle = false;

  /// Shuffle/reduce-side parallelism (spark.sql.shuffle.partitions
  /// analogue). 0 means "derive from total cores".
  int shuffle_partitions = 0;

  /// Host threads evaluating one stage's task functions concurrently
  /// (DESIGN.md §11). Purely an execution-speed knob: results are
  /// bit-identical for every value, so it is not part of RunConfig or any
  /// cache key. <= 1 keeps the serial data plane; fault mode always does.
  int intra_run_threads = 1;

  /// Fraction of executor memory reserved for storage (cached RDDs).
  double storage_fraction = 0.5;
  /// Executor heap analogue, used for cache-capacity accounting.
  Bytes executor_memory = Bytes::gib(16);

  /// Fixed overheads of the framework. These dominate tiny workloads, which
  /// is what makes the paper's tiny runs tier-insensitive.
  Duration executor_launch = Duration::seconds(2.0);
  /// Each *additional* executor registers serially with the driver (worker
  /// JVM spin-up + registration RPC) — the fixed price of skinny-executor
  /// deployments, which only pays off when there are enough tasks.
  Duration executor_register = Duration::millis(250);
  Duration job_submit_overhead = Duration::millis(120);
  Duration stage_overhead = Duration::millis(45);
  /// Task dispatch is serialized in the driver<->executor RPC loop; each
  /// queued task of an executor pays this in turn. With many executors the
  /// loops run in parallel — the "skinny executors" scheduling advantage.
  Duration task_dispatch = Duration::millis(3);

  /// Derived: total task slots.
  int total_cores() const { return executor_instances * cores_per_executor; }
  int effective_shuffle_partitions() const {
    return shuffle_partitions > 0 ? shuffle_partitions : total_cores();
  }

  /// Builds a SparkConf from a generic Config (e.g. parsed CLI flags):
  /// keys spark.executor.instances, spark.executor.cores, spark.cpu.node,
  /// spark.mem.tier, spark.shuffle.partitions.
  static SparkConf from(const Config& config);

  std::string describe() const;
};

}  // namespace tsx::spark
