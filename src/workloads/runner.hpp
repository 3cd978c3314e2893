// Experiment runner: one isolated simulated run per configuration.
//
// A run builds a fresh Simulator + MachineModel + DFS + SparkContext, binds
// executors per the configuration (tier, socket, executor/core grid, MBA
// throttle), executes one workload at one scale, and snapshots everything
// the paper measures: execution time, per-node traffic, ipmctl-style NVDIMM
// counters, DIMM energy, wear, and synthesized system-level events. All
// bench harnesses and experiment-shape tests go through this entry point.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "columnar/options.hpp"
#include "dfs/options.hpp"
#include "fault/options.hpp"
#include "mem/energy.hpp"
#include "mem/tier.hpp"
#include "mem/traffic.hpp"
#include "mem/wear.hpp"
#include "metrics/nvdimm.hpp"
#include "metrics/system_events.hpp"
#include "obs/options.hpp"
#include "obs/recorder.hpp"
#include "spark/placement.hpp"
#include "tiering/options.hpp"
#include "workloads/apps.hpp"
#include "workloads/scales.hpp"

namespace tsx::workloads {

/// Which machine the run simulates.
enum class MachineVariant {
  kDramNvm,  ///< the paper's testbed: DDR4 + Optane DCPM
  kDramCxl,  ///< what-if variant: DDR4 + CXL-DRAM expanders
};

std::string to_string(MachineVariant variant);

struct RunConfig {
  App app = App::kSort;
  ScaleId scale = ScaleId::kTiny;
  mem::TierId tier = mem::TierId::kTier0;
  mem::SocketId socket = 1;      ///< cpunodebind
  int executors = 1;             ///< paper default: 1 executor ...
  int cores_per_executor = 40;   ///< ... with all 40 hardware threads
  int mba_percent = 100;         ///< Intel MBA throttle (Fig. 3)
  std::uint64_t seed = 42;

  /// Per-access-type placement overrides (Sec. IV-G exploration): bind
  /// shuffle buffers / cached blocks to tiers other than the heap.
  std::optional<mem::TierId> shuffle_tier;
  std::optional<mem::TierId> cache_tier;
  /// Zero-copy shuffle over unified memory (Sec. IV-G's shuffle-avoidance).
  bool zero_copy_shuffle = false;

  /// The three placement knobs (tier / shuffle_tier / cache_tier) as one
  /// spark::PlacementSpec value; `config_fields` consumes this spec
  /// canonically, so the spec is the single source of placement identity.
  spark::PlacementSpec placement() const;
  RunConfig& set_placement(const spark::PlacementSpec& spec);

  /// Structured diagnostics over every knob: deployment sanity (executor
  /// and core counts, socket range, MBA window), over-capacity binds (the
  /// cached-block budget the deployment implies against the cache tier's
  /// node capacity), the tiering section (when a dynamic policy is active),
  /// the fault section (when enabled), and cross-subsystem conflicts.
  /// Empty means the config is runnable. `run_workload` and service
  /// admission both enforce this, replacing scattered ad-hoc checks.
  std::vector<Diagnostic> validate() const;

  /// Noisy-neighbor pressure: a background tenant streaming this many GB/s
  /// through the bound tier's channel for the whole run (0 = quiet).
  double background_load_gbps = 0.0;

  /// Capacity-tier technology (Optane testbed vs CXL what-if).
  MachineVariant machine = MachineVariant::kDramNvm;

  /// Dynamic page-migration subsystem. The default (`static` policy) runs
  /// the exact pre-tiering code path — the engine is not even constructed.
  tiering::TieringConfig tiering;

  /// Fault injection + recovery. The default (`enabled = false`) runs the
  /// exact pre-fault code path — the controller is not even constructed.
  fault::FaultConfig fault;

  /// Cluster DFS: topology, redundancy codec, repair pipeline. The default
  /// (replication-1, one datanode) reproduces the flat single-disk cost
  /// model bit for bit.
  dfs::DfsConfig dfs;

  /// Vectorized columnar execution. The default (`enabled = false`) runs
  /// the exact row-at-a-time code path — the columnar runtime is not even
  /// constructed. When enabled, workloads with a columnar port (sort,
  /// pagerank) execute through the query layer instead.
  columnar::ColumnarConfig columnar;

  /// Observability plane: span tracing + metrics + tier-time attribution.
  /// The default (`enabled = false`) records nothing — the recorder is not
  /// even constructed and every hook site is one null-pointer branch.
  obs::ObsConfig obs;

  std::string describe() const;

  /// Two configs are equal iff every knob matches — the identity the result
  /// cache memoizes on (a run is a pure function of its config).
  friend bool operator==(const RunConfig&, const RunConfig&) = default;
};

/// The config flattened to (field name, value) pairs. Every knob that can
/// change a run's outcome appears here; this list is the single source of
/// truth for hashing and for the persisted cache key.
std::vector<std::pair<std::string, std::string>> config_fields(
    const RunConfig& config);

/// Canonical identity string: `config_fields` sorted by field name and
/// joined as "name=value;...". Sorting makes the key — and therefore the
/// hash — independent of struct or serialization field order.
std::string canonical_key(const RunConfig& config);

/// FNV-1a over a field list, sorted by name first. Exposed so tests can
/// assert order independence directly.
std::uint64_t hash_fields(
    std::vector<std::pair<std::string, std::string>> fields);

/// Stable 64-bit hash of a config (FNV-1a of `canonical_key`). Identical
/// across processes and runs; suitable as a persisted cache key.
std::uint64_t stable_hash(const RunConfig& config);

struct NodeEnergyRow {
  std::string node;
  mem::TechKind kind = mem::TechKind::kDram;
  int dimms = 0;
  mem::NodeEnergyReport report;
};

struct RunResult {
  RunConfig config;
  Duration exec_time;
  spark::TaskCost total_cost;
  std::size_t jobs = 0;
  std::size_t stages = 0;
  std::size_t tasks = 0;

  /// Demand traffic per memory node (index = NodeId).
  std::vector<mem::NodeTraffic> traffic;
  /// ipmctl view over all NVDIMMs.
  metrics::DimmMediaCounters nvdimm;
  /// Energy per node over the run window.
  std::vector<NodeEnergyRow> energy;
  /// Wear of the bound NVM node (zeros when bound to DRAM).
  mem::WearReport wear;
  /// Synthesized perf events.
  metrics::SystemEventSample events;
  /// What the tiering engine did (all-zero under the static policy).
  tiering::TieringStats tiering;
  /// What the fault plane injected and what recovery cost (all-zero when
  /// faults are disabled).
  fault::FaultStats fault;
  /// What the columnar runtime did (all-zero when columnar is off).
  columnar::ColumnarStats columnar;
  /// What the storage tier lost and what repair cost (all-zero without
  /// storage faults).
  dfs::DfsStats dfs;

  /// Host (real) seconds spent inside stage task execution, summed over the
  /// run's stages. Deliberately kept out of serialization — wall-clock is
  /// machine-dependent and must not perturb the bit-identity gates; the
  /// perf bench reads it to compare row vs columnar execution speed.
  /// Summed per task across threads: with TSX_TASK_THREADS > 1 it can
  /// exceed the run's wall-clock.
  double host_execute_seconds = 0.0;

  /// The run's finalized span recorder (null unless `config.obs.enabled`).
  /// Like host_execute_seconds this is deliberately NOT serialized: the
  /// trace is a side artifact, and results_identical must keep comparing
  /// the simulation outcome only.
  std::shared_ptr<const obs::Recorder> trace;

  bool valid = false;
  std::string validation;

  /// True when the run itself died — an exception or a wall-clock timeout
  /// escaped the simulation. `error` then carries the reason and every
  /// metric above is default-initialized. Failed results are never cached.
  bool failed = false;
  std::string error;

  /// Energy of the bound tier's node, per DIMM (what Fig. 2-bottom plots).
  Energy bound_node_energy_per_dimm() const;
  /// Convenience: the bound node id for this run.
  mem::NodeId bound_node = 0;
};

/// Throws tsx::Error itemizing every `validate()` diagnostic; no-op on a
/// valid config.
void validate_or_throw(const RunConfig& config);

/// Executes one configuration start-to-finish in an isolated simulation.
/// Invalid configs (see RunConfig::validate) throw tsx::Error up front.
/// `wall_budget_seconds` > 0 arms a cooperative real-time budget on the
/// run's simulator: a run exceeding it throws tsx::Error (callers that
/// sandbox runs turn that into a failed RunResult).
RunResult run_workload(const RunConfig& config,
                       double wall_budget_seconds = 0.0);

/// A failed-run placeholder: config + failed flag + error string, every
/// metric zeroed. What ParallelRunner records when a run throws.
RunResult failed_result(const RunConfig& config, const std::string& error);

/// Number of simulations `run_workload` has executed in this process.
/// Monotone, thread-safe; lets callers assert a cache hit skipped the
/// simulation and lets progress reporters count real work.
std::uint64_t runs_executed();

/// Executes `repeats` runs with distinct seeds (for distribution studies).
std::vector<RunResult> run_repeats(RunConfig config, int repeats);

}  // namespace tsx::workloads
