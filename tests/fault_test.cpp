// Tests for tsx::fault: the deterministic injection plan, the named
// scenarios, the controller's hooks, and the FaultInvariants acceptance
// suite — faulted runs recover to byte-identical workload results, the same
// seed replays the same schedule, and recovery work is charged to the
// memory system.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/error.hpp"
#include "dfs/dfs.hpp"
#include "fault/controller.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "mem/machine.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/context.hpp"
#include "workloads/runner.hpp"

namespace tsx::fault {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

// The tiny 2-executor deployment the recovery drills run on. Virtual
// timing of a tiny run: executor launch + registration occupy the first
// ~2.4 s, the compute stages the last ~0.3 s — injection times below are
// chosen to land mid-stage.
RunConfig drill_config(App app) {
  RunConfig cfg;
  cfg.app = app;
  cfg.scale = ScaleId::kTiny;
  cfg.executors = 2;
  cfg.cores_per_executor = 20;
  return cfg;
}

FaultConfig mid_stage_crash(double offset_s) {
  FaultConfig f = scenario("crash");
  f.crash_offset_s = offset_s;
  f.crash_window_s = 0.02;
  f.restart_delay_s = 0.2;
  return f;
}

// --- plan -----------------------------------------------------------------

TEST(FaultPlan, SameInputsSamePlan) {
  FaultConfig cfg = scenario("chaos");
  const FaultPlan a = build_plan(cfg, 42, 4);
  const FaultPlan b = build_plan(cfg, 42, 4);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at.v, b.crashes[i].at.v);
    EXPECT_EQ(a.crashes[i].executor, b.crashes[i].executor);
  }
  EXPECT_EQ(a.uce_thresholds_gib, b.uce_thresholds_gib);
}

TEST(FaultPlan, SaltDecorrelatesTheSchedule) {
  FaultConfig cfg = scenario("crash");
  FaultConfig salted = cfg;
  salted.salt = 0x5eedULL;
  const FaultPlan a = build_plan(cfg, 42, 8);
  const FaultPlan b = build_plan(salted, 42, 8);
  ASSERT_EQ(a.crashes.size(), 1u);
  ASSERT_EQ(b.crashes.size(), 1u);
  EXPECT_NE(a.crashes[0].at.v, b.crashes[0].at.v);
}

TEST(FaultPlan, CrashesRespectOffsetAndWindow) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.executor_crashes = 16;
  cfg.crash_offset_s = 3.0;
  cfg.crash_window_s = 2.0;
  const FaultPlan plan = build_plan(cfg, 7, 4);
  ASSERT_EQ(plan.crashes.size(), 16u);
  Duration prev = Duration::zero();
  for (const PlannedCrash& c : plan.crashes) {
    EXPECT_GE(c.at.sec(), 3.0);
    EXPECT_LE(c.at.sec(), 5.0);
    EXPECT_GE(c.at.v, prev.v);  // sorted
    EXPECT_GE(c.executor, 0);
    EXPECT_LT(c.executor, 4);
    prev = c.at;
  }
}

TEST(FaultPlan, UceThresholdsAreIncreasing) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.uce_per_gib = 0.5;
  const FaultPlan plan = build_plan(cfg, 9, 1);
  ASSERT_FALSE(plan.uce_thresholds_gib.empty());
  double prev = 0.0;
  for (const double t : plan.uce_thresholds_gib) {
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// --- scenarios ------------------------------------------------------------

TEST(Scenario, KnownNamesParse) {
  for (const std::string& name : scenario_names()) {
    const FaultConfig cfg = scenario(name);
    EXPECT_EQ(cfg.enabled, name != "none") << name;
  }
}

TEST(Scenario, UnknownNameThrows) {
  EXPECT_THROW(scenario("meteor-strike"), tsx::Error);
}

TEST(Scenario, ChaosCombinesFaultClasses) {
  const FaultConfig cfg = scenario("chaos");
  EXPECT_GT(cfg.executor_crashes, 1);
  EXPECT_GE(cfg.offline_tier, 0);
  EXPECT_GT(cfg.straggler_prob, 0.0);
  EXPECT_GE(cfg.bw_collapse_at_s, 0.0);
  EXPECT_GT(cfg.uce_per_gib, 0.0);
}

// --- controller on a live context ----------------------------------------

struct Engine {
  sim::Simulator simulator;
  mem::MachineModel machine{simulator};
  dfs::Dfs dfs;
  spark::SparkConf conf;
  std::unique_ptr<spark::SparkContext> sc;

  Engine() {
    conf.executor_instances = 2;
    conf.cores_per_executor = 4;
    sc = std::make_unique<spark::SparkContext>(machine, dfs, conf, 42);
  }
};

TEST(Controller, RejectsBadConfigs) {
  Engine e;
  EXPECT_THROW(Controller(*e.sc, FaultConfig{}), tsx::Error);  // disabled
  FaultConfig bad = scenario("crash");
  bad.max_task_attempts = 0;
  EXPECT_THROW(Controller(*e.sc, bad), tsx::Error);
  bad = scenario("crash");
  bad.bw_collapse_factor = 0.0;
  EXPECT_THROW(Controller(*e.sc, bad), tsx::Error);
}

TEST(Controller, StartAttachesAndDestructorDetaches) {
  Engine e;
  {
    Controller controller(*e.sc, scenario("crash"));
    EXPECT_EQ(e.sc->fault(), nullptr);
    controller.start();
    EXPECT_EQ(e.sc->fault(), &controller);
  }
  EXPECT_EQ(e.sc->fault(), nullptr);
}

TEST(Controller, PolicyReflectsConfig) {
  Engine e;
  FaultConfig cfg = scenario("crash");
  cfg.max_task_attempts = 7;
  cfg.backoff_base_ms = 10.0;
  cfg.speculation = false;
  Controller controller(*e.sc, cfg);
  EXPECT_EQ(controller.recovery().max_task_attempts, 7);
  EXPECT_DOUBLE_EQ(controller.recovery().backoff_base.sec(), 0.010);
  EXPECT_FALSE(controller.recovery().speculation);
}

TEST(Controller, AllTiersOnlineByDefault) {
  Engine e;
  Controller controller(*e.sc, scenario("crash"));
  for (const mem::TierId t :
       {mem::TierId::kTier0, mem::TierId::kTier1, mem::TierId::kTier2,
        mem::TierId::kTier3}) {
    EXPECT_TRUE(controller.tier_online(t));
    EXPECT_EQ(controller.effective_tier(t, Bytes::of(64)), t);
  }
  EXPECT_EQ(controller.stats().rerouted_requests, 0u);
}

TEST(Controller, StraggleDrawIsDeterministicAndTraced) {
  Engine e;
  FaultConfig cfg = scenario("straggler");
  cfg.straggler_prob = 1.0;  // every first launch straggles
  Controller controller(*e.sc, cfg);
  const double f1 = controller.straggle_factor(3, 5, 0);
  EXPECT_DOUBLE_EQ(f1, cfg.straggler_factor);
  // Retries and speculative duplicates never straggle.
  EXPECT_DOUBLE_EQ(controller.straggle_factor(3, 5, 1), 1.0);
  EXPECT_EQ(controller.stats().stragglers, 1u);
  EXPECT_EQ(controller.trace().by_category("fault.inject").size(), 1u);
}

TEST(Controller, RecoveryCallbacksAccumulateStatsAndTraces) {
  Engine e;
  Controller controller(*e.sc, scenario("crash"));
  controller.on_task_failure(1, 2, 0);
  controller.on_retry(1, 2, Duration::millis(50));
  controller.on_retry(1, 2, Duration::millis(100));
  controller.on_speculative_launch(1, 3, 1);
  controller.on_speculative_win(1, 3, 1);
  controller.on_recomputed_map_task(0, 4);
  const FaultStats& s = controller.stats();
  EXPECT_EQ(s.task_failures, 1u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_DOUBLE_EQ(s.backoff_wait_seconds, 0.150);
  EXPECT_EQ(s.speculative_launches, 1u);
  EXPECT_EQ(s.speculative_wins, 1u);
  EXPECT_EQ(s.recomputed_map_tasks, 1u);
  EXPECT_EQ(controller.trace().by_category("fault.recover").size(), 6u);
}

// --- block manager fault surface ------------------------------------------

TEST(BlockManagerFaults, DropOwnedByRemovesOnlyTheVictims) {
  Engine e;
  spark::BlockManager& bm = e.sc->block_manager();
  bm.put({1, 0}, 10, Bytes::of(1024), 0);
  bm.put({1, 1}, 11, Bytes::of(1024), 1);
  bm.put({1, 2}, 12, Bytes::of(1024), 0);
  bm.put({1, 3}, 13, Bytes::of(1024), -1);
  EXPECT_EQ(bm.drop_owned_by(0), 2u);
  EXPECT_EQ(bm.block_count(), 2u);
  EXPECT_FALSE(bm.has({1, 0}));
  EXPECT_TRUE(bm.has({1, 1}));
  EXPECT_TRUE(bm.has({1, 3}));
  EXPECT_EQ(bm.drop_owned_by(0), 0u);  // idempotent
}

/// Tiering observer that only records which regions were dropped.
class DropRecorder : public spark::TieringHooks {
 public:
  void on_region_put(spark::StreamClass, spark::RegionId, Bytes) override {}
  void on_region_access(spark::StreamClass, spark::RegionId, Bytes,
                        mem::AccessKind) override {}
  void on_region_drop(spark::StreamClass, spark::RegionId id) override {
    dropped.push_back(id);
  }
  std::vector<spark::TierShare> traffic_split(
      spark::StreamClass) const override {
    return {};
  }

  std::vector<spark::RegionId> dropped;
};

TEST(BlockManagerFaults, DropLruPoisonsTheColdestBlock) {
  DropRecorder hooks;  // outlives the engine: its teardown drops blocks too
  Engine e;
  spark::BlockManager& bm = e.sc->block_manager();
  bm.set_tiering(&hooks);
  bm.put({2, 0}, 20, Bytes::of(512), 0);
  bm.put({2, 1}, 21, Bytes::of(512), 0);
  bm.get({2, 0});  // 2,0 becomes most recently used; 2,1 is now LRU
  EXPECT_TRUE(bm.drop_lru());
  EXPECT_TRUE(bm.has({2, 0}));
  EXPECT_FALSE(bm.has({2, 1}));
  // The tiering observer hears about the victim it actually lost.
  EXPECT_EQ(hooks.dropped,
            std::vector<spark::RegionId>{spark::cache_region(2, 1)});
  EXPECT_TRUE(bm.drop_lru());
  EXPECT_FALSE(bm.drop_lru());  // empty store
}

// --- shuffle store fault surface ------------------------------------------

TEST(ShuffleStoreFaults, InvalidateOwnedByMarksPartsLost) {
  Engine e;
  spark::ShuffleStore& store = e.sc->shuffle_store();
  const int sid = store.register_shuffle(3, 2);
  for (std::size_t m = 0; m < 3; ++m)
    for (std::size_t r = 0; r < 2; ++r)
      store.put_bucket(sid, m, r, int(m * 2 + r), Bytes::of(100),
                       m == 1 ? 1 : 0);
  EXPECT_TRUE(store.lost_parts(sid).empty());
  EXPECT_EQ(store.invalidate_owned_by(0), 2u);
  const auto lost = store.lost_parts(sid);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0], 0u);
  EXPECT_EQ(lost[1], 2u);
  // The survivor's buckets are intact.
  EXPECT_DOUBLE_EQ(store.bucket_size(sid, 1, 0).b(), 100.0);
  // A rewrite (recovery) clears the lost mark.
  store.put_bucket(sid, 0, 0, 0, Bytes::of(100), 1);
  EXPECT_EQ(store.lost_parts(sid).size(), 1u);
}

// --- FaultInvariants: the acceptance drills -------------------------------

TEST(FaultInvariants, CrashMidStageRecoversToIdenticalResults) {
  const RunConfig base_cfg = drill_config(App::kSort);
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);

  RunConfig cfg = base_cfg;
  cfg.fault = mid_stage_crash(2.64);  // inside the 40-task sort stage
  const RunResult r = workloads::run_workload(cfg);

  EXPECT_EQ(r.fault.crashes, 1u);
  EXPECT_GT(r.fault.task_failures, 0u);
  EXPECT_GT(r.fault.retries, 0u);
  EXPECT_GT(r.fault.backoff_wait_seconds, 0.0);
  // The recovered run produces byte-identical workload results.
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
  // Recovery is not free: the crash pushes the run past the clean time.
  EXPECT_GT(r.exec_time.sec(), base.exec_time.sec());
}

TEST(FaultInvariants, LineageRecomputesLostMapOutputAndCachedBlocks) {
  const RunConfig base_cfg = drill_config(App::kPagerank);
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);

  RunConfig cfg = base_cfg;
  cfg.fault = mid_stage_crash(2.84);  // inside the iteration stages
  const RunResult r = workloads::run_workload(cfg);

  EXPECT_EQ(r.fault.crashes, 1u);
  EXPECT_GT(r.fault.lost_shuffle_outputs, 0u);
  EXPECT_GT(r.fault.recomputed_map_tasks, 0u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(FaultInvariants, SameSeedReplaysIdenticalFaultsAndMetrics) {
  RunConfig cfg = drill_config(App::kPagerank);
  cfg.fault = mid_stage_crash(2.84);
  const RunResult a = workloads::run_workload(cfg);
  const RunResult b = workloads::run_workload(cfg);
  // Everything — exec time, traffic, energy, the fault bill — replays
  // bit for bit, which is what makes fault runs cacheable.
  EXPECT_TRUE(runner::results_identical(a, b));
  EXPECT_EQ(a.exec_time.v, b.exec_time.v);
  EXPECT_EQ(a.fault.task_failures, b.fault.task_failures);
  EXPECT_EQ(a.fault.recomputed_map_tasks, b.fault.recomputed_map_tasks);
}

TEST(FaultInvariants, RecomputationTrafficIsChargedToTheMemorySystem) {
  const RunConfig base_cfg = drill_config(App::kPagerank);
  const RunResult base = workloads::run_workload(base_cfg);

  RunConfig cfg = base_cfg;
  cfg.fault = mid_stage_crash(2.84);
  const RunResult r = workloads::run_workload(cfg);
  ASSERT_GT(r.fault.recomputed_map_tasks, 0u);

  // The recomputed map tasks re-read inputs and re-write buckets through
  // the serving tier, so the bound node's demand traffic must exceed the
  // fault-free run's.
  const auto node = static_cast<std::size_t>(base.bound_node);
  const double base_bytes = base.traffic[node].read_bytes.b() +
                            base.traffic[node].write_bytes.b();
  const double fault_bytes = r.traffic[node].read_bytes.b() +
                             r.traffic[node].write_bytes.b();
  EXPECT_GT(fault_bytes, base_bytes);
}

TEST(FaultInvariants, TierOfflineDegradesGracefully) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.tier = mem::TierId::kTier2;  // bind the heap to the 4-DIMM NVM
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("dimm-offline");
  cfg.fault.offline_at_s = 0.5;  // before any demand traffic
  const RunResult r = workloads::run_workload(cfg);

  EXPECT_EQ(r.fault.tier_offline_events, 1u);
  EXPECT_GT(r.fault.rerouted_requests, 0u);
  EXPECT_GT(r.fault.rerouted_bytes.b(), 0.0);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
  // The dead node serves nothing; its demand traffic collapses to zero.
  const auto dead = static_cast<std::size_t>(base.bound_node);
  EXPECT_GT(base.traffic[dead].read_bytes.b() +
                base.traffic[dead].write_bytes.b(),
            0.0);
  EXPECT_DOUBLE_EQ(r.traffic[dead].read_bytes.b() +
                       r.traffic[dead].write_bytes.b(),
                   0.0);
}

TEST(FaultInvariants, UncorrectableErrorsFollowWriteChurn) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.tier = mem::TierId::kTier2;
  cfg.fault = scenario("uce");
  // A tiny run writes well under a GiB; accelerate wear so the churn
  // thresholds fire inside the run.
  cfg.fault.uce_per_gib = 10000.0;
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_GT(r.fault.uce_events, 0u);
  EXPECT_TRUE(r.valid);
}

TEST(FaultInvariants, StragglersDrawDeterministicallyAndRunCompletes) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.fault = scenario("straggler");
  cfg.fault.straggler_prob = 0.25;
  const RunResult a = workloads::run_workload(cfg);
  const RunResult b = workloads::run_workload(cfg);
  EXPECT_GT(a.fault.stragglers, 0u);
  EXPECT_EQ(a.fault.stragglers, b.fault.stragglers);
  EXPECT_TRUE(a.valid);
}

TEST(FaultInvariants, ChaosScenarioStillValidates) {
  RunConfig cfg = drill_config(App::kBayes);
  cfg.fault = scenario("chaos");
  // Land the drawn crash window inside the tiny run's compute phase.
  cfg.fault.crash_offset_s = 2.45;
  cfg.fault.crash_window_s = 0.4;
  cfg.fault.restart_delay_s = 0.2;
  cfg.fault.offline_at_s = 2.5;
  cfg.fault.bw_collapse_at_s = 2.5;
  cfg.fault.bw_collapse_duration_s = 0.2;
  const RunResult base = workloads::run_workload(drill_config(App::kBayes));
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.fault.crashes, 2u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

// --- storage fault plan ---------------------------------------------------

TEST(FaultPlan, DatanodeDrawsAreDeterministic) {
  FaultConfig cfg = scenario("datanode-loss");
  cfg.datanode_crashes = 3;
  cfg.datanode_crash_window_s = 0.5;
  const FaultPlan a = build_plan(cfg, 42, 4, 12);
  const FaultPlan b = build_plan(cfg, 42, 4, 12);
  ASSERT_EQ(a.datanode_crashes.size(), 3u);
  ASSERT_EQ(b.datanode_crashes.size(), 3u);
  std::set<int> victims;
  Duration prev = Duration::zero();
  for (std::size_t i = 0; i < a.datanode_crashes.size(); ++i) {
    EXPECT_EQ(a.datanode_crashes[i].at.v, b.datanode_crashes[i].at.v);
    EXPECT_EQ(a.datanode_crashes[i].node, b.datanode_crashes[i].node);
    EXPECT_GE(a.datanode_crashes[i].at.sec(), cfg.datanode_crash_at_s);
    EXPECT_LE(a.datanode_crashes[i].at.sec(),
              cfg.datanode_crash_at_s + cfg.datanode_crash_window_s);
    EXPECT_GE(a.datanode_crashes[i].at.v, prev.v);  // sorted
    EXPECT_GE(a.datanode_crashes[i].node, 0);
    EXPECT_LT(a.datanode_crashes[i].node, 12);
    victims.insert(a.datanode_crashes[i].node);
    prev = a.datanode_crashes[i].at;
  }
  EXPECT_EQ(victims.size(), 3u);  // drawn without replacement
}

TEST(FaultPlan, DatanodeDrawsDoNotPerturbOlderSchedules) {
  // Storage victims are drawn after every pre-existing draw, so enabling
  // them must not move the crash times or the UCE thresholds.
  FaultConfig cfg = scenario("chaos");
  FaultConfig with_nodes = cfg;
  with_nodes.datanode_crashes = 2;
  const FaultPlan a = build_plan(cfg, 42, 4, 8);
  const FaultPlan b = build_plan(with_nodes, 42, 4, 8);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at.v, b.crashes[i].at.v);
    EXPECT_EQ(a.crashes[i].executor, b.crashes[i].executor);
  }
  EXPECT_EQ(a.uce_thresholds_gib, b.uce_thresholds_gib);
  EXPECT_TRUE(a.datanode_crashes.empty());
  EXPECT_EQ(b.datanode_crashes.size(), 2u);
}

TEST(Scenario, StorageScenariosDescribeStorageFaults) {
  const FaultConfig dn = scenario("datanode-loss");
  EXPECT_EQ(dn.datanode_crashes, 1);
  const FaultConfig rack = scenario("rack-offline");
  EXPECT_EQ(rack.rack_offline, 0);
  EXPECT_GE(rack.rack_offline_at_s, 0.0);
  EXPECT_GT(rack.rack_recover_after_s, 0.0);
  const FaultConfig compound = scenario("dimm-datanode");
  EXPECT_GE(compound.offline_tier, 0);
  EXPECT_EQ(compound.datanode_crashes, 1);
  const FaultConfig cr = scenario("crash-rack");
  EXPECT_EQ(cr.executor_crashes, 1);
  EXPECT_EQ(cr.rack_offline, 0);
}

// --- storage recovery drills ----------------------------------------------

dfs::DfsConfig drill_rs_dfs() {
  dfs::DfsConfig d;
  d.codec = dfs::CodecKind::kRs;
  d.rs_k = 6;
  d.rs_m = 3;
  d.racks = 3;
  d.nodes_per_rack = 4;  // 12 nodes: stripes cover 9, leaving repair spares
  return d;
}

dfs::DfsConfig drill_rep_dfs() {
  dfs::DfsConfig d;
  d.codec = dfs::CodecKind::kReplication;
  d.replication = 3;
  d.racks = 3;
  d.nodes_per_rack = 2;  // 6 nodes: replicas cover 3, leaving spares
  return d;
}

TEST(StorageDrills, DatanodeLossUnderReplicationKeepsResultsIdentical) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.dfs = drill_rep_dfs();
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);
  EXPECT_EQ(base.dfs.datanodes_lost, 0u);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("datanode-loss");
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.dfs.datanodes_lost, 1u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(StorageDrills, DatanodeLossUnderRsRepairsInBackground) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.dfs = drill_rs_dfs();
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("datanode-loss");
  cfg.fault.datanode_crashes = 2;  // two victims: chunk loss is certain
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.dfs.datanodes_lost, 2u);
  EXPECT_GT(r.dfs.chunks_lost, 0u);
  EXPECT_GT(r.dfs.repair_waves, 0u);
  EXPECT_GT(r.dfs.chunks_repaired, 0u);
  // The repair bill is itemized: bytes moved and channel time occupied.
  EXPECT_GT(r.dfs.repair_read_bytes.b(), 0.0);
  EXPECT_GT(r.dfs.repair_write_bytes.b(), 0.0);
  EXPECT_GT(r.dfs.repair_seconds, 0.0);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(StorageDrills, RackOfflineHealsAndCancelsStaleRepairs) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.dfs = drill_rs_dfs();
  const RunResult base = workloads::run_workload(base_cfg);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("rack-offline");
  cfg.fault.rack_recover_after_s = 0.1;  // heal while the run is still live
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.dfs.racks_lost, 1u);
  EXPECT_EQ(r.dfs.racks_recovered, 1u);
  EXPECT_GT(r.dfs.chunks_lost, 0u);
  EXPECT_GT(r.dfs.repair_waves, 0u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(StorageDrills, DimmOfflinePlusDatanodeLossCompound) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.tier = mem::TierId::kTier2;  // bind the heap to the NVM tier
  base_cfg.dfs = drill_rs_dfs();
  const RunResult base = workloads::run_workload(base_cfg);
  ASSERT_TRUE(base.valid);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("dimm-datanode");
  cfg.fault.offline_at_s = 0.5;  // land the DIMM loss inside the tiny run
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.fault.tier_offline_events, 1u);
  EXPECT_GT(r.fault.rerouted_requests, 0u);
  EXPECT_EQ(r.dfs.datanodes_lost, 1u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(StorageDrills, ExecutorCrashPlusRackPartitionCompound) {
  RunConfig base_cfg = drill_config(App::kSort);
  base_cfg.dfs = drill_rs_dfs();
  const RunResult base = workloads::run_workload(base_cfg);

  RunConfig cfg = base_cfg;
  cfg.fault = scenario("crash-rack");
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_EQ(r.fault.crashes, 1u);
  EXPECT_GT(r.fault.task_failures, 0u);
  EXPECT_EQ(r.dfs.racks_lost, 1u);
  EXPECT_GT(r.dfs.chunks_lost, 0u);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.validation, base.validation);
}

TEST(StorageDrills, CompoundDrillReplaysBitForBit) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.dfs = drill_rs_dfs();
  cfg.fault = scenario("dimm-datanode");
  cfg.fault.offline_at_s = 0.5;
  cfg.tier = mem::TierId::kTier2;
  const RunResult a = workloads::run_workload(cfg);
  const RunResult b = workloads::run_workload(cfg);
  EXPECT_TRUE(runner::results_identical(a, b));
  EXPECT_EQ(a.dfs.chunks_lost, b.dfs.chunks_lost);
  EXPECT_EQ(a.dfs.chunks_repaired, b.dfs.chunks_repaired);
  EXPECT_DOUBLE_EQ(a.dfs.repair_read_bytes.b(), b.dfs.repair_read_bytes.b());
}

TEST(StorageDrills, StorageFaultsRequireARedundantCluster) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.fault = scenario("datanode-loss");  // default dfs: 1 node, no codec
  EXPECT_FALSE(cfg.validate().empty());
  EXPECT_THROW(workloads::run_workload(cfg), tsx::Error);
  cfg.dfs = drill_rep_dfs();
  EXPECT_TRUE(cfg.validate().empty());
}

// --- run identity ---------------------------------------------------------

TEST(FaultIdentity, FaultKnobsAreInTheStableHash) {
  const RunConfig base;
  const auto differs = [&](auto&& tweak) {
    RunConfig cfg;
    tweak(cfg);
    return workloads::stable_hash(cfg) != workloads::stable_hash(base);
  };
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.enabled = true; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.salt = 1; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.executor_crashes = 1; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.offline_tier = 2; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.uce_per_gib = 0.5; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.straggler_prob = 0.1; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.max_task_attempts = 2; }));
  EXPECT_NE(workloads::canonical_key(base).find("fault_enabled=0"),
            std::string::npos);
}

TEST(FaultIdentity, DfsAndStorageFaultKnobsAreInTheStableHash) {
  const RunConfig base;
  const auto differs = [&](auto&& tweak) {
    RunConfig cfg;
    tweak(cfg);
    return workloads::stable_hash(cfg) != workloads::stable_hash(base);
  };
  EXPECT_TRUE(differs([](RunConfig& c) {
    c.dfs.codec = dfs::CodecKind::kRs;
  }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.replication = 3; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.rs_k = 4; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.rs_m = 2; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.racks = 3; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.nodes_per_rack = 4; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.block_mib = 64.0; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.repair_gbps = 1.0; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.dfs.rack_link_gbps = 2.0; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.datanode_crashes = 1; }));
  EXPECT_TRUE(differs([](RunConfig& c) { c.fault.rack_offline = 0; }));
  EXPECT_NE(workloads::canonical_key(base).find("dfs_codec=0"),
            std::string::npos);
}

TEST(FaultIdentity, StorageDrillResultsRoundTripThroughJson) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.dfs = drill_rs_dfs();
  cfg.fault = scenario("datanode-loss");
  cfg.fault.datanode_crashes = 2;
  const RunResult original = workloads::run_workload(cfg);
  ASSERT_GT(original.dfs.chunks_lost, 0u);
  RunResult decoded;
  ASSERT_TRUE(runner::result_from_json(runner::to_json(original), &decoded));
  EXPECT_TRUE(runner::results_identical(original, decoded));
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.dfs.chunks_lost, original.dfs.chunks_lost);
  EXPECT_EQ(decoded.dfs.chunks_repaired, original.dfs.chunks_repaired);
  EXPECT_DOUBLE_EQ(decoded.dfs.repair_read_bytes.b(),
                   original.dfs.repair_read_bytes.b());
  EXPECT_DOUBLE_EQ(decoded.dfs.repair_seconds, original.dfs.repair_seconds);
}

TEST(FaultIdentity, FaultedResultsRoundTripThroughJson) {
  RunConfig cfg = drill_config(App::kSort);
  cfg.fault = mid_stage_crash(2.64);
  const RunResult original = workloads::run_workload(cfg);
  ASSERT_GT(original.fault.retries, 0u);
  RunResult decoded;
  ASSERT_TRUE(runner::result_from_json(runner::to_json(original), &decoded));
  EXPECT_TRUE(runner::results_identical(original, decoded));
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.fault.retries, original.fault.retries);
  EXPECT_EQ(decoded.fault.rerouted_bytes.b(),
            original.fault.rerouted_bytes.b());
}

TEST(FaultIdentity, FailedResultCarriesTheError) {
  const RunConfig cfg;
  const RunResult r = workloads::failed_result(cfg, "wall budget exceeded");
  EXPECT_TRUE(r.failed);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.error, "wall budget exceeded");
  RunResult decoded;
  ASSERT_TRUE(runner::result_from_json(runner::to_json(r), &decoded));
  EXPECT_TRUE(decoded.failed);
  EXPECT_EQ(decoded.error, "wall budget exceeded");
}

// --- wall budget ----------------------------------------------------------

TEST(WallBudget, ExhaustedBudgetAbortsTheRun) {
  const RunConfig cfg = drill_config(App::kSort);
  EXPECT_THROW(workloads::run_workload(cfg, 1e-9), tsx::Error);
}

TEST(WallBudget, GenerousBudgetDoesNotPerturbTheRun) {
  const RunConfig cfg = drill_config(App::kSort);
  const RunResult plain = workloads::run_workload(cfg);
  const RunResult budgeted = workloads::run_workload(cfg, 3600.0);
  EXPECT_TRUE(runner::results_identical(plain, budgeted));
}

}  // namespace
}  // namespace tsx::fault
