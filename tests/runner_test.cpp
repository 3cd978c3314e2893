// Tests for the tsx::runner experiment API: sweep enumeration, the
// work-stealing pool, parallel-vs-serial bit-identical results, the result
// cache (including its on-disk store) and the RunConfig stable hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/serialize.hpp"

namespace tsx::runner {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

// The 2-app x 2-tier tiny grid the determinism tests run on: small enough
// for seconds-long tests, big enough to exercise fan-out.
SweepSpec tiny_grid() {
  return SweepSpec()
      .apps({App::kSort, App::kBayes})
      .scales({ScaleId::kTiny})
      .tiers({mem::TierId::kTier0, mem::TierId::kTier2});
}

// --- SweepSpec ------------------------------------------------------------

TEST(SweepSpec, DefaultSpecIsTheDefaultRunConfig) {
  const auto configs = SweepSpec().enumerate();
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0], RunConfig{});
}

TEST(SweepSpec, SizeMatchesCrossProduct) {
  const SweepSpec spec = SweepSpec()
                             .all_apps()
                             .all_scales()
                             .all_tiers()
                             .mba_levels({50, 100})
                             .repeats(3);
  EXPECT_EQ(spec.size(), 7u * 3u * 4u * 2u * 3u);
  EXPECT_EQ(spec.enumerate().size(), spec.size());
}

TEST(SweepSpec, EnumerationOrderIsDocumented) {
  // app -> scale -> tier ... -> repeat, each axis in the order given.
  const auto configs = tiny_grid().repeats(2).enumerate();
  ASSERT_EQ(configs.size(), 8u);
  EXPECT_EQ(configs[0].app, App::kSort);
  EXPECT_EQ(configs[0].tier, mem::TierId::kTier0);
  EXPECT_EQ(configs[2].app, App::kSort);
  EXPECT_EQ(configs[2].tier, mem::TierId::kTier2);
  EXPECT_EQ(configs[4].app, App::kBayes);
  // Repeat seeds use the run_repeats golden-ratio stride.
  EXPECT_EQ(configs[0].seed, 42u);
  EXPECT_EQ(configs[1].seed, 42u + 0x9e3779b9ULL);
}

TEST(SweepSpec, RejectsEmptyAxes) {
  EXPECT_THROW(SweepSpec().apps({}), tsx::Error);
  EXPECT_THROW(SweepSpec().tiers({}), tsx::Error);
  EXPECT_THROW(SweepSpec().repeats(0), tsx::Error);
}

// --- stable hash ----------------------------------------------------------

TEST(SweepSpec, FaultKnobAppliesToEveryConfig) {
  fault::FaultConfig f;
  f.enabled = true;
  f.executor_crashes = 2;
  f.salt = 99;
  const auto configs = tiny_grid().fault(f).enumerate();
  ASSERT_EQ(configs.size(), 4u);
  for (const auto& cfg : configs) EXPECT_EQ(cfg.fault, f);
  // And the default keeps faults off.
  for (const auto& cfg : tiny_grid().enumerate())
    EXPECT_FALSE(cfg.fault.enabled);
}

TEST(StableHash, EqualConfigsHashEqual) {
  RunConfig a;
  a.app = App::kLda;
  a.tier = mem::TierId::kTier2;
  RunConfig b = a;
  EXPECT_EQ(workloads::stable_hash(a), workloads::stable_hash(b));
}

TEST(StableHash, DifferentConfigsHashDifferent) {
  RunConfig a;
  RunConfig b;
  b.mba_percent = 50;
  EXPECT_NE(workloads::stable_hash(a), workloads::stable_hash(b));
}

TEST(StableHash, TieringFieldsAreHashed) {
  // Every tiering knob is part of a run's identity: a pre-tiering cached
  // result must never satisfy a lookup for a tiering run, and two runs
  // differing only in a tiering knob must not collide.
  const RunConfig base;
  const auto differs = [&](auto mutate) {
    RunConfig cfg;
    mutate(cfg.tiering);
    return workloads::stable_hash(cfg) != workloads::stable_hash(base);
  };
  using tiering::PolicyKind;
  using tiering::SampleMode;
  EXPECT_TRUE(differs(
      [](auto& t) { t.policy = PolicyKind::kLfuPromote; }));
  EXPECT_TRUE(differs([](auto& t) { t.epoch_ms = 25.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.decay = 0.9; }));
  EXPECT_TRUE(differs([](auto& t) { t.sample = SampleMode::kAccessBits; }));
  EXPECT_TRUE(differs([](auto& t) { t.sample_period = 32; }));
  EXPECT_TRUE(differs([](auto& t) { t.hint_fault_us = 2.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.fast_capacity_gib = 4.0; }));
  EXPECT_TRUE(differs([](auto& t) { t.low_watermark = 0.05; }));
  EXPECT_TRUE(differs([](auto& t) { t.high_watermark = 0.5; }));
  EXPECT_TRUE(differs([](auto& t) { t.max_fast_utilization = 0.5; }));
  EXPECT_TRUE(differs([](auto& t) { t.migration_mlp = 4.0; }));
}

TEST(StableHash, IndependentOfFieldOrder) {
  // The hash sorts (name, value) pairs internally, so reordering the field
  // list — as a future RunConfig layout change would — cannot change it.
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kLarge;
  auto fields = workloads::config_fields(cfg);
  const std::uint64_t reference = workloads::hash_fields(fields);
  std::reverse(fields.begin(), fields.end());
  EXPECT_EQ(workloads::hash_fields(fields), reference);
  std::rotate(fields.begin(), fields.begin() + 3, fields.end());
  EXPECT_EQ(workloads::hash_fields(fields), reference);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.run_batch(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch)
    pool.run_batch(50, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_batch(8,
                              [](std::size_t i) {
                                if (i == 5) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> ran{0};
  pool.run_batch(4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

// --- ParallelRunner determinism -------------------------------------------

TEST(ParallelRunner, ParallelMatchesSerialBitForBit) {
  const auto configs = tiny_grid().enumerate();

  std::vector<RunResult> serial;
  for (const RunConfig& cfg : configs)
    serial.push_back(workloads::run_workload(cfg));

  RunnerOptions options;
  options.threads = 4;
  const auto parallel = ParallelRunner(options).run(configs);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(results_identical(parallel[i], serial[i])) << "run " << i;
}

TEST(ParallelRunner, ProgressReachesTotal) {
  std::size_t last_completed = 0;
  std::size_t calls = 0;
  RunnerOptions options;
  options.threads = 2;
  options.progress = [&](const Progress& p) {
    last_completed = p.completed;
    EXPECT_EQ(p.total, 4u);
    ++calls;
  };
  const auto results = ParallelRunner(options).run(tiny_grid());
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(last_completed, 4u);
  EXPECT_EQ(calls, 4u);
}

TEST(ParallelRunner, IsolatesAThrowingRun) {
  // One config is poisoned: an enabled fault plane with zero task attempts
  // fails the controller's validation inside run_workload. The batch must
  // survive — the bad run becomes a failed RunResult, the healthy runs are
  // untouched, and the failure is visible in the progress feed.
  auto configs = tiny_grid().enumerate();
  const std::size_t bad = 1;
  configs[bad].fault.enabled = true;
  configs[bad].fault.executor_crashes = 1;
  configs[bad].fault.max_task_attempts = 0;

  ResultCache cache;
  std::size_t last_failures = 0;
  RunnerOptions options;
  options.threads = 2;
  options.cache = &cache;
  options.progress = [&](const Progress& p) { last_failures = p.failures; };
  const auto results = ParallelRunner(options).run(configs);

  ASSERT_EQ(results.size(), configs.size());
  EXPECT_TRUE(results[bad].failed);
  EXPECT_FALSE(results[bad].valid);
  EXPECT_FALSE(results[bad].error.empty());
  EXPECT_EQ(results[bad].config, configs[bad]);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == bad) continue;
    EXPECT_FALSE(results[i].failed) << "run " << i;
    EXPECT_TRUE(results[i].valid) << "run " << i;
  }
  EXPECT_EQ(last_failures, 1u);
  // Failed runs are never memoized — a retry must re-execute them.
  EXPECT_EQ(cache.size(), configs.size() - 1);
  EXPECT_FALSE(cache.find(configs[bad]).has_value());
}

TEST(ParallelRunner, WallTimeoutBecomesAFailedResult) {
  RunnerOptions options;
  options.threads = 2;
  options.run_timeout_seconds = 1e-9;  // no real run fits in a nanosecond
  const auto results = ParallelRunner(options).run(tiny_grid());
  ASSERT_EQ(results.size(), 4u);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("wall-clock"), std::string::npos) << r.error;
  }
}

// --- ResultCache ----------------------------------------------------------

TEST(ResultCache, HitSkipsSimulation) {
  ResultCache cache;
  RunnerOptions options;
  options.threads = 2;
  options.cache = &cache;

  const SweepSpec spec = tiny_grid();
  const std::uint64_t before = workloads::runs_executed();
  const auto first = ParallelRunner(options).run(spec);
  const std::uint64_t after_first = workloads::runs_executed();
  EXPECT_EQ(after_first - before, spec.size());
  EXPECT_EQ(cache.size(), spec.size());

  // Second pass: every run served from the cache, zero simulations.
  const auto second = ParallelRunner(options).run(spec);
  EXPECT_EQ(workloads::runs_executed(), after_first);
  EXPECT_EQ(cache.hits(), spec.size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(results_identical(first[i], second[i]));
}

TEST(ResultCache, DistinguishesConfigs) {
  ResultCache cache;
  RunConfig a;
  RunConfig b;
  b.seed = 43;
  RunResult result;
  result.config = a;
  cache.insert(result);
  EXPECT_TRUE(cache.find(a).has_value());
  EXPECT_FALSE(cache.find(b).has_value());
}

TEST(ResultCache, SaveLoadRoundTrip) {
  const auto runs = run_sweep(tiny_grid());
  ResultCache cache;
  for (const RunResult& r : runs) cache.insert(r);

  const std::string path = ::testing::TempDir() + "/tsx_run_cache.jsonl";
  ASSERT_TRUE(cache.save(path));

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), cache.size());
  for (const RunResult& r : runs) {
    const auto found = loaded.find(r.config);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(results_identical(*found, r));
  }
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsPreTieringStoreVersion) {
  // The store format was bumped when RunConfig grew the tiering section;
  // a v1 store (written before tiering existed) must fail to load rather
  // than serve results whose configs silently lack tiering fields.
  ASSERT_GE(ResultCache::kStoreVersion, 2);
  const std::string path = ::testing::TempDir() + "/tsx_v1_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":1}\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsPreDfsStoreVersion) {
  // v6 added the cluster-DFS section to the config identity; a v5 store
  // (written before DfsConfig existed) must fail to load rather than serve
  // results whose configs silently lack the dfs knobs.
  ASSERT_GE(ResultCache::kStoreVersion, 6);
  const std::string path = ::testing::TempDir() + "/tsx_v5_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\":\"tsx-run-cache\",\"version\":5}\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/tsx_bad_cache.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a cache store\n", f);
  std::fclose(f);

  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.load(path + ".does-not-exist"));
  std::remove(path.c_str());
}

TEST(ResultCache, LoadToleratesCorruptedLines) {
  // A crash mid-save (or a truncated copy) leaves garbage and half-written
  // records in the store. Loading must salvage every healthy record and
  // account for what it skipped, not reject the whole file.
  const auto runs = run_sweep(tiny_grid());
  ResultCache cache;
  for (const RunResult& r : runs) cache.insert(r);

  const std::string path = ::testing::TempDir() + "/tsx_torn_cache.jsonl";
  ASSERT_TRUE(cache.save(path));
  std::FILE* f = std::fopen(path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("!!! not json at all !!!\n", f);
  std::fputs("{\"config\":{\"app\":\"sort\",\"scale\":\"ti", f);  // torn write
  std::fclose(f);

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), runs.size());
  EXPECT_EQ(loaded.load_skipped(), 2u);
  for (const RunResult& r : runs) {
    const auto found = loaded.find(r.config);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(results_identical(*found, r));
  }
  std::remove(path.c_str());
}

// --- serialization --------------------------------------------------------

TEST(Serialize, JsonRoundTripIsLossless) {
  RunConfig cfg;
  cfg.app = App::kLda;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier2;
  cfg.shuffle_tier = mem::TierId::kTier0;
  cfg.background_load_gbps = 1.25;
  const RunResult original = workloads::run_workload(cfg);

  RunResult decoded;
  ASSERT_TRUE(result_from_json(to_json(original), &decoded));
  EXPECT_TRUE(results_identical(original, decoded));
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.exec_time.v, original.exec_time.v);
}

TEST(Serialize, RejectsMalformedJson) {
  RunResult out;
  EXPECT_FALSE(result_from_json("", &out));
  EXPECT_FALSE(result_from_json("{\"config\":", &out));
  EXPECT_FALSE(result_from_json("[1,2,3]", &out));
}

}  // namespace
}  // namespace tsx::runner
