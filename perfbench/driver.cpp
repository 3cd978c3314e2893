// perfbench driver: runs one benchmark workload in one process and prints
// its raw samples as a single JSON document on stdout.
//
// run.py builds this program, runs it once per measurement and turns the
// samples into the benchmark's metrics. The driver only measures. Every
// statistic (medians, the tail percentile, shares, ratios) and the
// correctness gate live in metrics.py, where tests cover them.
//
// The driver measures the program from outside. It calls the modules'
// public entry points (workloads::run_workload, runner::to_json,
// obs::chrome_trace_json / obs::metrics_jsonl,
// analysis::summarize_takeaways) and reads the counters they already
// expose (spark::PlaneStats, each RunResult's counts and stats). With
// --trace=1 it also records a span around each of those calls.
//
// Each pass is timed on two clocks, wall-clock and the process's CPU time;
// each run on CPU time (and, traced, by wall-clock spans). Timed passes run
// on one task thread, so the two clocks read alike on a quiet host; on a
// busy one only the wall-clock counts the time the process waited for a
// core.
//
// Usage:
//   perfbench_driver --workload=<fig2-serial|shuffle-large|traced-mix>
//                    --seed=<n> --seconds=<s> --trace=<0|1>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "analysis/takeaways.hpp"
#include "core/strings.hpp"
#include "fault/scenario.hpp"
#include "mem/calibration.hpp"
#include "obs/export.hpp"
#include "runner/serialize.hpp"
#include "runner/sweep.hpp"
#include "spark/plane_stats.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace tsx;
using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the whole process (every thread) has used. The kernel
/// leaves out time the process sat runnable but not running, whether
/// behind other processes or, on a guest with steal-time accounting,
/// behind other guests; so this clock reads the same work the same on a
/// busy host as on a quiet one.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// splitmix64: every config seed is a pure function of the benchmark seed
/// and a fixed salt, so one --seed gives one set of inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strfmt("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) { return strfmt("%.17g", v); }
std::string num(std::uint64_t v) {
  return std::to_string(static_cast<unsigned long long>(v));
}

// ---- workloads --------------------------------------------------------------

/// One entry of a workload's run list.
struct Item {
  RunConfig config;
  bool drill = false;
  /// A drill must finish with the self-check note of its fault-free
  /// baseline: recovery restores the answer, not just a valid one.
  std::string expect_validation;
};

struct Plan {
  std::vector<Item> items;
  /// Task threads of the traced run's contrast pass over the same list
  /// (shuffle-large); 1 = no contrast. Timed passes always run serially.
  int contrast_threads = 1;
  bool export_obs = false;  ///< export every run's trace (traced-mix)
  bool takeaways = false;   ///< summarize the pass (fig2-serial)
  /// Configs of the workload's definition left out of the run list, and why.
  std::vector<std::string> excluded;
};

void set_task_threads(int n) {
  if (n > 1)
    setenv("TSX_TASK_THREADS", std::to_string(n).c_str(), 1);
  else
    unsetenv("TSX_TASK_THREADS");
}

int default_task_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// One run of each app's first config in the list, so lazy set-up
/// (allocator arenas, page faults on first touch) finishes before timing.
void warm_up(const Plan& plan) {
  std::vector<App> apps;
  set_task_threads(1);
  for (const Item& item : plan.items) {
    if (std::find(apps.begin(), apps.end(), item.config.app) != apps.end())
      continue;
    apps.push_back(item.config.app);
    workloads::run_workload(item.config);
  }
}

/// fig2-serial: the paper's headline sweep, 7 apps x 3 scales x 4 tiers on
/// the default 1x40 deployment, one run at a time, obs off, no task threads.
///
/// rf at small scale is left out: its self-check (training accuracy above
/// 0.55) fails for about one input seed in five, so a gated benchmark over
/// seeded inputs cannot include it until the app is fixed. run.py prints
/// the exclusion with every report.
Plan fig2_serial(std::uint64_t seed) {
  Plan plan;
  plan.takeaways = true;
  const auto configs = runner::SweepSpec()
                           .all_apps()
                           .all_scales()
                           .all_tiers()
                           .seed(derive_seed(seed, 0))
                           .enumerate();
  for (const RunConfig& cfg : configs) {
    if (cfg.app == App::kRf && cfg.scale == ScaleId::kSmall) continue;
    workloads::validate_or_throw(cfg);
    plan.items.push_back({cfg, false, {}});
  }
  plan.excluded.push_back(
      "rf-small on tiers 0-3: its self-check fails for ~22% of input seeds");
  return plan;
}

/// shuffle-large: the shuffle-heavy apps at large scale on local DRAM and
/// near NVM. Timed passes run serially; the traced run adds a contrast
/// pass on min(4, nproc) task threads, which drives the parallel data
/// plane and must reproduce the serial digest. Eight input seeds per
/// (app, tier) give the run list enough samples for a tail.
Plan shuffle_large(std::uint64_t seed) {
  Plan plan;
  plan.contrast_threads = default_task_threads();
  const App apps[] = {App::kSort, App::kRepartition, App::kPagerank};
  const mem::TierId tiers[] = {mem::TierId::kTier0, mem::TierId::kTier2};
  std::uint64_t salt = 100;
  for (const App app : apps)
    for (const mem::TierId tier : tiers)
      for (int s = 0; s < 8; ++s) {
        RunConfig cfg;
        cfg.app = app;
        cfg.scale = ScaleId::kLarge;
        cfg.tier = tier;
        cfg.seed = derive_seed(seed, salt++);
        workloads::validate_or_throw(cfg);
        plan.items.push_back({cfg, false, {}});
      }
  return plan;
}

/// Places a drill's injections inside the compute window of its fault-free
/// baseline: launch and registration take the first ~2.5 virtual seconds,
/// and an injection after the run ends would test nothing.
void place_injections(fault::FaultConfig& f, double exec_s) {
  const double ramp = 2.5;
  const double compute = exec_s > ramp ? exec_s - ramp : exec_s;
  if (f.executor_crashes > 0) {
    f.crash_offset_s = ramp + 0.25 * compute;
    f.crash_window_s = 0.5 * compute;
    f.restart_delay_s = 0.5;
  }
  if (f.offline_at_s >= 0.0) f.offline_at_s = ramp + 0.5 * compute;
  if (f.bw_collapse_at_s >= 0.0) {
    f.bw_collapse_at_s = ramp + 0.3 * compute;
    f.bw_collapse_duration_s = 0.3 * compute;
  }
  if (f.datanode_crashes > 0) f.datanode_crash_at_s = ramp + 0.25 * compute;
}

/// traced-mix: obs on for every run and every trace exported, over the
/// non-default paths: columnar queries, lfu-promote tiering and fault
/// drills (serial recovery), including one over an RS(6,3) DFS. The mix is
/// repeated over three input seeds so the run list has a tail.
Plan traced_mix(std::uint64_t seed) {
  Plan plan;
  plan.export_obs = true;
  std::uint64_t salt = 200;
  auto make = [&](App app, ScaleId scale) {
    RunConfig cfg;
    cfg.app = app;
    cfg.scale = scale;
    cfg.tier = mem::TierId::kTier2;
    cfg.seed = derive_seed(seed, salt++);
    return cfg;
  };

  dfs::DfsConfig rs63;
  rs63.codec = dfs::CodecKind::kRs;
  rs63.rs_k = 6;
  rs63.rs_m = 3;
  rs63.racks = 3;
  rs63.nodes_per_rack = 4;
  struct Drill {
    App app;
    const char* scenario;
    bool rs;
  };
  const Drill drills[] = {
      {App::kSort, "crash", false},         {App::kRepartition, "crash", false},
      {App::kPagerank, "crash", false},     {App::kSort, "chaos", false},
      {App::kRepartition, "chaos", false},  {App::kPagerank, "chaos", false},
      {App::kPagerank, "dimm-datanode", true}};

  set_task_threads(1);
  for (int round = 0; round < 3; ++round) {
    for (const App app : {App::kSort, App::kPagerank})
      for (const ScaleId scale : {ScaleId::kSmall, ScaleId::kLarge}) {
        RunConfig cfg = make(app, scale);
        cfg.columnar.enabled = true;
        plan.items.push_back({cfg, false, {}});
      }
    for (const App app : {App::kPagerank, App::kLda, App::kSort}) {
      RunConfig cfg = make(app, ScaleId::kLarge);
      cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
      plan.items.push_back({cfg, false, {}});
    }
    for (const Drill& d : drills) {
      RunConfig cfg = make(d.app, ScaleId::kSmall);
      cfg.executors = 2;
      cfg.cores_per_executor = 20;
      if (d.rs) cfg.dfs = rs63;
      // The fault-free baseline is the correctness reference and the clock
      // that places the injections.
      const RunResult base = workloads::run_workload(cfg);
      if (base.failed || !base.valid)
        throw Error("drill baseline failed: " + cfg.describe());
      cfg.fault = fault::scenario(d.scenario);
      place_injections(cfg.fault, base.exec_time.sec());
      plan.items.push_back({cfg, true, base.validation});
    }
  }
  for (Item& item : plan.items) {
    item.config.obs.enabled = true;
    workloads::validate_or_throw(item.config);
  }
  return plan;
}

Plan build_plan(const std::string& workload, std::uint64_t seed) {
  Plan plan = workload == "fig2-serial"     ? fig2_serial(seed)
              : workload == "shuffle-large" ? shuffle_large(seed)
              : workload == "traced-mix"
                  ? traced_mix(seed)
                  : throw Error("unknown workload: " + workload);
  warm_up(plan);
  return plan;
}

// ---- passes -----------------------------------------------------------------

struct Span {
  const char* name;
  int run;  ///< index into the pass's run list; -1 = pass-level
  double start;
  double end;
};

struct Pass {
  std::string kind;  ///< "timed", "traced", "untraced", "threads", "obs_off"
  std::string variant;  ///< configs run: "main", or "obs_off" (obs disabled)
  int task_threads = 1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  std::vector<std::string> runs;  ///< one JSON object per run
  std::vector<Span> spans;
  spark::PlaneCounters plane;
  std::string takeaways;  ///< JSON object (fig2-serial only)
};

std::uint64_t injected(const RunResult& r) {
  const fault::FaultStats& f = r.fault;
  return f.crashes + f.tier_offline_events + f.uce_events + f.bw_collapses +
         f.stragglers + r.dfs.datanodes_lost + r.dfs.racks_lost;
}

std::string run_json(const Item& item, const RunResult& r, double cpu_ms,
                     std::size_t json_bytes, std::size_t export_bytes) {
  const bool ok = !r.failed && r.valid &&
                  (!item.drill || r.validation == item.expect_validation);
  double other_s = 0.0;
  double run_span_s = 0.0;
  std::size_t spans = 0;
  if (r.trace) {
    spans = r.trace->spans().size();
    if (const obs::Span* run = r.trace->find(r.trace->run_span())) {
      other_s = run->attr[obs::Bucket::kOther];
      run_span_s = run->duration().sec();
    }
  }
  std::string s = "{";
  s += "\"label\":" + json_str(r.config.describe());
  s += ",\"app\":" + json_str(workloads::to_string(item.config.app));
  s += ",\"cpu_ms\":" + num(cpu_ms);
  s += std::string(",\"ok\":") + (ok ? "true" : "false");
  s += ",\"note\":" + json_str(r.failed ? r.error : r.validation);
  s += std::string(",\"drill\":") + (item.drill ? "true" : "false");
  s += ",\"injected\":" + num(injected(r));
  s += std::string(",\"columnar\":") +
       (item.config.columnar.enabled ? "true" : "false");
  s += ",\"virtual_s\":" + num(r.exec_time.sec());
  s += ",\"tasks\":" + num(static_cast<std::uint64_t>(r.tasks));
  s += ",\"stages\":" + num(static_cast<std::uint64_t>(r.stages));
  s += ",\"host_execute_s\":" + num(r.host_execute_seconds);
  s += ",\"nvm_media_reads\":" + num(r.nvdimm.media_reads);
  s += ",\"nvm_media_writes\":" + num(r.nvdimm.media_writes);
  s += ",\"json_bytes\":" + num(static_cast<std::uint64_t>(json_bytes));
  s += ",\"export_bytes\":" + num(static_cast<std::uint64_t>(export_bytes));
  s += ",\"obs_spans\":" + num(static_cast<std::uint64_t>(spans));
  s += ",\"obs_other_s\":" + num(other_s);
  s += ",\"obs_run_span_s\":" + num(run_span_s);
  s += ",\"tiering_promotions\":" + num(r.tiering.promotions);
  s += ",\"tiering_epochs\":" + num(r.tiering.epochs);
  s += ",\"tiering_migration_s\":" + num(r.tiering.migration_seconds);
  s += ",\"fault_task_failures\":" + num(r.fault.task_failures);
  s += ",\"fault_retries\":" + num(r.fault.retries);
  s += ",\"fault_recomputed_map_tasks\":" + num(r.fault.recomputed_map_tasks);
  s += ",\"fault_spec_launches\":" + num(r.fault.speculative_launches);
  s += ",\"fault_spec_wins\":" + num(r.fault.speculative_wins);
  s += ",\"dfs_datanodes_lost\":" + num(r.dfs.datanodes_lost);
  s += ",\"dfs_chunks_repaired\":" + num(r.dfs.chunks_repaired);
  s += ",\"columnar_queries\":" + num(r.columnar.queries);
  s += ",\"columnar_arena_leases\":" + num(r.columnar.arena_leases);
  return s + "}";
}

std::string takeaways_json(const analysis::TakeawaySummary& t) {
  namespace paper = mem::paper;
  const double sim[] = {t.tier0_advantage_pct[0],  t.tier0_advantage_pct[1],
                        t.tier0_advantage_pct[2],  t.nvm_extra_time_pct,
                        t.sensitive_extra_time_pct, t.tolerant_extra_time_pct,
                        t.dram_energy_saving_pct};
  const double ref[] = {paper::kTier0AdvantagePct[0],
                        paper::kTier0AdvantagePct[1],
                        paper::kTier0AdvantagePct[2],
                        paper::kNvmExtraTimePct,
                        paper::kSensitiveExtraTimePct,
                        paper::kTolerantExtraTimePct,
                        paper::kDramEnergySavingPct};
  std::string s = "{\"simulated_pct\":[";
  for (std::size_t i = 0; i < std::size(sim); ++i)
    s += (i ? "," : "") + num(sim[i]);
  s += "],\"paper_pct\":[";
  for (std::size_t i = 0; i < std::size(ref); ++i)
    s += (i ? "," : "") + num(ref[i]);
  return s + "]}";
}

/// Runs the whole list once; `traced` records a span around each call into
/// the program. With `obs_off` the same configs run with the observability
/// plane disabled and nothing exported.
Pass run_pass(const Plan& plan, const std::string& kind, bool traced,
              int task_threads, bool obs_off = false) {
  Pass pass;
  pass.kind = kind;
  pass.variant = obs_off ? "obs_off" : "main";
  pass.task_threads = task_threads;
  set_task_threads(task_threads);
  std::vector<RunResult> kept;  // for the takeaways summary
  const spark::PlaneCounters plane0 = spark::PlaneStats::global().read();
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  auto span = [&](const char* name, int run, double start) {
    if (traced) pass.spans.push_back({name, run, start, since(t0)});
  };

  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const Item& item = plan.items[i];
    const int idx = static_cast<int>(i);
    RunConfig cfg = item.config;
    if (obs_off) cfg.obs.enabled = false;

    const double start = since(t0);
    const double cpu_start = process_cpu_s();
    RunResult r;
    try {
      r = workloads::run_workload(cfg);
    } catch (const std::exception& e) {
      r = workloads::failed_result(cfg, e.what());
    }
    span("run_workload", idx, start);

    std::size_t export_bytes = 0;
    if (plan.export_obs && r.trace) {
      double t = since(t0);
      export_bytes += obs::chrome_trace_json(*r.trace, r.config.describe()).size();
      span("chrome_trace_json", idx, t);
      t = since(t0);
      export_bytes += obs::metrics_jsonl(r.trace->metrics()).size();
      span("metrics_jsonl", idx, t);
    }
    const double cpu_ms = (process_cpu_s() - cpu_start) * 1e3;

    const double t_json = since(t0);
    const std::string json = runner::to_json(r);
    pass.digest = fnv1a(fnv1a(pass.digest, json), "\n");
    span("to_json", idx, t_json);

    pass.runs.push_back(
        run_json(item, r, cpu_ms, json.size(), export_bytes));
    if (plan.takeaways) {
      r.trace.reset();
      kept.push_back(std::move(r));
    }
  }

  if (plan.takeaways) {
    const double t = since(t0);
    const analysis::TakeawaySummary summary =
        analysis::summarize_takeaways(kept);
    span("summarize_takeaways", -1, t);
    pass.takeaways = takeaways_json(summary);
  }
  pass.wall_s = since(t0);
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.plane = spark::PlaneStats::global().read() - plane0;
  return pass;
}

std::string plane_json(const spark::PlaneCounters& p) {
  std::string s = "{";
  s += "\"lock_acquisitions\":" + num(p.lock_acquisitions);
  s += ",\"lock_contended\":" + num(p.lock_contended);
  s += ",\"lock_wait_ns\":" + num(p.lock_wait_ns);
  s += ",\"shuffle_puts\":" + num(p.shuffle_puts);
  s += ",\"shuffle_put_batches\":" + num(p.shuffle_put_batches);
  s += ",\"commit_ns\":" + num(p.commit_ns);
  s += ",\"ready_wait_ns\":" + num(p.ready_wait_ns);
  s += ",\"eval_ns\":" + num(p.eval_ns);
  s += ",\"stage_ns\":" + num(p.stage_ns);
  return s + "}";
}

std::string pass_json(const Pass& p) {
  std::string s = "{";
  s += "\"kind\":" + json_str(p.kind);
  s += ",\"variant\":" + json_str(p.variant);
  s += ",\"task_threads\":" + std::to_string(p.task_threads);
  s += ",\"wall_s\":" + num(p.wall_s);
  s += ",\"cpu_s\":" + num(p.cpu_s);
  s += ",\"digest\":" + json_str(strfmt("%016llx",
                                        static_cast<unsigned long long>(p.digest)));
  s += ",\"plane\":" + plane_json(p.plane);
  if (!p.takeaways.empty()) s += ",\"takeaways\":" + p.takeaways;
  s += ",\"runs\":[";
  for (std::size_t i = 0; i < p.runs.size(); ++i)
    s += (i ? ",\n" : "\n") + p.runs[i];
  s += "],\"spans\":[";
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    const Span& sp = p.spans[i];
    s += (i ? "," : "") + strfmt("[\"%s\",%d,%.9f,%.9f]", sp.name, sp.run,
                                 sp.start, sp.end);
  }
  return s + "]}";
}

std::string provenance_json(int contrast_threads) {
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"task_threads\":1";
  s += ",\"contrast_threads\":" + std::to_string(contrast_threads);
  s += ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE);
  s += ",\"cxx_flags\":" + json_str(PERFBENCH_CXX_FLAGS);
  s += ",\"compiler\":" + json_str(PERFBENCH_COMPILER);
#ifdef NDEBUG
  s += ",\"ndebug\":true";
#else
  s += ",\"ndebug\":false";
#endif
#ifdef __OPTIMIZE__
  s += ",\"optimized\":true";
#else
  s += ",\"optimized\":false";
#endif
  return s + "}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options* opt) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && opt->seconds > 0.0;
    } else if (key == "--trace") {
      opt->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1>\n");
    return 2;
  }
  try {
    // Set-up is repeated and each repetition timed on both clocks, so the
    // reported set-up time is a median; the last plan is the one measured.
    std::vector<double> setup_s;
    std::vector<double> setup_cpu_s;
    Plan plan;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_s();
      plan = build_plan(opt.workload, opt.seed);
      setup_s.push_back(since(t0));
      setup_cpu_s.push_back(process_cpu_s() - cpu0);
    }

    // Timed passes until --seconds have gone by (at least one). The traced
    // run instead repeats a round of an untraced pass, a traced pass and,
    // where the workload has one, a contrast pass: the list on N task
    // threads (shuffle-large) or with obs off (traced-mix).
    std::vector<Pass> passes;
    long peak_rss_kib = 0;
    const auto t0 = Clock::now();
    while (passes.empty() || since(t0) < opt.seconds) {
      if (!opt.trace) {
        passes.push_back(run_pass(plan, "timed", false, 1));
      } else {
        passes.push_back(run_pass(plan, "untraced", false, 1));
        passes.push_back(run_pass(plan, "traced", true, 1));
        if (plan.contrast_threads > 1)
          passes.push_back(
              run_pass(plan, "threads", true, plan.contrast_threads));
        if (plan.export_obs)
          passes.push_back(run_pass(plan, "obs_off", true, 1, true));
      }
      // The peak resident set of set-up and the first pass (or round): the
      // memory the workload needs. Read at the end, it would also count
      // allocator fragmentation that grows with the number of passes, which
      // a faster program runs more of in the same time.
      if (peak_rss_kib == 0) {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        peak_rss_kib = usage.ru_maxrss;
      }
    }

    std::string s = "{\"workload\":" + json_str(opt.workload);
    s += ",\"seed\":" + num(opt.seed);
    s += std::string(",\"trace\":") + (opt.trace ? "1" : "0");
    s += ",\"provenance\":" + provenance_json(plan.contrast_threads);
    s += ",\"excluded\":[";
    for (std::size_t i = 0; i < plan.excluded.size(); ++i)
      s += (i ? "," : "") + json_str(plan.excluded[i]);
    s += "]";
    s += ",\"setup_s\":[";
    for (std::size_t i = 0; i < setup_s.size(); ++i)
      s += (i ? "," : "") + num(setup_s[i]);
    s += "],\"peak_rss_kib\":" + std::to_string(peak_rss_kib);
    s += ",\"setup_cpu_s\":[";
    for (std::size_t i = 0; i < setup_cpu_s.size(); ++i)
      s += (i ? "," : "") + num(setup_cpu_s[i]);
    s += "],\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i)
      s += (i ? ",\n" : "\n") + pass_json(passes[i]);
    s += "]}\n";
    std::fputs(s.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
