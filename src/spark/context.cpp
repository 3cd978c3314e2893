#include "spark/context.hpp"

#include "core/error.hpp"

namespace tsx::spark {

namespace {

/// Places executors with numactl --cpunodebind semantics: every executor
/// binds to the configured socket. Executor task slots may oversubscribe
/// the socket's hardware threads; execution then serializes on the socket
/// core pool (exactly what happens on the real machine).
std::vector<ExecutorSpec> place_executors(const mem::TopologySpec& topology,
                                          const SparkConf& conf) {
  TSX_CHECK(conf.cpu_node_bind >= 0 && conf.cpu_node_bind < topology.sockets,
            "cpunodebind socket out of range");
  std::vector<ExecutorSpec> specs;
  specs.reserve(static_cast<std::size_t>(conf.executor_instances));
  for (int e = 0; e < conf.executor_instances; ++e) {
    ExecutorSpec spec;
    spec.id = e;
    spec.cores = conf.cores_per_executor;
    spec.tier = conf.mem_bind;
    spec.socket = conf.cpu_node_bind;
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace

SparkContext::SparkContext(mem::MachineModel& machine, dfs::Dfs& dfs,
                           SparkConf conf, std::uint64_t seed)
    : machine_(machine),
      dfs_(dfs),
      conf_(conf),
      costs_(default_cost_model()),
      seed_(seed),
      allocator_(machine.topology()),
      scheduler_(*this) {
  const double storage_budget =
      conf_.executor_memory.b() * conf_.storage_fraction *
      static_cast<double>(conf_.executor_instances);
  const mem::TierSpec cache_tier =
      machine_.tier(conf_.cpu_node_bind, conf_.tier_for(StreamClass::kCache));
  block_manager_ = std::make_unique<BlockManager>(
      allocator_, Bytes::of(storage_budget), cache_tier.node);

  for (const ExecutorSpec& spec :
       place_executors(machine_.topology(), conf_)) {
    executors_.push_back(
        std::make_unique<Executor>(machine_, spec, conf_, costs_));
  }
  TSX_CHECK(!executors_.empty(), "context needs at least one executor");
}

ThreadPool* SparkContext::task_pool() {
  if (conf_.intra_run_threads <= 1) return nullptr;
  if (task_pool_ == nullptr)
    task_pool_ = std::make_unique<ThreadPool>(conf_.intra_run_threads);
  return task_pool_.get();
}

void SparkContext::install(const RuntimeHooks& hooks) {
  hooks_ = hooks;
  block_manager_->set_tiering(hooks.tiering);
  shuffle_store_.set_tiering(hooks.tiering);
  shuffle_store_.set_fault(hooks.fault, seed_);
  for (auto& executor : executors_) {
    executor->set_tiering(hooks.tiering);
    executor->set_fault(hooks.fault);
  }
}

void SparkContext::set_tiering(TieringHooks* hooks) {
  RuntimeHooks bundle = hooks_;
  bundle.tiering = hooks;
  install(bundle);
}

void SparkContext::set_fault(FaultHooks* hooks) {
  RuntimeHooks bundle = hooks_;
  bundle.fault = hooks;
  install(bundle);
}

void SparkContext::set_obs(obs::Recorder* recorder) {
  obs_ = recorder;
  for (auto& executor : executors_) executor->set_obs(recorder);
}

void SparkContext::set_cost_multiplier(double m) {
  TSX_CHECK(m >= 1.0, "cost multiplier must be >= 1");
  cost_multiplier_ = m;
}

}  // namespace tsx::spark
