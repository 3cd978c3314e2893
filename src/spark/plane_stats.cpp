#include "spark/plane_stats.hpp"

namespace tsx::spark {

PlaneStats& PlaneStats::global() {
  static PlaneStats stats;
  return stats;
}

PlaneCounters PlaneStats::read() const {
  PlaneCounters c;
  c.stages_barrier = stages_barrier.load(std::memory_order_relaxed);
  c.stages_serial = stages_serial.load(std::memory_order_relaxed);
  c.commit_tasks = commit_tasks.load(std::memory_order_relaxed);
  c.commit_ops_typed = commit_ops_typed.load(std::memory_order_relaxed);
  c.commit_ops_generic = commit_ops_generic.load(std::memory_order_relaxed);
  c.shuffle_puts = shuffle_puts.load(std::memory_order_relaxed);
  c.shuffle_put_batches =
      shuffle_put_batches.load(std::memory_order_relaxed);
  c.commit_ns = commit_ns.load(std::memory_order_relaxed);
  c.eval_ns = eval_ns.load(std::memory_order_relaxed);
  c.stage_ns = stage_ns.load(std::memory_order_relaxed);
  return c;
}

void PlaneStats::reset() {
  stages_barrier.store(0, std::memory_order_relaxed);
  stages_serial.store(0, std::memory_order_relaxed);
  commit_tasks.store(0, std::memory_order_relaxed);
  commit_ops_typed.store(0, std::memory_order_relaxed);
  commit_ops_generic.store(0, std::memory_order_relaxed);
  shuffle_puts.store(0, std::memory_order_relaxed);
  shuffle_put_batches.store(0, std::memory_order_relaxed);
  commit_ns.store(0, std::memory_order_relaxed);
  eval_ns.store(0, std::memory_order_relaxed);
  stage_ns.store(0, std::memory_order_relaxed);
}

PlaneCounters PlaneCounters::operator-(const PlaneCounters& rhs) const {
  PlaneCounters d;
  d.stages_barrier = stages_barrier - rhs.stages_barrier;
  d.stages_serial = stages_serial - rhs.stages_serial;
  d.commit_tasks = commit_tasks - rhs.commit_tasks;
  d.commit_ops_typed = commit_ops_typed - rhs.commit_ops_typed;
  d.commit_ops_generic = commit_ops_generic - rhs.commit_ops_generic;
  d.shuffle_puts = shuffle_puts - rhs.shuffle_puts;
  d.shuffle_put_batches = shuffle_put_batches - rhs.shuffle_put_batches;
  d.commit_ns = commit_ns - rhs.commit_ns;
  d.eval_ns = eval_ns - rhs.eval_ns;
  d.stage_ns = stage_ns - rhs.stage_ns;
  return d;
}

obs::MetricsRegistry PlaneCounters::to_metrics() const {
  obs::MetricsRegistry m;
  const auto add = [&m](const char* name, std::uint64_t v) {
    m.counter_add(name, {}, static_cast<double>(v));
  };
  m.counter_add("plane.stages", {{"mode", "barrier"}},
                static_cast<double>(stages_barrier));
  m.counter_add("plane.stages", {{"mode", "serial"}},
                static_cast<double>(stages_serial));
  add("plane.commit.tasks", commit_tasks);
  m.counter_add("plane.commit.ops", {{"kind", "typed"}},
                static_cast<double>(commit_ops_typed));
  m.counter_add("plane.commit.ops", {{"kind", "generic"}},
                static_cast<double>(commit_ops_generic));
  add("plane.shuffle.puts", shuffle_puts);
  add("plane.shuffle.put_batches", shuffle_put_batches);
  m.counter_add("plane.commit.seconds", {},
                static_cast<double>(commit_ns) * 1e-9);
  m.counter_add("plane.eval.seconds", {},
                static_cast<double>(eval_ns) * 1e-9);
  m.counter_add("plane.stage.seconds", {},
                static_cast<double>(stage_ns) * 1e-9);
  return m;
}

}  // namespace tsx::spark
