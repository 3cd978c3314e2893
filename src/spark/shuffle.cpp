#include "spark/shuffle.hpp"

#include <memory>
#include <utility>

#include "core/error.hpp"
#include "spark/task_effects.hpp"

namespace tsx::spark {

int ShuffleStore::register_shuffle(std::size_t map_partitions,
                                   std::size_t reduce_partitions) {
  TSX_CHECK(map_partitions > 0 && reduce_partitions > 0,
            "shuffle needs at least one partition on each side");
  Shuffle s;
  s.maps = map_partitions;
  s.reduces = reduce_partitions;
  s.cells.resize(map_partitions * reduce_partitions);
  s.sizes.resize(map_partitions * reduce_partitions, Bytes::zero());
  s.owners.resize(map_partitions, -1);
  shuffles_.push_back(std::move(s));
  return static_cast<int>(shuffles_.size()) - 1;
}

const ShuffleStore::Shuffle& ShuffleStore::shuffle_at(int id) const {
  TSX_CHECK(id >= 0 && static_cast<std::size_t>(id) < shuffles_.size(),
            "unknown shuffle id");
  return shuffles_[static_cast<std::size_t>(id)];
}

ShuffleStore::Shuffle& ShuffleStore::shuffle_at(int id) {
  TSX_CHECK(id >= 0 && static_cast<std::size_t>(id) < shuffles_.size(),
            "unknown shuffle id");
  return shuffles_[static_cast<std::size_t>(id)];
}

void ShuffleStore::put_bucket(int shuffle, std::size_t map_part,
                              std::size_t reduce_part, std::any records,
                              Bytes size, int owner) {
  Shuffle& s = shuffle_at(shuffle);
  TSX_CHECK(map_part < s.maps && reduce_part < s.reduces,
            "bucket coordinates out of range");
  if (TaskEffects* fx = TaskEffects::current()) {
    // Parallel evaluation: stage the bucket in the task's typed effects
    // buffer and deposit it at commit. Reducers only read across the stage
    // barrier, so no task ever needs to see an uncommitted bucket.
    fx->record_shuffle_put(this, shuffle, map_part, reduce_part,
                           std::move(records), size, owner);
    return;
  }
  apply_put(s, shuffle, map_part, reduce_part, std::move(records), size,
            owner);
}

void ShuffleStore::put_buckets(ShuffleBucketPut* ops, std::size_t count) {
  TSX_CHECK(ops != nullptr && count > 0, "empty bucket batch");
  const int shuffle = ops[0].shuffle;
  const std::size_t map_part = ops[0].map_part;
  Shuffle& s = shuffle_at(shuffle);
  TSX_CHECK(map_part < s.maps, "bucket coordinates out of range");
  for (std::size_t i = 0; i < count; ++i) {
    ShuffleBucketPut& op = ops[i];
    TSX_CHECK(op.shuffle == shuffle && op.map_part == map_part,
              "bucket batch spans map tasks");
    TSX_CHECK(op.reduce_part < s.reduces, "bucket coordinates out of range");
    apply_put(s, shuffle, map_part, op.reduce_part, std::move(op.records),
              op.size, op.owner);
  }
}

void ShuffleStore::apply_put(Shuffle& s, int shuffle, std::size_t map_part,
                             std::size_t reduce_part, std::any&& records,
                             Bytes size, int owner) {
  const std::size_t idx = map_part * s.reduces + reduce_part;
  if (s.cells[idx].has_value()) {
    // Only recovery reruns and speculative duplicates legitimately rewrite
    // a bucket; without a fault observer a rewrite is an engine bug.
    TSX_CHECK(fault_ != nullptr, "bucket written twice");
    bytes_held_ -= s.sizes[idx];
  }
  s.cells[idx] = std::move(records);
  s.sizes[idx] = size;
  s.owners[map_part] = owner;
  if (!s.lost.empty()) s.lost.erase(map_part);  // a rewrite recovers the part
  bytes_held_ += size;
  bytes_written_total_ += size;
  if (tiering_ != nullptr && size.b() > 0.0) {
    const RegionId region = shuffle_region(shuffle, map_part);
    tiering_->on_region_put(StreamClass::kShuffle, region, size);
    tiering_->on_region_access(StreamClass::kShuffle, region, size,
                               mem::AccessKind::kWrite);
  }
}

void ShuffleStore::apply_read_access(int shuffle, std::size_t map_part,
                                     Bytes size) {
  if (tiering_ == nullptr) return;
  tiering_->on_region_access(StreamClass::kShuffle,
                             shuffle_region(shuffle, map_part), size,
                             mem::AccessKind::kRead);
}

const std::any& ShuffleStore::bucket(int shuffle, std::size_t map_part,
                                     std::size_t reduce_part) const {
  const Shuffle& s = shuffle_at(shuffle);
  TSX_CHECK(map_part < s.maps && reduce_part < s.reduces,
            "bucket coordinates out of range");
  const std::size_t idx = map_part * s.reduces + reduce_part;
  if (TaskEffects* fx = TaskEffects::current()) {
    // The bucket data is safe to read concurrently (written before the
    // stage barrier), but the hotness bump must land in commit order.
    if (tiering_ != nullptr && s.sizes[idx].b() > 0.0)
      fx->record_shuffle_read(const_cast<ShuffleStore*>(this), shuffle,
                              map_part, s.sizes[idx]);
    return s.cells[idx];
  }
  if (tiering_ != nullptr && s.sizes[idx].b() > 0.0)
    tiering_->on_region_access(StreamClass::kShuffle,
                               shuffle_region(shuffle, map_part),
                               s.sizes[idx], mem::AccessKind::kRead);
  return s.cells[idx];
}

Bytes ShuffleStore::bucket_size(int shuffle, std::size_t map_part,
                                std::size_t reduce_part) const {
  const Shuffle& s = shuffle_at(shuffle);
  TSX_CHECK(map_part < s.maps && reduce_part < s.reduces,
            "bucket coordinates out of range");
  return s.sizes[map_part * s.reduces + reduce_part];
}

std::size_t ShuffleStore::map_partitions(int shuffle) const {
  return shuffle_at(shuffle).maps;
}

std::size_t ShuffleStore::reduce_partitions(int shuffle) const {
  return shuffle_at(shuffle).reduces;
}

const std::any& ShuffleStore::fetch_bucket(int shuffle, std::size_t map_part,
                                           std::size_t reduce_part,
                                           TaskContext& ctx) {
  if (fault_ != nullptr) {
    Shuffle& s = shuffle_at(shuffle);
    if (s.lost.count(map_part) > 0) recover_map_part(shuffle, map_part, ctx);
  }
  return bucket(shuffle, map_part, reduce_part);
}

void ShuffleStore::register_dependency(
    std::shared_ptr<ShuffleDependencyBase> dep) {
  TSX_CHECK(dep != nullptr, "registering null shuffle dependency");
  shuffle_at(dep->shuffle_id()).dep = std::move(dep);
}

void ShuffleStore::set_map_stage(int shuffle, int stage_id) {
  Shuffle& s = shuffle_at(shuffle);
  // Keep the first stage that materialized the shuffle: its rng stream is
  // what the persisted buckets were drawn from, so reruns must reuse it.
  if (s.map_stage_id < 0) s.map_stage_id = stage_id;
}

std::size_t ShuffleStore::invalidate_owned_by(int executor_id) {
  std::size_t lost_outputs = 0;
  for (std::size_t sid = 0; sid < shuffles_.size(); ++sid) {
    Shuffle& s = shuffles_[sid];
    for (std::size_t m = 0; m < s.maps; ++m) {
      if (s.owners[m] != executor_id) continue;
      bool had_output = false;
      for (std::size_t r = 0; r < s.reduces; ++r) {
        const std::size_t idx = m * s.reduces + r;
        if (s.cells[idx].has_value()) had_output = true;
        s.cells[idx].reset();
        bytes_held_ -= s.sizes[idx];
        s.sizes[idx] = Bytes::zero();
      }
      s.owners[m] = -1;
      if (had_output) {
        ++lost_outputs;
        s.lost.insert(m);
        if (tiering_ != nullptr)
          tiering_->on_region_drop(
              StreamClass::kShuffle,
              shuffle_region(static_cast<int>(sid), m));
      }
    }
  }
  return lost_outputs;
}

std::vector<std::size_t> ShuffleStore::lost_parts(int shuffle) const {
  const Shuffle& s = shuffle_at(shuffle);
  return {s.lost.begin(), s.lost.end()};
}

void ShuffleStore::recover_map_part(int shuffle, std::size_t map_part,
                                    TaskContext& ctx) {
  Shuffle& s = shuffle_at(shuffle);
  TSX_CHECK(s.dep != nullptr,
            "lost shuffle bucket with no registered lineage");
  TSX_CHECK(s.map_stage_id >= 0,
            "lost shuffle bucket with unknown map stage");
  s.lost.erase(map_part);
  // The rerun must reproduce the original output byte for byte: it runs
  // under the *original* map stage's rng stream (retries and reruns of a
  // task are the same draw in Spark — same stage attempt semantics), on
  // the fetching executor, and its bill lands on the fetching task.
  std::uint64_t mix =
      job_seed_ ^ (static_cast<std::uint64_t>(s.map_stage_id) << 32) ^
      static_cast<std::uint64_t>(map_part);
  TaskContext sub(s.map_stage_id, map_part, ctx.costs(),
                  ctx.cost_multiplier(), Rng(splitmix64(mix)),
                  ctx.executor_id());
  s.dep->run_map_task(map_part, sub);
  ctx.absorb(sub.cost());
  fault_->on_recomputed_map_task(shuffle, map_part);
}

void ShuffleStore::mark_complete(int shuffle) {
  shuffle_at(shuffle).complete = true;
}

bool ShuffleStore::is_complete(int shuffle) const {
  return shuffle_at(shuffle).complete;
}

void ShuffleStore::clear(int shuffle) {
  Shuffle& s = shuffle_at(shuffle);
  for (auto& cell : s.cells) cell.reset();
  bool had_bytes = false;
  for (auto& size : s.sizes) {
    if (size.b() > 0.0) had_bytes = true;
    bytes_held_ -= size;
    size = Bytes::zero();
  }
  s.complete = false;
  for (auto& owner : s.owners) owner = -1;
  s.lost.clear();
  if (tiering_ != nullptr && had_bytes)
    for (std::size_t m = 0; m < s.maps; ++m)
      tiering_->on_region_drop(StreamClass::kShuffle,
                               shuffle_region(shuffle, m));
}

}  // namespace tsx::spark
