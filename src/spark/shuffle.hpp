// Shuffle subsystem.
//
// A shuffle moves every record from M map partitions into R reduce buckets.
// ShuffleStore is the engine-wide bucket storage (the BlockManager role for
// shuffle files): map tasks deposit type-erased record batches per
// (shuffle, map, reduce) cell, reduce tasks fetch a full column. The typed
// logic — partitioning by key, combining, charging serialization costs —
// lives in ShuffleDependency<K,V> (pair_rdd.hpp); the scheduler drives map
// stages only through ShuffleDependencyBase.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/units.hpp"
#include "spark/fault_hooks.hpp"
#include "spark/task.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::spark {

class RddBase;
class ShuffleDependencyBase;

/// One buffered bucket deposit, recorded by a parallel task and replayed at
/// commit (TaskEffects batches a map task's R buckets into one put_buckets
/// call).
struct ShuffleBucketPut {
  int shuffle = -1;
  std::size_t map_part = 0;
  std::size_t reduce_part = 0;
  std::any records;
  Bytes size;
  int owner = -1;
};

class ShuffleStore {
 public:
  /// Registers a new shuffle and returns its id.
  int register_shuffle(std::size_t map_partitions,
                       std::size_t reduce_partitions);

  /// Deposits one bucket. `owner` is the executor that produced it (-1
  /// outside the scheduler); a crash invalidates every bucket its executor
  /// owned. Rewriting an existing bucket is legal only under an attached
  /// fault observer (recovery reruns and speculative duplicates).
  void put_bucket(int shuffle, std::size_t map_part, std::size_t reduce_part,
                  std::any records, Bytes size, int owner = -1);

  /// Deposits a map task's buckets in one pass — the commit replay of a
  /// parallel task's buffered puts. All `count` ops must target one
  /// (shuffle, map_part); each op's records are consumed. Per-bucket
  /// mutations, accounting and tiering notifications happen in op order,
  /// so the batch is byte-identical to `count` put_bucket calls.
  void put_buckets(ShuffleBucketPut* ops, std::size_t count);

  /// Replays a buffered read-side hotness bump (no-op without tiering).
  void apply_read_access(int shuffle, std::size_t map_part, Bytes size);

  /// Bucket contents; empty std::any if the map task produced no records
  /// for this reduce partition.
  const std::any& bucket(int shuffle, std::size_t map_part,
                         std::size_t reduce_part) const;
  Bytes bucket_size(int shuffle, std::size_t map_part,
                    std::size_t reduce_part) const;

  /// Recovery-aware fetch: like bucket(), but if map partition `map_part`
  /// was lost to a fault, its output is first recomputed through the
  /// registered lineage — inside the fetching task, under the original map
  /// stage's rng stream, with the bill absorbed into `ctx`. Spark's exact
  /// semantics: a FetchFailed reduce task triggers parent recomputation.
  const std::any& fetch_bucket(int shuffle, std::size_t map_part,
                               std::size_t reduce_part, TaskContext& ctx);

  std::size_t map_partitions(int shuffle) const;
  std::size_t reduce_partitions(int shuffle) const;

  /// Stage-barrier bookkeeping: a shuffle whose map outputs exist is not
  /// recomputed by later jobs on the same lineage (Spark reuses map output).
  void mark_complete(int shuffle);
  bool is_complete(int shuffle) const;

  /// Drops a shuffle's buckets (lineage cleanup between experiments).
  void clear(int shuffle);

  /// Total bytes currently held across all buckets.
  Bytes bytes_held() const { return bytes_held_; }
  /// Total bytes ever written into the store.
  Bytes bytes_written_total() const { return bytes_written_total_; }

  /// Attaches a tiering observer; each map task's output becomes one
  /// migratable region (Spark's actual shuffle-file granularity). Null
  /// (the default) restores the untracked behaviour.
  void set_tiering(TieringHooks* hooks) { tiering_ = hooks; }

  /// Attaches a fault observer and the seed reruns derive rng streams from.
  /// Null (the default) keeps the strict pre-fault store: no ownership
  /// bookkeeping consulted, rewrites forbidden, fetches never recover.
  void set_fault(FaultHooks* hooks, std::uint64_t job_seed) {
    fault_ = hooks;
    job_seed_ = job_seed;
  }

  /// Records the lineage behind a shuffle so lost map output can be
  /// recomputed (fault mode; called by the scheduler before the map stage).
  void register_dependency(std::shared_ptr<ShuffleDependencyBase> dep);
  /// Records which stage originally ran the shuffle's map tasks — reruns
  /// reuse its rng stream so recomputed buckets are byte-identical.
  void set_map_stage(int shuffle, int stage_id);
  int map_stage(int shuffle) const { return shuffle_at(shuffle).map_stage_id; }

  /// Invalidates every bucket owned by `executor_id` (it crashed). The
  /// affected map partitions are marked lost; returns how many map outputs
  /// were taken down.
  std::size_t invalidate_owned_by(int executor_id);

  /// Map partitions of `shuffle` currently lost (ascending).
  std::vector<std::size_t> lost_parts(int shuffle) const;

 private:
  struct Shuffle {
    std::size_t maps = 0;
    std::size_t reduces = 0;
    // cell (m, r) at index m * reduces + r
    std::vector<std::any> cells;
    std::vector<Bytes> sizes;
    std::vector<int> owners;  ///< producing executor per map part (-1 none)
    std::set<std::size_t> lost;  ///< map parts invalidated by a fault
    int map_stage_id = -1;
    std::shared_ptr<ShuffleDependencyBase> dep;  ///< lineage (fault mode)
    bool complete = false;
  };

  const Shuffle& shuffle_at(int id) const;
  Shuffle& shuffle_at(int id);

  /// The direct-path cell mutation shared by put_bucket and put_buckets.
  void apply_put(Shuffle& s, int shuffle, std::size_t map_part,
                 std::size_t reduce_part, std::any&& records, Bytes size,
                 int owner);

  /// Recomputes one lost map partition through the lineage, charging `ctx`.
  void recover_map_part(int shuffle, std::size_t map_part, TaskContext& ctx);

  std::vector<Shuffle> shuffles_;
  Bytes bytes_held_;
  Bytes bytes_written_total_;
  TieringHooks* tiering_ = nullptr;
  FaultHooks* fault_ = nullptr;
  std::uint64_t job_seed_ = 0;
};

/// Type-erased face of a shuffle dependency, all the DAG scheduler needs:
/// the parent lineage to materialize and a way to run one map task.
class ShuffleDependencyBase {
 public:
  ShuffleDependencyBase(int shuffle_id, std::shared_ptr<RddBase> parent,
                        std::size_t reduce_partitions)
      : shuffle_id_(shuffle_id),
        parent_(std::move(parent)),
        reduce_partitions_(reduce_partitions) {}
  virtual ~ShuffleDependencyBase() = default;

  int shuffle_id() const { return shuffle_id_; }
  const std::shared_ptr<RddBase>& parent() const { return parent_; }
  std::size_t reduce_partitions() const { return reduce_partitions_; }

  /// Computes parent partition `map_part`, partitions it by key and writes
  /// the buckets (charging the context for the work).
  virtual void run_map_task(std::size_t map_part, TaskContext& ctx) const = 0;

 protected:
  int shuffle_id_;
  std::shared_ptr<RddBase> parent_;
  std::size_t reduce_partitions_;
};

}  // namespace tsx::spark
