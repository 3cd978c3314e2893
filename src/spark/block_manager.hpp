// Block manager: the storage side of Spark's unified memory.
//
// Cached RDD partitions live here as type-erased blocks, accounted against
// both the engine's storage budget (storage_fraction x executor memory) and
// the physical capacity of the memory node they are bound to (via
// TieredAllocator). Eviction is LRU, matching Spark's MEMORY_ONLY behaviour
// of dropping the least recently used blocks when storage is full.
//
// Under the parallel data plane (DESIGN.md §11) worker threads only read
// the map, and only while the driver is blocked on the evaluation batch;
// every mutation happens on the driver. Block data is held by shared_ptr so
// a task's overlay and the commit replay share one copy.
#pragma once

#include <any>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>

#include "core/units.hpp"
#include "mem/allocator.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::spark {

struct BlockKey {
  int rdd_id = 0;
  std::size_t partition = 0;
  auto operator<=>(const BlockKey&) const = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& key) const {
    std::size_t h = static_cast<std::size_t>(key.rdd_id) *
                    std::size_t{0x9e3779b97f4a7c15ULL};
    h ^= key.partition + std::size_t{0x9e3779b97f4a7c15ULL} + (h << 6) +
         (h >> 2);
    return h;
  }
};

class BlockManager {
 public:
  /// `budget` is the engine-level storage budget; `node` the memory node
  /// all blocks bind to (the executors' membind target).
  BlockManager(mem::TieredAllocator& allocator, Bytes budget,
               mem::NodeId node);
  ~BlockManager();

  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  bool has(const BlockKey& key) const;

  /// Fetches a block and marks it most recently used; nullptr on miss.
  const std::any* get(const BlockKey& key);

  Bytes size_of(const BlockKey& key) const;

  /// Stores a block, evicting LRU blocks as needed. Returns false (and
  /// stores nothing) if the block alone exceeds the budget — the partition
  /// is then recomputed on every use, like an uncacheable Spark block.
  /// `owner` is the executor that computed the block (-1 outside the
  /// scheduler); a crash drops every block its executor owned.
  bool put(const BlockKey& key, std::any data, Bytes size, int owner = -1);

  /// The direct-path put of an already type-erased shared block — the
  /// commit replay of a buffered put, which must not re-copy the data the
  /// task's overlay already shares.
  bool put_shared(const BlockKey& key, std::shared_ptr<std::any> data,
                  Bytes size, int owner);

  /// Drops one block (no-op if absent).
  void drop(const BlockKey& key);

  /// Drops every block owned by `executor_id` (it crashed); the lineage
  /// recomputes those partitions on next use. Returns how many were lost.
  std::size_t drop_owned_by(int executor_id);

  /// Drops the least recently used block (an uncorrectable media error
  /// poisoned its backing pages). Returns false if the store was empty.
  bool drop_lru();

  /// Drops everything.
  void clear();

  Bytes bytes_cached() const { return bytes_cached_; }
  Bytes budget() const { return budget_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::size_t block_count() const { return blocks_.size(); }
  mem::NodeId node() const { return node_; }

  /// Rebinds future blocks to `node` (tier degradation after a node goes
  /// offline). Existing blocks must already have been dropped.
  void set_node(mem::NodeId node) { node_ = node; }

  /// Attaches a tiering observer; cached blocks become migratable regions.
  /// Null (the default) restores the untracked behaviour.
  void set_tiering(TieringHooks* hooks) { tiering_ = hooks; }

 private:
  struct Block {
    std::shared_ptr<std::any> data;
    Bytes size;
    mem::AllocationId allocation;
    std::list<BlockKey>::iterator lru_pos;
    int owner = -1;  ///< producing executor (-1 outside the scheduler)
  };

  void evict_one();

  mem::TieredAllocator& allocator_;
  Bytes budget_;
  mem::NodeId node_;
  Bytes bytes_cached_;
  std::map<BlockKey, Block> blocks_;
  std::list<BlockKey> lru_;  // front = most recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  TieringHooks* tiering_ = nullptr;
};

}  // namespace tsx::spark
