// PartitionMap: the lock-free partition -> shard routing table behind
// work-stealing rebalance (DESIGN.md §10), plus the one routing function.
//
// The sharded service routes every edge by a STABLE partition id — its
// source vertex's home, PartitionOf(e) = partitioner(e.src) mod
// num_partitions — and then indirects through this map to find the worker
// that currently owns the partition. Each entry packs the owner shard and
// a move epoch into one 64-bit word:
//
//   [ epoch : 32 | shard : 32 ]
//
// Producers read the entry with one acquire load per chunk (ShardOf) —
// no lock, no RMW — so steady-state routing costs the same as the old
// `key % num_shards`. A partition move publishes the new owner with an
// epoch-bumped release store (Publish); there is exactly one writer at a
// time (the service's rebalance lock serializes moves), the epoch exists
// so observers can tell "same owner again" from "moved away and back"
// (A -> B -> A), which is what makes the forwarding protocol testable.
//
// Routing under a stale entry is SAFE, not just tolerated: an edge that
// lands on the old owner after the move finds the partition gone from the
// worker's ownership table and is forwarded to the current owner (see
// ShardWorker's forward backlog), so no edge is lost or double-applied.
// The map only has to be eventually consistent; the release/acquire pair
// makes a post-publish read see the new owner.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.h"

namespace spade {

/// Maps a vertex to its home key: vertex v's home partition is
/// partitioner(v) % num_partitions. The sharded service's one routing
/// function — edge placement, boundary detection and stitch provenance
/// all derive from it.
using Partitioner = std::function<std::size_t(VertexId)>;

/// The one edge -> partition rule: an edge belongs to its source's home
/// partition. Per-edge Submit, the batched router, forwarding and every
/// worker's ownership lookup all call it, so they agree by construction.
inline std::size_t PartitionOf(const Partitioner& partitioner,
                               std::size_t num_partitions, const Edge& e) {
  return partitioner(e.src) % num_partitions;
}

/// Lock-free partition -> current-shard table (see file comment).
class PartitionMap {
 public:
  /// One decoded entry.
  struct Entry {
    std::size_t shard = 0;
    std::uint32_t epoch = 0;  // number of Publish calls on this partition
  };

  /// Initial placement: partition pid starts on shard pid % num_shards, at
  /// epoch 0.
  PartitionMap(std::size_t num_partitions, std::size_t num_shards)
      : slots_(num_partitions == 0 ? 1 : num_partitions) {
    const std::size_t shards = num_shards == 0 ? 1 : num_shards;
    for (std::size_t pid = 0; pid < slots_.size(); ++pid) {
      slots_[pid].store(Pack(pid % shards, 0), std::memory_order_relaxed);
    }
  }

  PartitionMap(const PartitionMap&) = delete;
  PartitionMap& operator=(const PartitionMap&) = delete;

  std::size_t num_partitions() const { return slots_.size(); }

  /// Current owner shard of `pid` (the producer hot path: one acquire
  /// load, no RMW).
  std::size_t ShardOf(std::size_t pid) const {
    return static_cast<std::size_t>(
        slots_[pid].load(std::memory_order_acquire) & 0xffffffffull);
  }

  /// Owner + move epoch in one consistent read.
  Entry Read(std::size_t pid) const {
    const std::uint64_t word = slots_[pid].load(std::memory_order_acquire);
    return Entry{static_cast<std::size_t>(word & 0xffffffffull),
                 static_cast<std::uint32_t>(word >> 32)};
  }

  /// Publishes a new owner for `pid`, bumping its epoch; returns the new
  /// epoch. Single-writer (the caller's rebalance lock serializes moves);
  /// the release store pairs with ShardOf's acquire load.
  std::uint32_t Publish(std::size_t pid, std::size_t shard) {
    const std::uint64_t cur = slots_[pid].load(std::memory_order_relaxed);
    const std::uint32_t epoch = static_cast<std::uint32_t>(cur >> 32) + 1;
    slots_[pid].store(Pack(shard, epoch), std::memory_order_release);
    return epoch;
  }

 private:
  static std::uint64_t Pack(std::size_t shard, std::uint32_t epoch) {
    return (static_cast<std::uint64_t>(epoch) << 32) |
           (static_cast<std::uint64_t>(shard) & 0xffffffffull);
  }

  std::vector<std::atomic<std::uint64_t>> slots_;
};

}  // namespace spade
