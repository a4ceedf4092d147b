// RouterScratch: reusable batch-partitioning arena for the sharded ingest
// path.
//
// ShardedDetectionService::SubmitBatch used to allocate a fresh
// vector<vector<Edge>> per call. RouterScratch replaces that with flat,
// call-to-call reusable arenas and a single routing pass:
//
//   * one evaluation of the routing function per edge — the same
//     PartitionOf (source home mod num_partitions, partition_map.h) that
//     per-edge Submit, forwarding and the workers' ownership lookup use,
//     followed by one acquire read of the partition's current owner, so
//     batched and per-edge routing agree by construction;
//   * a stable counting sort groups the chunk by destination shard
//     directly into per-shard slab vectors (order within a shard equals
//     chunk order, preserving the per-producer FIFO contract) — the slab
//     is then moved into the worker's handoff ring, so each edge is copied
//     exactly once on the whole batched ingest path.
//
// A scratch instance is single-threaded (the service keeps one per
// producer thread via thread_local); its arenas grow to the largest chunk
// the thread ever partitions and are then reused allocation-free.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/slab_pool.h"
#include "graph/types.h"
#include "service/partition_map.h"

namespace spade {

/// Reusable single-threaded partition scratch (see file comment).
class RouterScratch {
 public:
  RouterScratch() = default;

  RouterScratch(const RouterScratch&) = delete;
  RouterScratch& operator=(const RouterScratch&) = delete;

  /// Partitions `edges` over `num_shards` shards: each edge goes to
  /// map.ShardOf(PartitionOf(partitioner, map.num_partitions(), e)), its
  /// partition's current owner — the reads that make partition moves
  /// invisible to producers. Overwrites whatever the scratch held before;
  /// the spans returned by Part() are valid until the next Partition call.
  /// `pool` (optional) refills slab storage that TakePart handed away, so
  /// steady-state batched ingest recycles worker-consumed slabs instead of
  /// allocating fresh ones.
  void Partition(const Partitioner& partitioner, const PartitionMap& map,
                 std::size_t num_shards, std::span<const Edge> edges,
                 SlabPool* pool = nullptr);

  std::size_t num_shards() const { return num_shards_; }

  /// Shard `s`'s slice of the last partitioned chunk, in chunk order.
  std::span<const Edge> Part(std::size_t shard) const {
    return parts_[shard];
  }

  /// Takes ownership of shard `s`'s slab (for the move-through handoff);
  /// Part(shard) is empty afterwards.
  std::vector<Edge> TakePart(std::size_t shard) {
    return std::move(parts_[shard]);
  }

 private:
  std::size_t num_shards_ = 0;
  std::vector<std::uint32_t> shard_of_;   // per input edge
  std::vector<std::size_t> counts_;       // per shard
  std::vector<std::vector<Edge>> parts_;  // per-shard slabs, chunk order
};

}  // namespace spade
