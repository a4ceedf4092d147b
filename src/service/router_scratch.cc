#include "service/router_scratch.h"

#include "common/logging.h"

namespace spade {

void RouterScratch::Partition(const Partitioner& partitioner,
                              const PartitionMap& map,
                              std::size_t num_shards,
                              std::span<const Edge> edges, SlabPool* pool) {
  SPADE_CHECK(num_shards > 0);
  num_shards_ = num_shards;
  const std::size_t m = edges.size();
  const std::size_t num_partitions = map.num_partitions();
  shard_of_.resize(m);
  counts_.assign(num_shards, 0);

  // Pass 1: one routing evaluation per edge — the stable partition id,
  // then one acquire load through the partition map. A move that
  // republishes mid-pass can split a chunk's edges for one partition
  // across the old and new owner; both apply or forward them correctly
  // (the map only has to be eventually consistent).
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t shard =
        map.ShardOf(PartitionOf(partitioner, num_partitions, edges[i]));
    shard_of_[i] = static_cast<std::uint32_t>(shard);
    ++counts_[shard];
  }

  // Pass 2: stable counting-sort placement. A slab whose storage was moved
  // to a worker by TakePart refills from the recycle pool first, so the
  // steady-state batched path circulates slabs instead of allocating.
  parts_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (pool != nullptr && counts_[s] > 0 && parts_[s].capacity() == 0) {
      parts_[s] = pool->Get();
    }
    parts_[s].clear();
    parts_[s].reserve(counts_[s]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    parts_[shard_of_[i]].push_back(edges[i]);
  }
}

}  // namespace spade
