// Ingest-pipeline stress (ctest label `stress`; runs under TSan in CI):
// ≥4 producers drive a sharded service through the lock-free chunk handoff
// — mixing per-edge Submit and SubmitBatch — concurrently with Drain()
// callers, incremental SaveState(kDelta) checkpoints, and lock-free
// snapshot readers. Afterwards, a differential against independent Spade
// detectors asserts no edge was lost or duplicated anywhere in the
// pipeline: per-shard edge counts, total weights and full edge multisets
// must match the deterministic routing exactly (DW semantics keep applied
// weights order-independent, so the multiset comparison is exact under any
// producer interleaving). A final checkpoint is then restored into a fresh
// fleet and compared bit-level against the live one — the delta chain
// written under concurrent producers replays to the same state.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kVertices = 512;
constexpr std::size_t kProducers = 4;
constexpr std::size_t kEdgesPerProducer = 3000;

std::vector<Spade> BuildEmptyShards() {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(kVertices, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

using EdgeTuple = std::tuple<VertexId, VertexId, double>;

/// The shard's applied graph as a sorted (src, dst, weight) multiset.
std::vector<EdgeTuple> ShardEdgeMultiset(const ShardedDetectionService& svc,
                                         std::size_t shard) {
  std::vector<EdgeTuple> out;
  svc.InspectShard(shard, [&](const Spade& spade) {
    const DynamicGraph& g = spade.graph();
    EXPECT_EQ(spade.PendingBenignEdges(), 0u);  // caller drained
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const NeighborEntry& e : g.OutNeighbors(v)) {
        out.emplace_back(v, e.vertex, e.weight);
      }
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeTuple> ReferenceEdgeMultiset(const std::vector<Edge>& edges) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  EXPECT_TRUE(spade.BuildGraph(kVertices, {}).ok());
  for (const Edge& e : edges) {
    EXPECT_TRUE(spade.ApplyEdge(e).ok());
  }
  (void)spade.Detect();  // fold the benign buffer
  std::vector<EdgeTuple> out;
  const DynamicGraph& g = spade.graph();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const NeighborEntry& e : g.OutNeighbors(v)) {
      out.emplace_back(v, e.vertex, e.weight);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IngestStressTest, NoLostOrDuplicatedEdgesUnderFullConcurrency) {
  const std::string dir =
      ::testing::TempDir() + "/spade_ingest_stress_ckpt";
  std::filesystem::remove_all(dir);

  ShardedDetectionServiceOptions options;
  options.partitioner = HashOfSourcePartitioner();
  options.shard.detect_every = 64;
  options.shard.block_when_full = true;
  // Small queue: backpressure (blocking mode) engages for real, so the
  // space-waiter protocol is part of what TSan sees.
  options.shard.max_queue = 256;
  ShardedDetectionService service(BuildEmptyShards(), nullptr, options);

  // Arm the delta chain so the checkpointer can use kDelta exclusively.
  ASSERT_TRUE(
      service.SaveState(dir, ShardedDetectionService::SaveMode::kFull).ok());

  // Per-producer deterministic edge lists (the global multiset is the
  // union; interleaving is scheduler-chosen).
  std::vector<std::vector<Edge>> producer_edges(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    Rng rng(9000 + p);
    for (std::size_t i = 0; i < kEdgesPerProducer; ++i) {
      producer_edges[p].push_back(testing::RandomEdge(&rng, kVertices));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<Edge>& edges = producer_edges[p];
      // Alternate per-edge Submit and SubmitBatch chunks of varying size,
      // so singles and slabs interleave in every shard's ring.
      std::size_t i = 0;
      bool batch = (p % 2) == 0;
      while (i < edges.size()) {
        if (batch) {
          const std::size_t n = std::min<std::size_t>(
              37 + 11 * p, edges.size() - i);
          std::size_t enqueued = 0;
          if (!service
                   .SubmitBatch(std::span<const Edge>(edges.data() + i, n),
                                &enqueued)
                   .ok() ||
              enqueued != n) {
            ++failures;  // blocking mode must accept everything
          }
          i += n;
        } else {
          const std::size_t n =
              std::min<std::size_t>(13, edges.size() - i);
          for (std::size_t j = 0; j < n; ++j) {
            if (!service.Submit(edges[i + j]).ok()) ++failures;
          }
          i += n;
        }
        batch = !batch;
      }
    });
  }

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      service.Drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status s = service.SaveState(
          dir, ShardedDetectionService::SaveMode::kDelta);
      if (!s.ok()) ++failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Community c = service.CurrentCommunity();
        if (c.density < 0.0) ++failures;
        const ShardedServiceStats stats = service.GetStats();
        if (stats.shard_queue_hwm.size() != kShards) ++failures;
        (void)stats.boundary_edges;
      }
    });
  }

  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  checkpointer.join();
  for (auto& t : readers) t.join();
  service.Drain();
  ASSERT_EQ(failures.load(), 0);

  // ---- Differential: nothing lost, nothing duplicated. ------------------
  const std::size_t total = kProducers * kEdgesPerProducer;
  EXPECT_EQ(service.EdgesProcessed(), total);

  std::vector<std::vector<Edge>> expected(kShards);
  std::size_t expected_boundary = 0;
  for (const auto& edges : producer_edges) {
    for (const Edge& e : edges) {
      expected[service.ShardOf(e)].push_back(e);
      if (service.HomeShardOf(e.src) != service.HomeShardOf(e.dst)) {
        ++expected_boundary;
      }
    }
  }
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.boundary_edges, expected_boundary);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(stats.shard_edges[s], expected[s].size()) << "shard " << s;
    EXPECT_EQ(ShardEdgeMultiset(service, s),
              ReferenceEdgeMultiset(expected[s]))
        << "shard " << s << " graph multiset diverged";
  }

  // ---- The chain written under concurrency restores bit-identically. ----
  ASSERT_TRUE(
      service.SaveState(dir, ShardedDetectionService::SaveMode::kDelta).ok());
  std::vector<testing::ShardCapture> live(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    service.InspectShard(s, [&](const Spade& spade) {
      live[s] = testing::Capture(spade);
    });
  }
  ShardedDetectionServiceOptions restore_options = options;
  ShardedDetectionService restored(BuildEmptyShards(), nullptr,
                                   restore_options);
  ShardedDetectionService::RestoreInfo info;
  ASSERT_TRUE(restored.RestoreState(dir, &info).ok());
  EXPECT_EQ(info.restored_epoch, info.manifest_epoch);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ShardCapture got;
    restored.InspectShard(s, [&](const Spade& spade) {
      got = testing::Capture(spade);
    });
    testing::ExpectShardEqualsCapture(live[s], got);
  }

  service.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spade
