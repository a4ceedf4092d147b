// Concurrency stress for message-driven stitching: producers hammer the
// router while window expiry, partition moves and stitch passes run
// against the same boundary weights (worker-side add and retire under the
// detector mutex, stitcher-side merge, retire-delta triggers).
//
// The invariant under test is the publication contract: a stitched read
// never OVERSTATES — the density it serves is at most the induced density
// of its members in the merged graph of the final window. Moves carry
// partitions to workers outside a snapshot's provenance, so a retire that
// invalidates a snapshot can run anywhere in the fleet. Raciness is the
// point; the test runs in the `stress` ctest label and in the TSan CI leg,
// where the queue hand-offs and the deletion-generation check are checked
// for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr VertexId kVerticesPerTenant = 48;
constexpr std::size_t kShards = 4;

std::vector<Spade> BuildEmptyShards(std::size_t num_shards, std::size_t n) {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

TEST(StitchStressTest, ConcurrentIngestRetireAndStitchNeverOverstate) {
  const std::size_t n = kShards * kVerticesPerTenant;
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.window.span = 1'500;
  options.stitch.trigger_weight = 200.0;  // event-driven wakeups mid-run
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::atomic<bool> producers_done{false};
  std::atomic<Timestamp> clock{1};

  // Producers: mixed per-edge / batched submission, advancing event time so
  // the window keeps expiring behind them. Cross-tenant edges are a steady
  // fraction of the traffic, so the trigger accumulators and the queues
  // stay hot. Strictly iteration-bounded — a wall-clock stop flag would let
  // a fast machine spin the event clock through thousands of window strides
  // and drown the shards in retire markers.
  constexpr int kBatchesPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(9000 + t);
      std::vector<Edge> batch;
      for (int iter = 0; iter < kBatchesPerProducer; ++iter) {
        const Timestamp now =
            clock.fetch_add(1, std::memory_order_relaxed);
        batch.clear();
        for (int i = 0; i < 16; ++i) {
          const auto tenant = rng.NextBounded(kShards);
          auto s = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                         rng.NextBounded(kVerticesPerTenant));
          VertexId d;
          if (i % 4 == 0) {  // cross-tenant
            const auto other = (tenant + 1 + rng.NextBounded(kShards - 1)) %
                               kShards;
            d = static_cast<VertexId>(other * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
          } else {
            d = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
            if (d == s) d = (d + 1) % (tenant * kVerticesPerTenant +
                                       kVerticesPerTenant);
          }
          if (d == s) continue;
          batch.push_back(Edge{s, d, 1.0 + 10.0 * rng.NextDouble(), now});
        }
        if (batch.size() % 2 == 0) {
          (void)service.SubmitBatch(batch);
        } else {
          for (const Edge& e : batch) (void)service.Submit(e);
        }
      }
    });
  }

  // Expirer: explicit RetireOlderThan racing the stitcher's merges.
  std::thread expirer([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const Timestamp now = clock.load(std::memory_order_relaxed);
      if (now > 500) (void)service.RetireOlderThan(now - 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Mover: partitions hop between random workers while passes gather
  // and retires run. It is the only mover, so each hop leaves the owner it
  // reads, and the first one runs however soon the producers finish.
  std::thread mover([&] {
    Rng rng(9100);
    do {
      const std::size_t pid = rng.NextBounded(kShards);
      const std::size_t to =
          (service.PartitionShard(pid) + 1 + rng.NextBounded(kShards - 1)) %
          kShards;
      EXPECT_TRUE(service.RebalanceNow(pid, to).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    } while (!producers_done.load(std::memory_order_acquire));
  });

  // Explicit StitchNow callers race the trigger-driven background
  // stitcher (trigger_weight > 0 armed it) on the same stitch mutex and
  // boundary weights, while reads check the published snapshot stays
  // well-formed.
  std::thread stitcher([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const GlobalCommunity g = service.StitchNow();
      EXPECT_GE(g.density, 0.0);
      const GlobalCommunity read = service.CurrentGlobalCommunity();
      EXPECT_GE(read.density, 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& p : producers) p.join();
  producers_done.store(true, std::memory_order_release);
  expirer.join();
  mover.join();
  stitcher.join();

  // Quiesce: drain everything. Neither the read the racing passes left
  // behind, nor one final pass with no concurrent mutation, nor the read
  // after it may be denser than the induced density of its own members in
  // the merged graph of the shards' final windows (the ground truth for
  // "no overstatement"; the greedy peel of that graph is no bound, as
  // peeling is not monotone under adding edges).
  service.Drain();
  std::vector<Edge> window;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::vector<Edge> shard_window = service.ShardWindow(s);
    window.insert(window.end(), shard_window.begin(), shard_window.end());
  }
  const GlobalCommunity left = service.CurrentGlobalCommunity();
  EXPECT_LE(left.density, testing::InducedDensity(window, left.members) + 1e-9);

  const GlobalCommunity final_pass = service.StitchNow();
  EXPECT_LE(final_pass.density,
            testing::InducedDensity(window, final_pass.members) + 1e-9);
  const GlobalCommunity read = service.CurrentGlobalCommunity();
  EXPECT_LE(read.density,
            testing::InducedDensity(window, read.members) + 1e-9);

  const ShardedServiceStats stats = service.GetStats();
  EXPECT_GT(stats.edges_processed, 0u);
  EXPECT_GT(stats.retired_edges, 0u);
  // Monotone counters prove the message path flowed, regardless of how
  // many boundary weights the final horizon retired.
  EXPECT_GE(stats.stitch_triggers, 1u);
  EXPECT_GE(stats.stitch_passes, 1u);
  EXPECT_GE(stats.partitions_moved, 1u);
  service.Stop();
}

}  // namespace
}  // namespace spade
