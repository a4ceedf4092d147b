// Concurrency stress for work-stealing rebalance: producers hammer a
// multi-partition fleet while a mover thread relocates partitions as fast
// as the quiesce protocol allows, a checkpointer saves delta epochs, an
// expirer retires the window behind the event clock, and a trigger-armed
// stitcher merges boundary weights — all racing Drain calls.
//
// The invariants under test are order-independent: no edge is lost or
// double-applied across a move (fleet-wide processed == accepted), a
// stitched read never overstates the induced density of its members in
// the final merged window, and a checkpoint taken mid-race restores
// cleanly. Raciness is the point; the test runs in the `stress` ctest
// label and the TSan CI leg, where the partition-map publishes, the
// forward hand-offs and the detach/attach fences are checked for data
// races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr VertexId kVerticesPerTenant = 48;
constexpr std::size_t kPartitions = 8;
constexpr std::size_t kPartitionsPerShard = 2;

std::vector<Spade> BuildEmptyPartitions(std::size_t num_partitions,
                                        std::size_t n) {
  std::vector<Spade> shards;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

TEST(RebalanceStressTest, MovesRaceIngestRetireCheckpointAndStitch) {
  const std::size_t n = kPartitions * kVerticesPerTenant;
  const std::string dir = ::testing::TempDir() + "/spade_rebalance_stress";
  std::filesystem::remove_all(dir);

  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.rebalance.partitions_per_shard = kPartitionsPerShard;
  options.rebalance.quiesce_timeout_ms = 2;
  options.window.span = 1'500;
  options.stitch.trigger_weight = 200.0;  // event-driven wakeups mid-run
  ShardedDetectionService service(BuildEmptyPartitions(kPartitions, n),
                                  nullptr, options);
  const std::size_t num_shards = service.num_shards();

  std::atomic<bool> producers_done{false};
  std::atomic<Timestamp> clock{1};
  std::atomic<std::size_t> accepted_total{0};
  std::atomic<std::size_t> saves_begun{0};
  std::atomic<std::size_t> saves_done{0};

  // Producers: mixed per-edge / batched submission with a steady
  // cross-tenant fraction, advancing event time so the window expires
  // behind them. Iteration-bounded (see stitch_stress_test for why), which
  // lets a fast host finish the stream before the mover or the
  // checkpointer first run: halfway through, each producer waits until a
  // save that BEGAN after it got there has completed, and until one
  // partition has moved, so both still race the second half and the checks
  // below always have a move and a checkpoint holding edges to look at. (A
  // save that began earlier may have run before any edge was applied.
  // The wait gives up after a minute, so a mover or checkpointer that died
  // on a failed assertion fails the test below instead of hanging it.)
  constexpr int kBatchesPerProducer = 800;
  const auto gate_deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(4000 + t);
      std::vector<Edge> batch;
      for (int iter = 0; iter < kBatchesPerProducer; ++iter) {
        // Saves run one at a time, so save number begun + 1 is the first
        // to begin after this load.
        const std::size_t begun =
            iter == kBatchesPerProducer / 2 ? saves_begun.load() : 0;
        while (iter == kBatchesPerProducer / 2 &&
               (saves_done.load(std::memory_order_acquire) <= begun ||
                service.GetStats().partitions_moved == 0) &&
               std::chrono::steady_clock::now() < gate_deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const Timestamp now = clock.fetch_add(1, std::memory_order_relaxed);
        batch.clear();
        for (int i = 0; i < 16; ++i) {
          const auto tenant = rng.NextBounded(kPartitions);
          auto s = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                         rng.NextBounded(kVerticesPerTenant));
          VertexId d;
          if (i % 4 == 0) {  // cross-tenant: boundary weights stay hot
            const auto other =
                (tenant + 1 + rng.NextBounded(kPartitions - 1)) % kPartitions;
            d = static_cast<VertexId>(other * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
          } else {
            d = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
            if (d == s) {
              d = (d + 1) %
                  (tenant * kVerticesPerTenant + kVerticesPerTenant);
            }
          }
          if (d == s) continue;
          batch.push_back(Edge{s, d, 1.0 + 10.0 * rng.NextDouble(), now});
        }
        if (batch.size() % 2 == 0) {
          std::size_t got = 0;
          ASSERT_TRUE(service.SubmitBatch(batch, &got).ok());
          accepted_total.fetch_add(got, std::memory_order_relaxed);
        } else {
          for (const Edge& e : batch) {
            ASSERT_TRUE(service.Submit(e).ok());
            accepted_total.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Mover: relocates random partitions as fast as quiesce allows — every
  // move races live applies, forcing the forward path constantly.
  std::thread mover([&] {
    Rng rng(31);
    while (!producers_done.load(std::memory_order_acquire)) {
      const std::size_t pid = rng.NextBounded(kPartitions);
      const std::size_t to = rng.NextBounded(num_shards);
      ASSERT_TRUE(service.RebalanceNow(pid, to).ok());
      std::this_thread::yield();
    }
  });

  // Expirer: explicit RetireOlderThan racing moves — retire markers must
  // find every partition wherever it currently lives.
  std::thread expirer([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const Timestamp now = clock.load(std::memory_order_relaxed);
      if (now > 500) (void)service.RetireOlderThan(now - 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Checkpointer: delta-chain saves racing moves — each save walks every
  // partition under the same rebalance lock the mover contends for, and
  // records the placement it found.
  std::thread checkpointer([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      saves_begun.fetch_add(1);
      ASSERT_TRUE(service
                      .SaveState(dir,
                                 ShardedDetectionService::SaveMode::kAuto,
                                 nullptr)
                      .ok());
      saves_done.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Drain + stitch readers racing everything else.
  std::thread stitcher([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      service.Drain();
      const GlobalCommunity g = service.StitchNow();
      EXPECT_GE(g.density, 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& p : producers) p.join();
  producers_done.store(true, std::memory_order_release);
  mover.join();
  expirer.join();
  checkpointer.join();
  stitcher.join();

  // Quiesce and check the order-independent invariants.
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), accepted_total.load());

  // No overstatement: the published density is at most the induced
  // density of the published members in the merged window graph. (The
  // greedy peel of that graph is no bound: peeling is not monotone under
  // adding edges, so a real community found in one partition can be
  // denser than the merged graph's peel.)
  const GlobalCommunity final_pass = service.StitchNow();
  std::vector<Edge> window;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::vector<Edge> shard_window = service.ShardWindow(s);
    window.insert(window.end(), shard_window.begin(), shard_window.end());
  }
  EXPECT_LE(final_pass.density,
            testing::InducedDensity(window, final_pass.members) + 1e-9);

  const ShardedServiceStats stats = service.GetStats();
  EXPECT_GT(stats.edges_processed, 0u);
  EXPECT_GT(stats.retired_edges, 0u);
  EXPECT_GT(stats.partitions_moved, 0u);
  std::size_t owned_total = 0;
  for (const std::size_t p : stats.shard_partitions) owned_total += p;
  EXPECT_EQ(owned_total, kPartitions);

  // The last checkpoint of the race restores into a fresh fleet with
  // whatever placement it recorded.
  ShardedDetectionService restored(BuildEmptyPartitions(kPartitions, n),
                                   nullptr, options);
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  std::size_t restored_edges = 0;
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    ASSERT_TRUE(restored
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        restored_edges += s.graph().NumEdges();
                                      })
                    .ok());
  }
  EXPECT_GT(restored_edges, 0u);

  service.Stop();
  restored.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spade
