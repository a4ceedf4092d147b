// Tests for work-stealing shard rebalance: the lock-free partition map,
// multi-partition fleets (partitions_per_shard > 1) against independent
// reference detectors, manual partition moves racing live traffic, the
// auto-rebalancer's steal policy under a skewed workload, and placement-
// aware checkpointing (a snapshot taken mid-rebalance restores to a
// bit-identical fleet with the exact live placement).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/partition_map.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr VertexId kVerticesPerTenant = 64;

Edge TenantEdge(Rng* rng, std::size_t tenant) {
  const auto base = static_cast<VertexId>(tenant * kVerticesPerTenant);
  auto s = static_cast<VertexId>(rng->NextBounded(kVerticesPerTenant));
  auto d = static_cast<VertexId>(rng->NextBounded(kVerticesPerTenant));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(kVerticesPerTenant));
  return Edge{static_cast<VertexId>(base + s),
              static_cast<VertexId>(base + d),
              static_cast<double>(1 + rng->NextBounded(6)), 0};
}

/// One detector per PARTITION (tenant % num_partitions), all sharing the
/// global vertex-id space.
std::vector<Spade> BuildPartitions(std::size_t num_partitions,
                                   std::size_t num_tenants,
                                   const std::vector<Edge>& initial) {
  std::vector<std::vector<Edge>> parts(num_partitions);
  for (const Edge& e : initial) {
    parts[(e.src / kVerticesPerTenant) % num_partitions].push_back(e);
  }
  std::vector<Spade> shards;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(
        spade.BuildGraph(num_tenants * kVerticesPerTenant, parts[p]).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

ShardedDetectionServiceOptions RebalanceOptionsFor(
    std::size_t partitions_per_shard) {
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.rebalance.partitions_per_shard = partitions_per_shard;
  return options;
}

TEST(PartitionMapTest, RoutesAndEpochBumps) {
  PartitionMap map(8, 4);
  ASSERT_EQ(map.num_partitions(), 8u);
  for (std::size_t pid = 0; pid < 8; ++pid) {
    EXPECT_EQ(map.ShardOf(pid), pid % 4);
    EXPECT_EQ(map.Read(pid).epoch, 0u);
  }
  // Each publish bumps the epoch; the shard changes atomically with it.
  EXPECT_EQ(map.Publish(5, 2), 1u);
  EXPECT_EQ(map.ShardOf(5), 2u);
  EXPECT_EQ(map.Read(5).epoch, 1u);
  EXPECT_EQ(map.Publish(5, 0), 2u);
  EXPECT_EQ(map.ShardOf(5), 0u);
  EXPECT_EQ(map.Read(5).epoch, 2u);
  // Other entries are untouched.
  EXPECT_EQ(map.ShardOf(1), 1u);
  EXPECT_EQ(map.Read(1).epoch, 0u);
}

// A fleet of 8 partitions packed 4-per-worker must behave exactly like 8
// independent detectors fed the same per-partition streams: same members,
// same densities, every partition addressable by pid.
TEST(RebalanceTest, MultiPartitionFleetMatchesIndependentDetectors) {
  constexpr std::size_t kPartitions = 8;
  Rng rng(4242);
  std::vector<Edge> initial;
  for (int i = 0; i < 400; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(kPartitions)));
  }
  std::vector<Edge> stream;
  for (int i = 0; i < 1200; ++i) {
    stream.push_back(TenantEdge(&rng, rng.NextBounded(kPartitions)));
  }

  ShardedDetectionService service(
      BuildPartitions(kPartitions, kPartitions, initial), nullptr,
      RebalanceOptionsFor(/*partitions_per_shard=*/4));
  ASSERT_EQ(service.num_shards(), 2u);
  ASSERT_EQ(service.num_partitions(), kPartitions);
  for (const Edge& e : stream) ASSERT_TRUE(service.Submit(e).ok());
  service.Drain();

  std::vector<Spade> reference =
      BuildPartitions(kPartitions, kPartitions, initial);
  for (auto& r : reference) r.TurnOnEdgeGrouping();
  for (const Edge& e : stream) {
    const std::size_t pid = (e.src / kVerticesPerTenant) % kPartitions;
    ASSERT_TRUE(reference[pid].ApplyEdge(e).ok());
  }

  EXPECT_EQ(service.EdgesProcessed(), stream.size());
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    Community want = reference[pid].Detect();
    Community got;
    ASSERT_TRUE(service
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        got = s.peel_state().DetectCommunity();
                                      })
                    .ok());
    std::sort(got.members.begin(), got.members.end());
    std::sort(want.members.begin(), want.members.end());
    EXPECT_EQ(got.members, want.members) << "partition " << pid;
    EXPECT_NEAR(got.density, want.density, 1e-9) << "partition " << pid;
  }
}

// Manual partition moves between drained phases: after every move the fleet
// must still equal the independent reference — no edge lost, duplicated, or
// applied to the wrong partition, no matter where the partition lives.
TEST(RebalanceTest, ManualMovesPreserveDifferential) {
  constexpr std::size_t kPartitions = 8;
  constexpr std::size_t kPhases = 6;
  Rng rng(91);
  ShardedDetectionService service(
      BuildPartitions(kPartitions, kPartitions, {}), nullptr,
      RebalanceOptionsFor(/*partitions_per_shard=*/2));
  ASSERT_EQ(service.num_shards(), 4u);

  std::vector<Spade> reference = BuildPartitions(kPartitions, kPartitions, {});
  for (auto& r : reference) r.TurnOnEdgeGrouping();

  std::size_t submitted = 0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    for (int i = 0; i < 200; ++i) {
      const Edge e = TenantEdge(&rng, rng.NextBounded(kPartitions));
      ASSERT_TRUE(service.Submit(e).ok());
      const std::size_t pid = (e.src / kVerticesPerTenant) % kPartitions;
      ASSERT_TRUE(reference[pid].ApplyEdge(e).ok());
      ++submitted;
    }
    service.Drain();
    for (auto& r : reference) r.Detect();  // mirror the drain-time flush
    // Shuffle a random partition onto a random shard (possibly a no-op).
    const std::size_t pid = rng.NextBounded(kPartitions);
    const std::size_t to = rng.NextBounded(service.num_shards());
    ASSERT_TRUE(service.RebalanceNow(pid, to).ok());
    EXPECT_EQ(service.PartitionShard(pid), to);
  }
  service.Drain();

  EXPECT_EQ(service.EdgesProcessed(), submitted);
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_GT(stats.partitions_moved, 0u);
  EXPECT_EQ(stats.steals, 0u);  // manual moves are not steals
  std::size_t owned_total = 0;
  for (const std::size_t p : stats.shard_partitions) owned_total += p;
  EXPECT_EQ(owned_total, kPartitions);

  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    Community want = reference[pid].peel_state().DetectCommunity();
    Community got;
    ASSERT_TRUE(service
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        got = s.peel_state().DetectCommunity();
                                      })
                    .ok());
    std::sort(got.members.begin(), got.members.end());
    std::sort(want.members.begin(), want.members.end());
    EXPECT_EQ(got.members, want.members) << "partition " << pid;
    EXPECT_NEAR(got.density, want.density, 1e-9) << "partition " << pid;
  }
}

// Randomized moves racing CONCURRENT producers: additive DW semantics make
// the final per-partition graph a pure function of the edge multiset, so
// the totals must match the reference no matter how applies interleave
// with moves (forwarded edges land exactly once).
TEST(RebalanceTest, ConcurrentMovesLoseNoEdges) {
  constexpr std::size_t kPartitions = 8;
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 2000;
  ShardedDetectionService service(
      BuildPartitions(kPartitions, kPartitions, {}), nullptr,
      RebalanceOptionsFor(/*partitions_per_shard=*/2));

  // Pre-generate per-producer streams so the submitted multiset is known.
  std::vector<std::vector<Edge>> streams(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    Rng rng(1000 + p);
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      streams[p].push_back(TenantEdge(&rng, rng.NextBounded(kPartitions)));
    }
  }

  std::atomic<bool> stop_moving{false};
  std::thread mover([&] {
    Rng rng(7);
    while (!stop_moving.load(std::memory_order_relaxed)) {
      const std::size_t pid = rng.NextBounded(kPartitions);
      const std::size_t to = rng.NextBounded(service.num_shards());
      ASSERT_TRUE(service.RebalanceNow(pid, to).ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Mixed per-edge and batched submission exercises both routing paths.
      const auto& stream = streams[p];
      for (std::size_t i = 0; i < stream.size();) {
        if (i % 3 == 0) {
          ASSERT_TRUE(service.Submit(stream[i]).ok());
          ++i;
        } else {
          const std::size_t take = std::min<std::size_t>(64, stream.size() - i);
          ASSERT_TRUE(
              service.SubmitBatch({stream.data() + i, take}, nullptr).ok());
          i += take;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop_moving.store(true, std::memory_order_relaxed);
  mover.join();
  service.Drain();

  EXPECT_EQ(service.EdgesProcessed(), kProducers * kPerProducer);

  // Per-partition edge totals (count and weight) against a reference fed
  // the same multiset — the order-independent invariants of the additive
  // semantics.
  std::vector<Spade> reference = BuildPartitions(kPartitions, kPartitions, {});
  for (auto& r : reference) r.TurnOnEdgeGrouping();
  for (const auto& stream : streams) {
    for (const Edge& e : stream) {
      const std::size_t pid = (e.src / kVerticesPerTenant) % kPartitions;
      ASSERT_TRUE(reference[pid].ApplyEdge(e).ok());
    }
  }
  for (auto& r : reference) r.Detect();
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    std::size_t got_edges = 0;
    double got_weight = 0.0;
    ASSERT_TRUE(service
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        got_edges = s.graph().NumEdges();
                                        got_weight = s.graph().TotalWeight();
                                      })
                    .ok());
    EXPECT_EQ(got_edges, reference[pid].graph().NumEdges())
        << "partition " << pid;
    EXPECT_NEAR(got_weight, reference[pid].graph().TotalWeight(), 1e-6)
        << "partition " << pid;
  }
  service.Stop();
}

// The auto-rebalancer must steal from a worker drowning in a hot-tenant
// burst while its peers idle — and the fleet must stay exact.
TEST(RebalanceTest, AutoStealerBalancesSkewedLoad) {
  constexpr std::size_t kPartitions = 8;
  ShardedDetectionServiceOptions options =
      RebalanceOptionsFor(/*partitions_per_shard=*/2);
  options.rebalance.interval_ms = 5;
  options.rebalance.skew_ratio = 2.0;
  options.rebalance.min_queue_depth = 32;
  options.rebalance.min_improvement = 0.01;
  options.rebalance.cooldown_ms = 5;
  // A short queue keeps the producer's blocking handoff tight against the
  // worker's pace, so the recent high-water mark reads "saturated" while
  // applies still flow fast enough that BOTH hot partitions accrue load
  // within one 5ms rebalancer scan (the steal picker needs per-partition
  // loads from the same window to level the pair).
  options.shard.max_queue = 4096;
  ShardedDetectionService service(
      BuildPartitions(kPartitions, kPartitions, {}), nullptr,
      std::move(options));
  ASSERT_EQ(service.num_shards(), 4u);
  // Partitions 0 and 4 both start on worker 0 — the hot pair.
  ASSERT_EQ(service.PartitionShard(0), 0u);
  ASSERT_EQ(service.PartitionShard(4), 0u);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> submitted{0};
  std::thread producer([&] {
    Rng rng(55);
    while (!stop.load(std::memory_order_relaxed)) {
      // 100% of the traffic goes to the two hot partitions, interleaved
      // edge-by-edge so both accrue load inside every rebalancer scan
      // window (the steal picker levels the pair by per-partition load
      // measured over one scan interval).
      std::vector<Edge> chunk;
      for (int i = 0; i < 128; ++i) {
        chunk.push_back(TenantEdge(&rng, i % 2 == 0 ? 0 : 4));
      }
      std::size_t accepted = 0;
      // Fail-fast mode: a full queue rejects the tail of the chunk with a
      // non-OK status. That is the saturation this test is engineering —
      // count what got in and keep pushing.
      (void)service.SubmitBatch(chunk, &accepted);
      submitted.fetch_add(accepted, std::memory_order_relaxed);
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t steals = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    steals = service.GetStats().steals;
    if (steals > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  service.Drain();

  EXPECT_GT(steals, 0u) << "rebalancer never stole under a 2-hot-partition "
                           "skew within 20s";
  EXPECT_EQ(service.EdgesProcessed(), submitted.load());
  // The hot pair no longer shares worker 0 (a steal separated them).
  EXPECT_NE(service.PartitionShard(0), service.PartitionShard(4));
  service.Stop();
}

// Acceptance gate: a checkpoint taken mid-rebalance (non-default placement)
// restores into a fresh fleet bit-identically — same per-partition peel
// state, same graph totals, same benign-buffer depth, same placement.
TEST(RebalanceTest, MidRebalanceCheckpointRestoresBitIdentical) {
  constexpr std::size_t kPartitions = 8;
  const std::string dir = ::testing::TempDir() + "/spade_rebalance_ckpt";
  std::filesystem::remove_all(dir);

  Rng rng(1213);
  std::vector<Edge> initial;
  for (int i = 0; i < 300; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(kPartitions)));
  }
  ShardedDetectionService live(
      BuildPartitions(kPartitions, kPartitions, initial), nullptr,
      RebalanceOptionsFor(/*partitions_per_shard=*/2));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(live.Submit(TenantEdge(&rng, rng.NextBounded(kPartitions))).ok());
  }
  // Mid-stream rebalance: move two partitions off their default owners,
  // then keep streaming so the checkpoint is genuinely mid-flight state.
  ASSERT_TRUE(live.RebalanceNow(1, 3).ok());
  ASSERT_TRUE(live.RebalanceNow(4, 2).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(live.Submit(TenantEdge(&rng, rng.NextBounded(kPartitions))).ok());
  }
  ASSERT_TRUE(live
                  .SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                             nullptr)
                  .ok());

  // A delta epoch on top, still under the moved placement.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(live.Submit(TenantEdge(&rng, rng.NextBounded(kPartitions))).ok());
  }
  ASSERT_TRUE(live
                  .SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                             nullptr)
                  .ok());

  std::vector<testing::ShardCapture> want(kPartitions);
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    ASSERT_TRUE(live
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        want[pid] = testing::Capture(s);
                                      })
                    .ok());
  }

  ShardedDetectionService restored(
      BuildPartitions(kPartitions, kPartitions, {}), nullptr,
      RebalanceOptionsFor(/*partitions_per_shard=*/2));
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  // Placement follows the checkpoint, not the default layout.
  EXPECT_EQ(restored.PartitionShard(1), 3u);
  EXPECT_EQ(restored.PartitionShard(4), 2u);
  EXPECT_EQ(restored.PartitionShard(0), 0u);
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    testing::ShardCapture got;
    ASSERT_TRUE(restored
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        got = testing::Capture(s);
                                      })
                    .ok());
    testing::ExpectShardEqualsCapture(want[pid], got);
  }

  // A fleet without a background rebalancer (one partition per worker
  // here) still runs the move protocol: it restores the moved placement
  // bit-identically too.
  ShardedDetectionServiceOptions off;
  off.partitioner = TenantPartitioner(kVerticesPerTenant);
  ShardedDetectionService fixed(
      BuildPartitions(kPartitions, kPartitions, {}), nullptr, std::move(off));
  ASSERT_TRUE(fixed.RestoreState(dir).ok());
  EXPECT_EQ(fixed.PartitionShard(1), 3u);
  EXPECT_EQ(fixed.PartitionShard(4), 2u);
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    testing::ShardCapture got;
    ASSERT_TRUE(fixed
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        got = testing::Capture(s);
                                      })
                    .ok());
    testing::ExpectShardEqualsCapture(want[pid], got);
  }

  live.Stop();
  std::filesystem::remove_all(dir);
}

// A fleet without a background rebalancer still moves partitions on
// request, out-of-range arguments are rejected, and a same-shard move is a
// no-op success.
TEST(RebalanceTest, MoveValidation) {
  ShardedDetectionServiceOptions off;
  off.partitioner = TenantPartitioner(kVerticesPerTenant);
  ShardedDetectionService fixed(BuildPartitions(4, 4, {}), nullptr,
                                std::move(off));
  EXPECT_TRUE(fixed.RebalanceNow(0, 1).ok());
  EXPECT_EQ(fixed.PartitionShard(0), 1u);

  ShardedDetectionService fleet(BuildPartitions(4, 4, {}), nullptr,
                                RebalanceOptionsFor(1));
  EXPECT_EQ(fleet.RebalanceNow(99, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.RebalanceNow(0, 99).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fleet.RebalanceNow(2, 2).ok());  // already there
  EXPECT_EQ(fleet.GetStats().partitions_moved, 0u);
  EXPECT_TRUE(fleet.RebalanceNow(2, 0).ok());
  EXPECT_EQ(fleet.PartitionShard(2), 0u);
  EXPECT_EQ(fleet.GetStats().partitions_moved, 1u);
}

// GetStats() is lock-free (ShardedServiceStats): a poller must not wait on
// a worker's detector mutex, here held by an InspectPartition callback for
// as long as the test likes. The per-shard partition counts still add up,
// and follow a move.
TEST(RebalanceTest, GetStatsDoesNotWaitOnAHeldDetector) {
  ShardedDetectionService fleet(BuildPartitions(4, 4, {}), nullptr,
                                RebalanceOptionsFor(2));
  std::promise<void> holding;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread inspector([&] {
    EXPECT_TRUE(fleet
                    .InspectPartition(0,
                                      [&](const Spade&) {
                                        holding.set_value();
                                        released.wait();
                                      })
                    .ok());
  });
  holding.get_future().wait();
  auto stats = std::async(std::launch::async, [&] { return fleet.GetStats(); });
  const bool returned =
      stats.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  release.set_value();
  inspector.join();
  EXPECT_TRUE(returned) << "GetStats() waited on a held detector mutex";
  const ShardedServiceStats got = stats.get();
  ASSERT_EQ(got.shard_partitions.size(), fleet.num_shards());
  EXPECT_EQ(got.shard_partitions[0], 2u);
  EXPECT_EQ(got.shard_partitions[1], 2u);

  ASSERT_TRUE(fleet.RebalanceNow(1, 0).ok());
  const ShardedServiceStats moved = fleet.GetStats();
  EXPECT_EQ(moved.shard_partitions[0], 3u);
  EXPECT_EQ(moved.shard_partitions[1], 1u);
}

}  // namespace
}  // namespace spade
