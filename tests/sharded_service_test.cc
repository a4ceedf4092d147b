// Tests for ShardedDetectionService: partitioned differential correctness,
// tenant routing, shard-tagged alerts, cross-shard argmax reads, manifest
// save/restore, and multi-producer + concurrent-reader stress.

#include "service/sharded_detection_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/router_scratch.h"
#include "storage/sharded_snapshot.h"
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
              0.5 + 5.0 * rng->NextDouble(), 0};
}

/// Builds one detector per tenant group holding that partition's initial
/// edges (all shards share the global vertex-id space).
std::vector<Spade> BuildShards(std::size_t num_shards,
                               std::size_t num_tenants,
                               const std::vector<Edge>& initial) {
  std::vector<std::vector<Edge>> parts(num_shards);
  for (const Edge& e : initial) {
    parts[(e.src / kVerticesPerTenant) % num_shards].push_back(e);
  }
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(
        spade.BuildGraph(num_tenants * kVerticesPerTenant, parts[s]).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

ShardedDetectionServiceOptions TenantOptions() {
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  return options;
}

TEST(ShardedDetectionServiceTest, TenantPartitionerRoutesByKey) {
  ShardedDetectionService service(BuildShards(4, 4, {}), nullptr,
                                  TenantOptions());
  ASSERT_EQ(service.num_shards(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    const Edge e{static_cast<VertexId>(t * kVerticesPerTenant + 3),
                 static_cast<VertexId>(t * kVerticesPerTenant + 7), 1.0, 0};
    EXPECT_EQ(service.ShardOf(e), t);
  }
}

// The satellite differential: a sharded service over a tenant-partitioned
// stream must report exactly the communities of N independent Spade
// instances fed the same partitions in the same order.
TEST(ShardedDetectionServiceTest, MatchesIndependentDetectors) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kTenants = 4;
  Rng rng(17);
  std::vector<Edge> initial;
  for (int i = 0; i < 400; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(kTenants)));
  }
  std::vector<Edge> stream;
  for (int i = 0; i < 800; ++i) {
    stream.push_back(TenantEdge(&rng, rng.NextBounded(kTenants)));
  }
  // A heavy burst in tenant 2 so at least one shard's community moves.
  for (int i = 0; i < 30; ++i) {
    const auto base = static_cast<VertexId>(2 * kVerticesPerTenant);
    stream.push_back({static_cast<VertexId>(base + i % 5),
                      static_cast<VertexId>(base + (i + 1) % 5), 50.0, 0});
  }

  ShardedDetectionService service(BuildShards(kShards, kTenants, initial),
                                  nullptr, TenantOptions());
  // Single producer => per-shard arrival order equals stream order.
  for (const Edge& e : stream) ASSERT_TRUE(service.Submit(e).ok());
  service.Drain();

  std::vector<Spade> reference = BuildShards(kShards, kTenants, initial);
  for (std::size_t s = 0; s < kShards; ++s) {
    reference[s].TurnOnEdgeGrouping();  // mirror the worker configuration
  }
  for (const Edge& e : stream) {
    const std::size_t s = (e.src / kVerticesPerTenant) % kShards;
    ASSERT_TRUE(reference[s].ApplyEdge(e).ok());
  }

  for (std::size_t s = 0; s < kShards; ++s) {
    Community got = service.ShardCommunity(s);
    Community want = reference[s].Detect();
    std::sort(got.members.begin(), got.members.end());
    std::sort(want.members.begin(), want.members.end());
    EXPECT_EQ(got.members, want.members) << "shard " << s;
    EXPECT_NEAR(got.density, want.density, 1e-9) << "shard " << s;
  }

  // The global answer is the densest shard snapshot.
  Community global = service.CurrentCommunity();
  double best = -1.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    best = std::max(best, service.ShardCommunity(s).density);
  }
  EXPECT_DOUBLE_EQ(global.density, best);
  EXPECT_EQ(service.TopShard(), 2u);  // the burst tenant wins the argmax
}

TEST(ShardedDetectionServiceTest, AlertsCarryShardIds) {
  constexpr std::size_t kShards = 3;
  std::mutex mutex;
  std::set<std::size_t> alerted_shards;
  std::vector<VertexId> last_burst_members;
  ShardedDetectionService service(
      BuildShards(kShards, kShards, {}),
      [&](std::size_t shard, const Community& c) {
        std::lock_guard<std::mutex> lock(mutex);
        alerted_shards.insert(shard);
        if (shard == 1) last_burst_members = c.members;
      },
      TenantOptions());

  // Ring burst confined to tenant 1: only shard 1 may alert.
  const auto base = static_cast<VertexId>(1 * kVerticesPerTenant);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service
                    .Submit({static_cast<VertexId>(base + i % 4),
                             static_cast<VertexId>(base + (i + 1) % 4), 10.0,
                             0})
                    .ok());
  }
  service.Drain();
  service.Stop();

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(alerted_shards, (std::set<std::size_t>{1}));
  ASSERT_FALSE(last_burst_members.empty());
  for (const VertexId v : last_burst_members) {
    EXPECT_GE(v, base);
    EXPECT_LT(v, base + kVerticesPerTenant);
  }
}

TEST(ShardedDetectionServiceTest, StatsMergeAcrossShards) {
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                  TenantOptions());
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(service.Submit(TenantEdge(&rng, i % 2)).ok());
  }
  service.Drain();
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.edges_processed, 60u);
  ASSERT_EQ(stats.shard_edges.size(), 2u);
  EXPECT_EQ(stats.shard_edges[0], 30u);
  EXPECT_EQ(stats.shard_edges[1], 30u);
  EXPECT_EQ(stats.edges_processed, service.EdgesProcessed());
  EXPECT_EQ(stats.alerts_delivered, service.AlertsDelivered());
}

// Edges a detector refuses are counted, not silently lost: a self-loop and
// two edges with non-admissible weights among ten valid ones. Nothing
// refused reaches a detector or the boundary weights.
TEST(ShardedDetectionServiceTest, RejectedEdgesAreCounted) {
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                  TenantOptions());
  const VertexId t1 = kVerticesPerTenant;  // first vertex of tenant 1
  std::vector<Edge> valid;
  for (VertexId i = 0; i < 10; ++i) {
    // Every other edge crosses from tenant 0 into tenant 1.
    valid.push_back(i % 2 == 0 ? Edge{i, t1 + i, 1.0 + i, 0}
                               : Edge{i, i + 1, 1.0 + i, 0});
  }
  const std::vector<Edge> invalid = {
      {5, 5, 2.0, 0},                                       // self-loop
      {3, t1 + 7, -5.0, 0},                                 // negative
      {4, t1 + 9, std::numeric_limits<double>::quiet_NaN(), 0},  // NaN
  };
  for (std::size_t i = 0; i < valid.size(); ++i) {
    ASSERT_TRUE(service.Submit(valid[i]).ok());
    if (i % 4 == 1) {
      ASSERT_TRUE(service.Submit(invalid[i / 4]).ok());
    }
  }
  service.Drain();

  const ShardedServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.rejected_edges, 3u);
  EXPECT_EQ(stats.edges_processed, 10u);
  EXPECT_EQ(stats.dropped_edges, 0u);
  EXPECT_EQ(stats.boundary_edges, 5u);
  std::unordered_map<VertexId, BoundaryWeight> want;
  for (const Edge& e : valid) {
    if (e.dst < t1) continue;
    for (const VertexId v : {e.src, e.dst}) {
      want[v].weight += e.weight;
      ++want[v].count;
    }
  }
  const auto got = service.BoundaryWeights();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [v, w] : want) {
    ASSERT_EQ(got.count(v), 1u) << "vertex " << v;
    EXPECT_EQ(got.at(v).weight, w.weight) << "vertex " << v;
    EXPECT_EQ(got.at(v).count, w.count) << "vertex " << v;
  }
}

// A refused edge whose endpoints lie beyond its shard's graph leaves that
// graph as it was: the fleet still checkpoints, and restores to itself.
TEST(ShardedDetectionServiceTest, RejectedEdgeKeepsCheckpointsWorking) {
  const std::string dir = ::testing::TempDir() + "/sharded_rejected_edge";
  std::filesystem::remove_all(dir);
  Rng rng(41);
  std::vector<Edge> initial;
  for (int i = 0; i < 100; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(2)));
  }
  ShardedDetectionService service(BuildShards(2, 2, initial), nullptr,
                                  TenantOptions());
  // Tenant 3 routes to shard 1, whose graph holds tenants 0 and 1 only.
  const VertexId t3 = 3 * kVerticesPerTenant;
  ASSERT_TRUE(service.Submit(Edge{t3 + 1, t3 + 2, -1.0, 0}).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Submit(TenantEdge(&rng, rng.NextBounded(2))).ok());
  }
  service.Drain();
  EXPECT_EQ(service.GetStats().rejected_edges, 1u);
  ASSERT_TRUE(service.SaveState(dir).ok());

  const auto capture = [](const ShardedDetectionService& fleet) {
    std::vector<testing::ShardCapture> captures(fleet.num_shards());
    for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
      fleet.InspectShard(s, [&](const Spade& spade) {
        captures[s] = testing::Capture(spade);
      });
    }
    return captures;
  };
  ShardedDetectionService restored(BuildShards(2, 2, {}), nullptr,
                                   TenantOptions());
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  const auto live = capture(service);
  const auto back = capture(restored);
  for (std::size_t s = 0; s < live.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    testing::ExpectShardEqualsCapture(live[s], back[s]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedDetectionServiceTest, SubmitBatchRoutesAcrossShards) {
  ShardedDetectionService service(BuildShards(4, 4, {}), nullptr,
                                  TenantOptions());
  Rng rng(29);
  std::vector<Edge> batch;
  for (int i = 0; i < 120; ++i) batch.push_back(TenantEdge(&rng, i % 4));
  ASSERT_TRUE(service.SubmitBatch(batch).ok());
  service.Drain();
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.edges_processed, 120u);
  for (const std::uint64_t per_shard : stats.shard_edges) {
    EXPECT_EQ(per_shard, 30u);
  }
}

// RouterScratch property: the batched partition must agree exactly with
// per-edge routing — each edge lands on map.ShardOf(PartitionOf(e)), and
// chunk order is preserved within a shard. Two partitions per shard, one
// of them published to another shard, so the check covers the map
// indirection and not just pid % shards. (Boundary counting happens on
// the worker apply path; RoutingPropertyTest in stitching_test.cc covers
// its exactness.)
TEST(RouterScratchTest, MatchesPerEdgeRouting) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPartitions = 2 * kShards;
  const Partitioner p = HashOfSourcePartitioner();
  PartitionMap map(kPartitions, kShards);
  // Partition 1 starts on shard 1; move it to shard 3.
  ASSERT_EQ(map.ShardOf(1), 1u);
  map.Publish(1, 3);
  Rng rng(41);
  std::vector<Edge> edges;
  for (int i = 0; i < 500; ++i) {
    edges.push_back(testing::RandomEdge(&rng, 256));
  }

  RouterScratch scratch;
  scratch.Partition(p, map, kShards, edges);

  std::vector<std::vector<Edge>> expected(kShards);
  std::size_t moved = 0;
  for (const Edge& e : edges) {
    const std::size_t pid = PartitionOf(p, kPartitions, e);
    if (pid == 1) ++moved;
    expected[map.ShardOf(pid)].push_back(e);
  }
  EXPECT_GT(moved, 0u);  // the moved partition really carries traffic
  const auto edge_eq = [](const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight &&
           a.ts == b.ts;
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::span<const Edge> part = scratch.Part(s);
    ASSERT_EQ(part.size(), expected[s].size()) << "shard " << s;
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_TRUE(edge_eq(part[i], expected[s][i]))
          << "shard " << s << " order diverges at " << i;
    }
  }
}

/// Parks one shard's worker inside its first alert so a test can fill that
/// shard's queue deterministically (the single-shard WorkerStall, keyed by
/// shard id).
class ShardStall {
 public:
  explicit ShardStall(std::size_t shard) : shard_(shard) {}
  ShardAlertFn Callback() {
    return [this](std::size_t shard, const Community&) {
      if (shard != shard_) return;
      std::unique_lock<std::mutex> lock(mutex_);
      if (stalled_once_) return;
      stalled_once_ = true;
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitStalled() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::size_t shard_;
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool stalled_once_ = false;
  bool entered_ = false;
  bool released_ = false;
};

// `enqueued` must be exact when one shard partially accepts its part under
// fail-fast backpressure, and the queue high-water mark must surface the
// pressure in GetStats.
TEST(ShardedDetectionServiceTest, EnqueuedExactUnderPartialShardAccept) {
  ShardStall stall(/*shard=*/1);
  ShardedDetectionServiceOptions options = TenantOptions();
  options.shard.max_queue = 2;
  options.shard.block_when_full = false;
  ShardedDetectionService service(BuildShards(2, 2, {}), stall.Callback(),
                                  options);

  // Park shard 1 behind a community-changing burst.
  const auto base1 = static_cast<VertexId>(1 * kVerticesPerTenant);
  ASSERT_TRUE(
      service.Submit({base1, static_cast<VertexId>(base1 + 1), 1e6, 0}).ok());
  stall.AwaitStalled();

  // 2 edges for (running) shard 0 — within its budget, so they are always
  // fully accepted — and 5 for the parked shard 1, whose free budget is 2.
  std::vector<Edge> chunk;
  Rng rng(47);
  for (int i = 0; i < 2; ++i) chunk.push_back(TenantEdge(&rng, 0));
  for (int i = 0; i < 5; ++i) chunk.push_back(TenantEdge(&rng, 1));

  std::size_t enqueued = 0;
  const Status s = service.SubmitBatch(chunk, &enqueued);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(enqueued, 2u + 2u);  // shard 0 whole part + shard 1's prefix

  stall.Release();
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 1u + 4u);
  const ShardedServiceStats stats = service.GetStats();
  ASSERT_EQ(stats.shard_queue_hwm.size(), 2u);
  // Shard 1's queue reached its full budget while its worker was parked.
  EXPECT_GE(stats.shard_queue_hwm[1], 2u);
  for (std::size_t sh = 0; sh < 2; ++sh) {
    EXPECT_GE(stats.shard_queue_hwm[sh], 0u);
    EXPECT_EQ(stats.shard_queue_depth[sh], 0u);  // drained
  }
}

// Without `enqueued` a batch is all-or-nothing across shards: when one
// shard is full in fail-fast mode, the parts that would fit elsewhere are
// not enqueued either, so a caller resending the whole batch (the wire
// ingest tier) applies each edge exactly once.
TEST(ShardedDetectionServiceTest, SubmitBatchIsAllOrNothingAcrossShards) {
  ShardStall stall(/*shard=*/1);
  ShardedDetectionServiceOptions options = TenantOptions();
  options.shard.max_queue = 2;
  options.shard.block_when_full = false;
  ShardedDetectionService service(BuildShards(2, 2, {}), stall.Callback(),
                                  options);

  // Park shard 1 behind a community-changing burst, then take one of its
  // two units of queue budget.
  const auto base1 = static_cast<VertexId>(1 * kVerticesPerTenant);
  ASSERT_TRUE(
      service.Submit({base1, static_cast<VertexId>(base1 + 1), 1e6, 0}).ok());
  stall.AwaitStalled();
  Rng rng(49);
  ASSERT_TRUE(service.Submit(TenantEdge(&rng, 1)).ok());

  // 2 edges for (running) shard 0, which fit, and 2 for shard 1, which do
  // not: the whole batch is refused and nothing of it is enqueued.
  std::vector<Edge> chunk;
  for (int i = 0; i < 2; ++i) chunk.push_back(TenantEdge(&rng, 0));
  for (int i = 0; i < 2; ++i) chunk.push_back(TenantEdge(&rng, 1));
  EXPECT_EQ(service.SubmitBatch(chunk).code(), StatusCode::kOutOfRange);
  ShardedServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.shard_queue_depth[0], 0u);  // shard 0's claim handed back
  EXPECT_EQ(stats.shard_queue_depth[1], 1u);

  // A part that can never fit is refused up front, before any claim.
  const std::vector<Edge> too_big = {TenantEdge(&rng, 0), TenantEdge(&rng, 1),
                                     TenantEdge(&rng, 1), TenantEdge(&rng, 1)};
  EXPECT_EQ(service.SubmitBatch(too_big).code(),
            StatusCode::kInvalidArgument);

  stall.Release();
  service.Drain();
  stats = service.GetStats();
  EXPECT_EQ(stats.shard_edges[0], 0u);
  EXPECT_EQ(stats.shard_edges[1], 2u);  // the burst + the budget filler

  // The resend lands whole, once.
  ASSERT_TRUE(service.SubmitBatch(chunk).ok());
  service.Drain();
  stats = service.GetStats();
  EXPECT_EQ(stats.shard_edges[0], 2u);
  EXPECT_EQ(stats.shard_edges[1], 4u);
}

// ResetQueueHighWater gives the high-water gauge phase semantics: after a
// reset the mark reflects only post-reset traffic, so a measurement
// harness (ReplayThroughService reports admission and drain phases
// separately) never reads one phase's burst as the next phase's pressure.
TEST(ShardedDetectionServiceTest, ResetQueueHighWaterStartsANewPhase) {
  ShardStall stall(/*shard=*/1);
  ShardedDetectionServiceOptions options = TenantOptions();
  options.shard.max_queue = 8;
  options.shard.block_when_full = false;
  ShardedDetectionService service(BuildShards(2, 2, {}), stall.Callback(),
                                  options);

  // Phase 1: park shard 1 and pile six edges behind it.
  const auto base1 = static_cast<VertexId>(1 * kVerticesPerTenant);
  ASSERT_TRUE(
      service.Submit({base1, static_cast<VertexId>(base1 + 1), 1e6, 0}).ok());
  stall.AwaitStalled();
  Rng rng(48);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.Submit(TenantEdge(&rng, 1)).ok());
  }
  stall.Release();
  service.Drain();
  EXPECT_GE(service.GetStats().shard_queue_hwm[1], 6u);

  // Reset: the burst must vanish from the gauge entirely.
  service.ResetQueueHighWater();
  EXPECT_EQ(service.GetStats().shard_queue_hwm[1], 0u);

  // Phase 2: three edges against a running worker. The new mark reflects
  // only them — bounded by this phase's enqueue depth, not phase 1's six.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(TenantEdge(&rng, 1)).ok());
  }
  service.Drain();
  const std::size_t hwm = service.GetStats().shard_queue_hwm[1];
  EXPECT_GE(hwm, 1u);
  EXPECT_LE(hwm, 3u);
}

// CPU pinning smoke: a valid CPU pins (or warns and runs unpinned on
// non-Linux), an out-of-range CPU must degrade to a logged warning — never
// an error, never a lost edge.
TEST(ShardedDetectionServiceTest, ShardCpuPinningIsBestEffort) {
  ShardedDetectionServiceOptions options = TenantOptions();
  options.shard_cpus = {0, 1 << 20};  // shard 0 -> cpu 0, shard 1 -> bogus
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr, options);
  Rng rng(53);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(service.Submit(TenantEdge(&rng, i % 2)).ok());
  }
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 40u);
}

TEST(ShardedDetectionServiceTest, SaveRestoreRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/sharded_snapshot";
  std::filesystem::remove_all(dir);
  constexpr std::size_t kShards = 3;
  Rng rng(31);
  std::vector<Edge> initial;
  for (int i = 0; i < 300; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(kShards)));
  }

  std::vector<Community> saved(kShards);
  {
    ShardedDetectionService service(BuildShards(kShards, kShards, initial),
                                    nullptr, TenantOptions());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          service.Submit(TenantEdge(&rng, rng.NextBounded(kShards))).ok());
    }
    ASSERT_TRUE(service.SaveState(dir).ok());
    service.Drain();
    for (std::size_t s = 0; s < kShards; ++s) {
      saved[s] = service.ShardCommunity(s);
    }
  }

  // Restore into a service whose detectors start empty.
  ShardedDetectionService restored(BuildShards(kShards, kShards, {}),
                                   nullptr, TenantOptions());
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  for (std::size_t s = 0; s < kShards; ++s) {
    Community got = restored.ShardCommunity(s);
    std::sort(got.members.begin(), got.members.end());
    std::sort(saved[s].members.begin(), saved[s].members.end());
    EXPECT_EQ(got.members, saved[s].members) << "shard " << s;
    EXPECT_NEAR(got.density, saved[s].density, 1e-9) << "shard " << s;
  }
  // The restored fleet keeps ingesting.
  ASSERT_TRUE(restored.Submit(TenantEdge(&rng, 0)).ok());
  restored.Drain();
  EXPECT_EQ(restored.EdgesProcessed(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedDetectionServiceTest, RestoreRejectsShardCountMismatch) {
  const std::string dir = ::testing::TempDir() + "/sharded_mismatch";
  std::filesystem::remove_all(dir);
  {
    ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                    TenantOptions());
    ASSERT_TRUE(service.SaveState(dir).ok());
  }
  ShardedDetectionService wrong(BuildShards(3, 3, {}), nullptr,
                                TenantOptions());
  const Status s = wrong.RestoreState(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

// Regression (ISSUE 4 satellite): RestoreState used to drop the stitched
// snapshot but leave stats().stitch_passes / stitched_alerts counting from
// the pre-restore run — a restored fleet reported stitch work it never
// did. All stitch/boundary counters must describe the restored run.
TEST(ShardedDetectionServiceTest, StitchCountersResetOnRestore) {
  const std::string dir = ::testing::TempDir() + "/sharded_stitch_reset";
  std::filesystem::remove_all(dir);
  constexpr std::size_t kShards = 2;
  Rng rng(37);
  std::vector<Edge> initial;
  for (int i = 0; i < 150; ++i) {
    initial.push_back(TenantEdge(&rng, rng.NextBounded(kShards)));
  }
  ShardedDetectionService service(BuildShards(kShards, kShards, initial),
                                  nullptr, TenantOptions());
  // Cross-tenant traffic so boundary_edges is non-zero and a stitch pass
  // has something to chew on.
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<VertexId>(i % 8);
    const auto b = static_cast<VertexId>(kVerticesPerTenant + (i + 1) % 8);
    ASSERT_TRUE(service.Submit({a, b, 8.0, 0}).ok());
  }
  service.Drain();
  service.StitchNow();
  service.StitchNow();
  ASSERT_TRUE(service.SaveState(dir).ok());
  const ShardedServiceStats before = service.GetStats();
  ASSERT_EQ(before.stitch_passes, 2u);
  ASSERT_GT(before.boundary_edges, 0u);

  ASSERT_TRUE(service.RestoreState(dir).ok());
  const ShardedServiceStats after = service.GetStats();
  EXPECT_EQ(after.stitch_passes, 0u);
  EXPECT_EQ(after.stitched_alerts, 0u);
  // boundary_edges reflects the restored index, not the old total plus it.
  EXPECT_EQ(after.boundary_edges, before.boundary_edges);

  // The restored run counts from zero.
  service.StitchNow();
  EXPECT_EQ(service.GetStats().stitch_passes, 1u);
  std::filesystem::remove_all(dir);
}

// ISSUE 4 satellite: save under tenant routing, restore with a different
// shard count — the mismatch must fire BEFORE any delta replay side
// effects, even when the directory carries a delta chain whose segments
// would otherwise be replayed into the wrong fleet.
TEST(ShardedDetectionServiceTest, TenantRestoreShardCountMismatchBeforeReplay) {
  const std::string dir = ::testing::TempDir() + "/sharded_tenant_mismatch";
  std::filesystem::remove_all(dir);
  Rng rng(41);
  {
    std::vector<Edge> initial;
    for (int i = 0; i < 200; ++i) {
      initial.push_back(TenantEdge(&rng, rng.NextBounded(2)));
    }
    ShardedDetectionService service(BuildShards(2, 2, initial), nullptr,
                                    TenantOptions());
    // Full save (epoch 1), more traffic, delta save (epoch 2): the dir now
    // has a chain a replaying restore would apply.
    ASSERT_TRUE(service.SaveState(dir).ok());
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(service.Submit(TenantEdge(&rng, rng.NextBounded(2))).ok());
    }
    service.Drain();
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(service
                    .SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                               &info)
                    .ok());
    ASSERT_TRUE(info.delta);
    ASSERT_GT(info.delta_edges, 0u);
  }

  std::vector<Edge> wrong_initial;
  for (int i = 0; i < 90; ++i) {
    wrong_initial.push_back(TenantEdge(&rng, rng.NextBounded(3)));
  }
  ShardedDetectionService wrong(BuildShards(3, 3, wrong_initial), nullptr,
                                TenantOptions());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(wrong.Submit(TenantEdge(&rng, rng.NextBounded(3))).ok());
  }
  wrong.Drain();
  wrong.StitchNow();
  const std::uint64_t edges_before = wrong.EdgesProcessed();
  std::vector<Community> communities_before(3);
  std::vector<std::size_t> graph_edges_before(3);
  for (std::size_t s = 0; s < 3; ++s) {
    communities_before[s] = wrong.ShardCommunity(s);
    wrong.InspectShard(s, [&](const Spade& spade) {
      graph_edges_before[s] = spade.graph().NumEdges();
    });
  }
  const ShardedServiceStats stats_before = wrong.GetStats();

  const Status s = wrong.RestoreState(dir);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  // No side effects: detectors, snapshots, stitched state and counters are
  // exactly as they were (no base installed, no delta edge replayed).
  EXPECT_EQ(wrong.EdgesProcessed(), edges_before);
  for (std::size_t sh = 0; sh < 3; ++sh) {
    const Community after = wrong.ShardCommunity(sh);
    EXPECT_EQ(after.members, communities_before[sh].members) << "shard " << sh;
    EXPECT_DOUBLE_EQ(after.density, communities_before[sh].density);
    wrong.InspectShard(sh, [&](const Spade& spade) {
      EXPECT_EQ(spade.graph().NumEdges(), graph_edges_before[sh])
          << "shard " << sh << " saw replay side effects";
    });
  }
  const ShardedServiceStats stats_after = wrong.GetStats();
  EXPECT_EQ(stats_after.stitch_passes, stats_before.stitch_passes);
  EXPECT_EQ(stats_after.boundary_edges, stats_before.boundary_edges);
  std::filesystem::remove_all(dir);
}

// Auto-mode checkpointing folds the chain back into a fresh base when the
// policy bounds are hit.
TEST(ShardedDetectionServiceTest, CompactionFoldsChain) {
  const std::string dir = ::testing::TempDir() + "/sharded_compaction";
  std::filesystem::remove_all(dir);
  Rng rng(43);
  ShardedDetectionServiceOptions options = TenantOptions();
  options.checkpoint.max_chain_length = 2;
  options.checkpoint.max_delta_base_ratio = 1e9;
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                  std::move(options));

  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  .SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                             &info)
                  .ok());
  EXPECT_FALSE(info.delta);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(service.Submit(TenantEdge(&rng, rng.NextBounded(2))).ok());
    }
    service.Drain();
    ASSERT_TRUE(service
                    .SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                               &info)
                    .ok());
  }
  // Rounds: delta (chain 1), delta (chain 2), compact (full), delta.
  EXPECT_TRUE(info.delta);
  EXPECT_EQ(info.chain_length, 1u);
  EXPECT_EQ(info.epoch, 5u);

  // The compacted directory still restores to the latest state.
  ShardedDetectionService restored(BuildShards(2, 2, {}), nullptr,
                                   TenantOptions());
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(restored.RestoreState(dir, &rinfo).ok());
  EXPECT_EQ(rinfo.restored_epoch, 5u);
  EXPECT_EQ(restored.CurrentCommunity().members.size(),
            service.CurrentCommunity().members.size());
  std::filesystem::remove_all(dir);
}

// Regression (code review): a fresh service (restarted process, no
// restore) saving into a directory that already holds a higher-epoch
// chain must NOT restart epoch numbering at 1 — reused epochs rename new
// base files over the ones the still-published manifest references, which
// is exactly the crashed-compaction corruption the epoch stamping
// prevents.
TEST(ShardedDetectionServiceTest, FreshServiceNeverReusesEpochsInExistingDir) {
  const std::string dir = ::testing::TempDir() + "/sharded_epoch_reuse";
  std::filesystem::remove_all(dir);
  Rng rng(47);
  {
    ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                    TenantOptions());
    ASSERT_TRUE(service.SaveState(dir).ok());  // epoch 1
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(service.Submit(TenantEdge(&rng, rng.NextBounded(2))).ok());
    }
    service.Drain();
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(service
                    .SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                               &info)
                    .ok());  // delta epoch 2
    ASSERT_EQ(info.epoch, 2u);
  }

  // A restarted process pointed at the same directory without restoring.
  ShardedDetectionService fresh(BuildShards(2, 2, {}), nullptr,
                                TenantOptions());
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(
      fresh.SaveState(dir, ShardedDetectionService::SaveMode::kAuto, &info)
          .ok());
  EXPECT_FALSE(info.delta);
  EXPECT_EQ(info.epoch, 3u) << "epoch numbering restarted and collided";

  // The directory stays restorable and describes the fresh fleet.
  ShardedDetectionService restored(BuildShards(2, 2, {}), nullptr,
                                   TenantOptions());
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(restored.RestoreState(dir, &rinfo).ok());
  EXPECT_EQ(rinfo.restored_epoch, 3u);
  std::filesystem::remove_all(dir);
}

// SaveMode::kDelta demands an active chain (bench isolation guarantee).
TEST(ShardedDetectionServiceTest, ExplicitDeltaRequiresActiveChain) {
  const std::string dir = ::testing::TempDir() + "/sharded_delta_requires";
  std::filesystem::remove_all(dir);
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                  TenantOptions());
  const Status s =
      service.SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                        nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.SaveState(dir).ok());
  ASSERT_TRUE(service
                  .SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                             nullptr)
                  .ok());
  std::filesystem::remove_all(dir);
}

TEST(ShardedDetectionServiceTest, RestoreMissingManifestIsNotFound) {
  ShardedDetectionService service(BuildShards(2, 2, {}), nullptr,
                                  TenantOptions());
  const Status s =
      service.RestoreState(::testing::TempDir() + "/no_such_snapshot_dir");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// A save completes under sustained ingest: while a drain waits, each worker
// round detects its dirty partitions and advances the drain cursor, whether
// or not more edges wait in the ring. One producer submits 8-edge bursts
// with 5 us sleeps into a one-shard fleet while the test times 20 saves. A
// watchdog stops the producer once a save has waited 10 s, so a worker that
// waits for an idle round fails on the measured save time instead of
// hanging.
TEST(ShardedDetectionServiceTest, SaveCompletesUnderSustainedIngest) {
  const std::string dir = ::testing::TempDir() + "/sharded_sustained_save";
  std::filesystem::remove_all(dir);
  constexpr std::size_t kTenants = 64;
  ShardedDetectionServiceOptions options = TenantOptions();
  // A bounded ring blocks the producer, so the backlog left when the
  // watchdog fires drains in well under a second.
  options.shard.block_when_full = true;
  options.shard.max_queue = 512;
  ShardedDetectionService service(BuildShards(1, kTenants, {}), nullptr,
                                  std::move(options));
  ASSERT_TRUE(service.SaveState(dir).ok());
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> stop{false};
  std::atomic<bool> saves_done{false};
  // When the save in flight began, in Clock ticks.
  std::atomic<Clock::rep> save_began{Clock::now().time_since_epoch().count()};
  std::atomic<std::uint64_t> submitted{0};
  std::thread producer([&] {
    Rng rng(61);
    std::vector<Edge> burst(8);
    while (!stop.load(std::memory_order_relaxed)) {
      for (Edge& e : burst) e = TenantEdge(&rng, rng.NextBounded(kTenants));
      if (service.SubmitBatch(burst).ok()) submitted += burst.size();
      std::this_thread::sleep_for(std::chrono::microseconds(5));
    }
  });
  std::thread watchdog([&] {
    while (!saves_done.load()) {
      const Clock::time_point began{Clock::duration(save_began.load())};
      if (Clock::now() - began > std::chrono::seconds(10)) stop = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  double worst_ms = 0.0;
  int saved = 0;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point t0 = Clock::now();
    save_began = t0.time_since_epoch().count();
    const Status s =
        service.SaveState(dir, ShardedDetectionService::SaveMode::kAuto);
    worst_ms = std::max(
        worst_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!s.ok()) {
      ADD_FAILURE() << "save " << i << ": " << s.ToString();
      break;
    }
    ++saved;
  }
  saves_done = true;
  watchdog.join();
  stop = true;
  producer.join();
  EXPECT_EQ(saved, 20);
  EXPECT_LT(worst_ms, 5000.0);
  EXPECT_GT(submitted.load(), 0u);
  std::filesystem::remove_all(dir);
}

// Multi-producer + concurrent-reader stress across shards (run under TSan
// in CI): four producers hash-route edges while readers poll the global
// argmax and merged stats.
TEST(ShardedDetectionServiceTest, ConcurrentProducersAndReaders) {
  constexpr std::size_t kShards = 4;
  ShardedDetectionServiceOptions options;  // default hash-of-src routing
  ShardedDetectionService service(BuildShards(kShards, kShards, {}), nullptr,
                                  options);
  constexpr int kProducers = 4;
  constexpr int kPerThread = 200;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const Community c = service.CurrentCommunity();
        if (c.density < 0.0) ++failures;
        const ShardedServiceStats stats = service.GetStats();
        if (stats.shard_edges.size() != kShards) ++failures;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(500 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const Edge e = TenantEdge(&rng, rng.NextBounded(kShards));
        if (!service.Submit(e).ok()) ++failures;
      }
    });
  }
  for (auto& p : producers) p.join();
  service.Drain();
  done = true;
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.EdgesProcessed(),
            static_cast<std::uint64_t>(kProducers * kPerThread));
}

}  // namespace
}  // namespace spade
