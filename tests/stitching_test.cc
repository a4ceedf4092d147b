// Cross-shard stitching: the sharded-vs-merged differential suite.
//
//  * Differential: seeded randomized streams (same generator shape as
//    differential_test.cc, insert-only since the service has no delete
//    path) driven into a stitched ShardedDetectionService at 2/4/8 shards
//    AND into a one-shard ShardedDetectionService; the stitched global
//    community's density must match the merged detector's within
//    tie-exactness — including streams whose densest community is entirely
//    cross-shard (every one of its edges is a boundary edge).
//  * Routing property: for the hash and tenant partitioners, every
//    submitted edge lands in exactly one shard's detector, and its
//    endpoints carry boundary weight iff their home shards differ (the
//    double-count/drop seam).
//  * Tenant regression: a cross-tenant ring used to be silently routed into
//    the source tenant's shard with no record; it must now be counted and
//    detected by the stitch pass, surviving save/restore.
//  * Boundary weights: the merged per-vertex weights always equal a
//    from-scratch count of the cross-home edges in the detectors — under
//    late arrivals, retires, partition moves, restore and chain replay.
//
// The randomized differentials are labeled `stress` in ctest and run in a
// dedicated CI matrix leg under ASan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "graph/weight_grid.h"
#include "metrics/density.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

// ------------------------------------------------------------------------
// Stream generators (differential_test.cc's shape, insert-only).
// ------------------------------------------------------------------------

/// Uniform background edge over [0, n) with a continuous weight, so peeling
/// ties are singleton and the merged-vs-stitched comparison is not at the
/// mercy of tie-break order across two different peels.
Edge BackgroundEdge(Rng* rng, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{s, d, 0.5 + 5.0 * rng->NextDouble(), 0};
}

/// Appends `edges` heavy ring edges over `ring` (consecutive pairs, cycled)
/// to `stream`, starting at `at`.
void InjectRing(std::vector<Edge>* stream, std::size_t at,
                const std::vector<VertexId>& ring, std::size_t edges,
                double weight, Rng* rng) {
  for (std::size_t i = 0; i < edges; ++i) {
    const VertexId s = ring[i % ring.size()];
    const VertexId d = ring[(i + 1) % ring.size()];
    stream->insert(
        stream->begin() + static_cast<std::ptrdiff_t>(
                              std::min(at + i, stream->size())),
        Edge{s, d, weight * (0.9 + 0.2 * rng->NextDouble()), 0});
  }
}

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

/// Drives the stream into the service with a mix of per-edge and batched
/// submission (both paths must record boundary edges identically).
void SubmitAll(ShardedDetectionService* service,
               const std::vector<Edge>& stream) {
  std::size_t i = 0;
  while (i < stream.size()) {
    if (i % 3 == 0) {
      ASSERT_TRUE(service->Submit(stream[i]).ok());
      ++i;
    } else {
      const std::size_t len = std::min<std::size_t>(37, stream.size() - i);
      ASSERT_TRUE(
          service
              ->SubmitBatch(std::span<const Edge>(stream.data() + i, len))
              .ok());
      i += len;
    }
  }
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------------------
// Differential suite: stitched sharded service vs one merged detector.
// ------------------------------------------------------------------------

class StitchDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StitchDifferentialTest, StitchedDensityMatchesMergedDetector) {
  const std::size_t num_shards = GetParam();
  Rng rng(1300 + num_shards);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 64 + rng.NextBounded(64);

    // Hash-routed service over empty detectors; the whole stream goes
    // through the router so the boundary weights see every cross-home edge.
    ShardedDetectionServiceOptions options;
    options.partitioner = HashOfSourcePartitioner();
    ShardedDetectionService service(BuildEmptyShards(num_shards, n), nullptr,
                                    options);

    // Random background plus one dominant ring at random ids (whatever
    // homes the hash assigns them) — the community every detector must
    // agree on.
    std::vector<Edge> stream;
    for (std::size_t i = 0; i < 12 * n; ++i) {
      stream.push_back(BackgroundEdge(&rng, n));
    }
    std::vector<VertexId> ring;
    while (ring.size() < 6) {
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (std::find(ring.begin(), ring.end(), v) == ring.end()) {
        ring.push_back(v);
      }
    }
    InjectRing(&stream, stream.size() / 3, ring, 120, 50.0, &rng);

    SubmitAll(&service, stream);
    service.Drain();
    const GlobalCommunity stitched = service.StitchNow();

    // Merged reference: the same stream through a one-shard fleet.
    ShardedDetectionService merged_service(BuildEmptyShards(1, n), nullptr);
    for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
    merged_service.Drain();
    const Community merged = merged_service.CurrentCommunity();

    // Weights on the grid make every sum exact: equal sets, equal bits.
    EXPECT_EQ(stitched.density, merged.density)
        << "shards=" << num_shards << " trial=" << trial;
    EXPECT_EQ(Sorted(stitched.members), Sorted(merged.members))
        << "shards=" << num_shards << " trial=" << trial;
    for (const VertexId v : ring) {
      EXPECT_NE(std::find(stitched.members.begin(), stitched.members.end(),
                          v),
                stitched.members.end());
    }

    // The stitched read serves the same answer, lock-free.
    EXPECT_EQ(service.CurrentGlobalCommunity().density, merged.density);

    // Exactness from definition: the stitched density equals g(S) of the
    // stitched member set on a merged graph of the whole stream (DW edge
    // suspiciousness is the raw weight rounded onto the grid, so AddEdge of
    // the rounded weight reproduces it).
    DynamicGraph merged_graph(n);
    for (const Edge& e : stream) {
      merged_graph.EnsureVertices(std::max(e.src, e.dst) + 1);
      ASSERT_TRUE(
          merged_graph.AddEdge(e.src, e.dst, QuantizeWeight(e.weight)).ok());
    }
    EXPECT_EQ(SubgraphDensity(merged_graph, stitched.members),
              stitched.density);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StitchDifferentialTest,
                         ::testing::Values(2u, 4u, 8u));

// The blind spot the stitch exists for: a community whose EVERY edge is a
// boundary edge. Ring vertices alternate between home-shard pools, so no
// single shard ever holds two consecutive members' edge.
TEST_P(StitchDifferentialTest, EntirelyCrossShardCommunityIsStitched) {
  const std::size_t num_shards = GetParam();
  const std::size_t n = 128;
  Rng rng(7100 + num_shards);

  ShardedDetectionServiceOptions options;
  options.partitioner = HashOfSourcePartitioner();
  ShardedDetectionService service(BuildEmptyShards(num_shards, n), nullptr,
                                  options);

  // Two pools by home shard; alternating between them makes every
  // consecutive ring pair cross-home.
  std::vector<VertexId> pool_a, pool_b;
  for (VertexId v = 0; v < n; ++v) {
    if (service.HomeShardOf(v) == 0) {
      pool_a.push_back(v);
    } else if (service.HomeShardOf(v) == 1) {
      pool_b.push_back(v);
    }
  }
  ASSERT_GE(pool_a.size(), 3u);
  ASSERT_GE(pool_b.size(), 3u);
  std::vector<VertexId> ring;
  for (int i = 0; i < 3; ++i) {
    ring.push_back(pool_a[static_cast<std::size_t>(i)]);
    ring.push_back(pool_b[static_cast<std::size_t>(i)]);
  }

  std::vector<Edge> stream;
  for (std::size_t i = 0; i < 8 * n; ++i) {
    stream.push_back(BackgroundEdge(&rng, n));
  }
  InjectRing(&stream, stream.size() / 2, ring, 120, 50.0, &rng);

  SubmitAll(&service, stream);
  service.Drain();

  // Every ring edge crossed homes, so all 120 are indexed (plus whatever
  // the background contributed).
  EXPECT_GE(service.GetStats().boundary_edges, 120u);

  // The per-shard argmax cannot see the ring's full density: no shard holds
  // more than a fraction of its edges.
  const Community argmax = service.CurrentCommunity();

  const GlobalCommunity stitched = service.StitchNow();
  EXPECT_TRUE(stitched.stitched);
  EXPECT_GT(stitched.density, argmax.density);
  EXPECT_GE(stitched.shards.size(), 2u);
  for (const VertexId v : ring) {
    EXPECT_NE(
        std::find(stitched.members.begin(), stitched.members.end(), v),
        stitched.members.end());
  }

  // Merged reference agrees exactly.
  ShardedDetectionService merged_service(BuildEmptyShards(1, n), nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
  merged_service.Drain();
  const Community merged = merged_service.CurrentCommunity();
  EXPECT_NEAR(stitched.density, merged.density, 1e-9);
  EXPECT_EQ(Sorted(stitched.members), Sorted(merged.members));
}

// ------------------------------------------------------------------------
// Routing property: exactly one detector, boundary weight iff cross-home.
// ------------------------------------------------------------------------

struct NamedPartitioner {
  const char* name;
  Partitioner partitioner;
};

std::vector<NamedPartitioner> PartitionersUnderTest() {
  std::vector<NamedPartitioner> out;
  out.push_back({"hash", HashOfSourcePartitioner()});
  out.push_back({"tenant", TenantPartitioner(16)});
  return out;
}

TEST(RoutingPropertyTest, ExactlyOneDetectorAndBoundaryIffCrossHome) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kVertices = 96;
  for (auto& [name, partitioner] : PartitionersUnderTest()) {
    Rng rng(555);
    ShardedDetectionServiceOptions options;
    options.partitioner = partitioner;
    ShardedDetectionService service(BuildEmptyShards(kShards, kVertices),
                                    nullptr, options);

    std::vector<Edge> stream;
    for (int i = 0; i < 600; ++i) {
      stream.push_back(BackgroundEdge(&rng, kVertices));
    }
    SubmitAll(&service, stream);
    service.Drain();

    std::uint64_t expected_boundary = 0;
    for (const Edge& e : stream) {
      if (service.HomeShardOf(e.src) != service.HomeShardOf(e.dst)) {
        ++expected_boundary;
      }
    }

    const ShardedServiceStats stats = service.GetStats();
    std::uint64_t landed = 0;
    for (const std::uint64_t per_shard : stats.shard_edges) {
      landed += per_shard;
    }
    // Exactly once in a detector...
    EXPECT_EQ(landed, stream.size()) << name;
    // ...and counted as a boundary edge iff the endpoints' homes differ.
    EXPECT_EQ(stats.boundary_edges, expected_boundary) << name;
    EXPECT_GT(expected_boundary, 0u) << name;

    // The weighted vertices are exactly the cross-home edges' endpoints.
    std::unordered_map<VertexId, std::uint64_t> expected_count;
    for (const Edge& e : stream) {
      if (service.HomeShardOf(e.src) == service.HomeShardOf(e.dst)) continue;
      ++expected_count[e.src];
      ++expected_count[e.dst];
    }
    const auto weights = service.BoundaryWeights();
    EXPECT_EQ(weights.size(), expected_count.size()) << name;
    for (const auto& [v, count] : expected_count) {
      const auto it = weights.find(v);
      ASSERT_NE(it, weights.end()) << name << " vertex " << v;
      EXPECT_EQ(it->second.count, count) << name << " vertex " << v;
    }
    service.Stop();
  }
}

TEST(RoutingPropertyTest, BuiltInPartitionersRouteToSourceHome) {
  constexpr std::size_t kShards = 4;
  for (auto& [name, partitioner] : PartitionersUnderTest()) {
    if (std::string_view(name) == "round-robin") continue;
    ShardedDetectionServiceOptions options;
    options.partitioner = partitioner;
    ShardedDetectionService service(BuildEmptyShards(kShards, 64), nullptr,
                                    options);
    Rng rng(99);
    for (int i = 0; i < 100; ++i) {
      const Edge e = BackgroundEdge(&rng, 64);
      EXPECT_EQ(service.ShardOf(e), service.HomeShardOf(e.src)) << name;
    }
  }
}

// ------------------------------------------------------------------------
// Tenant regression: cross-tenant edges are recorded and stitchable.
// ------------------------------------------------------------------------

constexpr VertexId kVerticesPerTenant = 64;

TEST(TenantStitchingTest, CrossTenantRingIsRecordedAndDetected) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(2024);

  std::mutex alert_mutex;
  std::vector<GlobalCommunity> stitch_alerts;
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.on_stitch_alert = [&](const GlobalCommunity& g) {
    std::lock_guard<std::mutex> lock(alert_mutex);
    stitch_alerts.push_back(g);
  };
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  // Intra-tenant background in both tenants.
  std::vector<Edge> stream;
  for (int i = 0; i < 400; ++i) {
    const auto base = static_cast<VertexId>((i % 2) * kVerticesPerTenant);
    Edge e = BackgroundEdge(&rng, kVerticesPerTenant);
    e.src += base;
    e.dst += base;
    stream.push_back(e);
  }
  // A collusion ring alternating between tenant 0 and tenant 1 accounts:
  // every ring edge is cross-tenant.
  const std::vector<VertexId> ring = {
      10, static_cast<VertexId>(kVerticesPerTenant + 10),
      11, static_cast<VertexId>(kVerticesPerTenant + 11),
      12, static_cast<VertexId>(kVerticesPerTenant + 12)};
  InjectRing(&stream, stream.size() / 2, ring, 90, 40.0, &rng);

  SubmitAll(&service, stream);
  service.Drain();

  // The fix under regression: before it, these 90 edges were routed into
  // the source tenant's shard with no record anywhere.
  EXPECT_EQ(service.GetStats().boundary_edges, 90u);

  const Community argmax = service.CurrentCommunity();
  const GlobalCommunity stitched = service.StitchNow();
  EXPECT_TRUE(stitched.stitched);
  EXPECT_GT(stitched.density, argmax.density);
  EXPECT_EQ(stitched.shards, (std::vector<std::size_t>{0, 1}));
  for (const VertexId v : ring) {
    EXPECT_NE(
        std::find(stitched.members.begin(), stitched.members.end(), v),
        stitched.members.end());
  }
  {
    std::lock_guard<std::mutex> lock(alert_mutex);
    ASSERT_EQ(stitch_alerts.size(), 1u);
    EXPECT_EQ(stitch_alerts[0].shards, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(Sorted(stitch_alerts[0].members), Sorted(stitched.members));
  }

  // Merged reference: the ring's density is exactly what one detector over
  // everything reports.
  ShardedDetectionService merged_service(BuildEmptyShards(1, n), nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
  merged_service.Drain();
  EXPECT_NEAR(stitched.density, merged_service.CurrentCommunity().density,
              1e-9);

  // Save/restore recounts the boundary weights from the restored
  // detectors; the restored fleet re-stitches the same ring without
  // replaying the stream.
  const std::string dir = ::testing::TempDir() + "/stitching_snapshot";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(service.SaveState(dir).ok());
  service.Stop();

  ShardedDetectionServiceOptions restore_options;
  restore_options.partitioner = TenantPartitioner(kVerticesPerTenant);
  ShardedDetectionService restored(BuildEmptyShards(kShards, n), nullptr,
                                   restore_options);
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  EXPECT_EQ(restored.GetStats().boundary_edges, 90u);
  const GlobalCommunity restitched = restored.StitchNow();
  EXPECT_TRUE(restitched.stitched);
  EXPECT_NEAR(restitched.density, stitched.density, 1e-9);
  EXPECT_EQ(Sorted(restitched.members), Sorted(stitched.members));
  std::filesystem::remove_all(dir);
}

// A background stitcher publishes without any explicit StitchNow call.
TEST(TenantStitchingTest, PeriodicStitcherPublishes) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(77);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.interval_ms = 5;
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      3, static_cast<VertexId>(kVerticesPerTenant + 3),
      4, static_cast<VertexId>(kVerticesPerTenant + 4)};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  // Wait (bounded) for the stitcher to observe the drained state.
  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    if (g.stitched) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(g.stitched);
  EXPECT_GE(service.GetStats().stitch_passes, 1u);
  service.Stop();
}

// ------------------------------------------------------------------------
// Message-driven stitching: triggers, truncation, expiry, compaction.
// ------------------------------------------------------------------------

// Regression: a single-shard service with interval_ms > 0 used to never
// start the stitcher (silently: stitch_passes stayed 0 and a kStitched
// read never carried provenance). It must behave as the 1-shard member of
// the sharded family: passes run, the published global community is the
// shard's own argmax with shards == {0}.
TEST(MessageDrivenStitchingTest, SingleShardIntervalStitches) {
  Rng rng(501);
  ShardedDetectionServiceOptions options;
  options.stitch.interval_ms = 5;
  ShardedDetectionService service(BuildEmptyShards(1, 64), nullptr, options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {7, 8, 9};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    if (g.stitch_pass >= 1 && !g.members.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(service.GetStats().stitch_passes, 1u);
  EXPECT_GE(g.stitch_pass, 1u);
  EXPECT_FALSE(g.stitched);  // one shard: the argmax republished, tagged
  EXPECT_EQ(g.shards, (std::vector<std::size_t>{0}));
  EXPECT_NEAR(g.density, service.CurrentCommunity().density, 1e-12);
  service.Stop();
}

// Event-driven freshness: with interval_ms == 0 and a trigger threshold,
// the cross-shard ring must become visible through
// CurrentGlobalCommunity() without any timer to wait out — the workers'
// weight deltas wake the stitcher the moment the seam accumulates enough.
// A pass the ring triggered may have gathered before the ring's last edges
// were applied, so the test waits for a pass that started after them: one
// more ring edge, heavy enough to cross the trigger on its own, is applied
// after the drain, and the read is taken once the newest pass has published
// and has merged every boundary edge.
TEST(MessageDrivenStitchingTest, TriggerWakesStitcherWithoutTimer) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(502);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.interval_ms = 0;        // no timer at all
  options.stitch.trigger_weight = 50.0;  // a few ring edges cross this
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      5, static_cast<VertexId>(kVerticesPerTenant + 5),
      6, static_cast<VertexId>(kVerticesPerTenant + 6)};
  InjectRing(&stream, 0, ring, 80, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  const std::uint64_t passes_before = service.GetStats().stitch_passes;
  const Edge last{ring[0], ring[1], options.stitch.trigger_weight, 0};
  ASSERT_TRUE(service.Submit(last).ok());
  stream.push_back(last);
  service.Drain();

  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    const ShardedServiceStats now = service.GetStats();
    // Passes run one at a time, so when g comes from the newest pass and
    // some pass merged every boundary edge, g's pass gathered after the
    // last edge was applied.
    if (g.stitched && g.stitch_pass > passes_before &&
        g.stitch_pass == now.stitch_passes &&
        now.boundary_unconsumed_edges == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_TRUE(g.stitched);
  EXPECT_GE(stats.stitch_triggers, 1u);
  EXPECT_GE(stats.stitch_passes, 1u);
  EXPECT_EQ(g.shards, (std::vector<std::size_t>{0, 1}));
  // The differential anchor: the triggered pass is exact, not heuristic.
  ShardedDetectionService merged(BuildEmptyShards(1, n), nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged.Submit(e).ok());
  merged.Drain();
  EXPECT_NEAR(g.density, merged.CurrentCommunity().density, 1e-9);
  service.Stop();
}

// Regression: StitchNow used to truncate the seam candidate set at
// max_seam_vertices silently. The pass must now report the truncation on
// its result and in the service stats, and the background stitcher must
// escalate a truncated triggered pass to an unbounded one so the
// published density still converges to the merged answer.
TEST(MessageDrivenStitchingTest, SeamTruncationIsReportedAndEscalated) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(503);

  // Many distinct boundary vertices (every cross-tenant pair once) so a
  // tiny budget must drop candidates.
  std::vector<Edge> stream;
  for (VertexId v = 0; v < 40; ++v) {
    stream.push_back(Edge{v, static_cast<VertexId>(kVerticesPerTenant + v),
                          5.0 + 0.1 * static_cast<double>(v), 0});
  }
  const std::vector<VertexId> ring = {
      2, static_cast<VertexId>(kVerticesPerTenant + 2),
      3, static_cast<VertexId>(kVerticesPerTenant + 3)};
  InjectRing(&stream, stream.size(), ring, 60, 30.0, &rng);

  {
    ShardedDetectionServiceOptions options;
    options.partitioner = TenantPartitioner(kVerticesPerTenant);
    options.stitch.max_seam_vertices = 2;  // binding: << 80 candidates
    ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                    options);
    SubmitAll(&service, stream);
    service.Drain();
    const GlobalCommunity g = service.StitchNow();
    EXPECT_TRUE(g.seam_truncated);
    EXPECT_GE(service.GetStats().seam_truncated, 1u);
  }
  {
    // Same workload through the trigger-driven stitcher: it runs the
    // budgeted pass, sees the truncation, and retries unbounded — the
    // eventual published density matches the merged detector exactly.
    ShardedDetectionServiceOptions options;
    options.partitioner = TenantPartitioner(kVerticesPerTenant);
    options.stitch.max_seam_vertices = 2;
    options.stitch.trigger_weight = 50.0;
    ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                    options);
    SubmitAll(&service, stream);
    service.Drain();
    ShardedDetectionService merged(BuildEmptyShards(1, n), nullptr);
    for (const Edge& e : stream) ASSERT_TRUE(merged.Submit(e).ok());
    merged.Drain();
    const double want = merged.CurrentCommunity().density;
    GlobalCommunity g;
    for (int i = 0; i < 500; ++i) {
      g = service.CurrentGlobalCommunity();
      if (g.stitched && std::abs(g.density - want) < 1e-9) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(g.stitched);
    EXPECT_NEAR(g.density, want, 1e-9);
    EXPECT_GE(service.GetStats().seam_truncated, 1u);
    service.Stop();
  }
}

// Regression for the "inserts only ⇒ density only grows" fast path in
// CurrentGlobalCommunity: after a window-expiry retire pass shrinks a
// contributing shard, a stitched read must fall back to the live argmax
// instead of serving the stale (now overstated) stitched snapshot.
TEST(MessageDrivenStitchingTest, RetiredSeamIsNotServedStale) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(504);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.window.span = 10'000;
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  // Old cross-tenant ring at ts 100, newer intra-tenant background at
  // ts 500 (all inside the window so nothing expires during ingest).
  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      8, static_cast<VertexId>(kVerticesPerTenant + 8),
      9, static_cast<VertexId>(kVerticesPerTenant + 9)};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  for (Edge& e : stream) e.ts = 100;
  for (int i = 0; i < 200; ++i) {
    Edge e = BackgroundEdge(&rng, kVerticesPerTenant);
    e.ts = 500;
    stream.push_back(e);
  }
  SubmitAll(&service, stream);
  service.Drain();

  const GlobalCommunity before = service.StitchNow();
  ASSERT_TRUE(before.stitched);
  ASSERT_GT(before.density, 0.0);

  // Expire the ring. The retire pass announces itself before deleting
  // (and again after), so by the time the deletions land the stitched
  // snapshot is already dropped.
  ASSERT_TRUE(service.RetireOlderThan(200).ok());
  service.Drain();

  const GlobalCommunity after = service.CurrentGlobalCommunity();
  const Community argmax = service.CurrentCommunity();
  EXPECT_LT(after.density, before.density);
  EXPECT_NEAR(after.density, argmax.density, 1e-12);
  EXPECT_FALSE(after.stitched);
  EXPECT_GE(service.GetStats().retired_edges, 60u);
}

// ------------------------------------------------------------------------
// Boundary weights: counted beside the detectors, never a second copy.
// ------------------------------------------------------------------------

using WeightMap = std::unordered_map<VertexId, BoundaryWeight>;

/// From-scratch boundary weights of a fleet: every cross-home edge in every
/// partition's detector (graph plus benign buffer), read through
/// InspectPartition.
WeightMap CountBoundaryFromScratch(const ShardedDetectionService& service,
                                   const Partitioner& partitioner,
                                   std::uint64_t* edges) {
  const std::size_t n = service.num_partitions();
  WeightMap want;
  *edges = 0;
  const auto add = [&](const Edge& e) {
    if (partitioner(e.src) % n == partitioner(e.dst) % n) return;
    ++*edges;
    for (const VertexId v : {e.src, e.dst}) {
      want[v].weight += e.weight;
      ++want[v].count;
    }
  };
  for (std::size_t pid = 0; pid < n; ++pid) {
    EXPECT_TRUE(service
                    .InspectPartition(pid,
                                      [&](const Spade& detector) {
                                        const DynamicGraph& g =
                                            detector.graph();
                                        for (std::size_t u = 0;
                                             u < g.NumVertices(); ++u) {
                                          const auto src =
                                              static_cast<VertexId>(u);
                                          for (const NeighborEntry& e :
                                               g.OutNeighbors(src)) {
                                            add({src, e.vertex, e.weight, 0});
                                          }
                                        }
                                        for (const Edge& e :
                                             detector.benign_buffer()) {
                                          add(e);
                                        }
                                      })
                    .ok());
  }
  return want;
}

/// The merged weights equal a from-scratch count: same vertex set, exact
/// counts, weights within 1e-9 relative; boundary_edges counts the edges.
void ExpectBoundaryMatchesDetectors(const ShardedDetectionService& service,
                                    const Partitioner& partitioner,
                                    const std::string& where) {
  std::uint64_t edges = 0;
  const WeightMap want = CountBoundaryFromScratch(service, partitioner, &edges);
  const WeightMap got = service.BoundaryWeights();
  EXPECT_EQ(service.GetStats().boundary_edges, edges) << where;
  EXPECT_EQ(got.size(), want.size()) << where;
  for (const auto& [v, w] : want) {
    const auto it = got.find(v);
    ASSERT_NE(it, got.end()) << where << ": vertex " << v << " missing";
    EXPECT_EQ(it->second.count, w.count) << where << ": vertex " << v;
    EXPECT_NEAR(it->second.weight, w.weight, 1e-9 * w.weight)
        << where << ": vertex " << v;
  }
}

// Regression: a late cross-home edge sits behind a newer edge in its
// partition's window log, so a retire pass below the newer edge's ts keeps
// it in the detector. Its boundary weight must stay too, and leave only
// when the detector retires the edge (count 0, not a weight epsilon).
TEST(BoundaryWeightsTest, LateCrossHomeEdgeStaysUntilItsDetectorRetiresIt) {
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(100);
  options.window.span = 10'000;  // only the explicit retires expire
  ShardedDetectionService service(BuildEmptyShards(2, 200), nullptr,
                                  options);
  ASSERT_TRUE(service.Submit(Edge{1, 2, 5.0, 500}).ok());
  ASSERT_TRUE(service.Submit(Edge{3, 150, 7.0, 10}).ok());
  service.Drain();  // both edges applied before the retire is asked for
  ASSERT_TRUE(service.RetireOlderThan(400).ok());
  service.Drain();

  EXPECT_EQ(service.GetStats().retired_edges, 0u);
  EXPECT_EQ(service.GetStats().boundary_edges, 1u);
  WeightMap weights = service.BoundaryWeights();
  ASSERT_EQ(weights.size(), 2u);
  for (const VertexId v : {VertexId{3}, VertexId{150}}) {
    ASSERT_EQ(weights.count(v), 1u) << "vertex " << v;
    EXPECT_EQ(weights.at(v).weight, 7.0) << "vertex " << v;
    EXPECT_EQ(weights.at(v).count, 1u) << "vertex " << v;
  }

  ASSERT_TRUE(service.RetireOlderThan(600).ok());
  service.Drain();
  EXPECT_EQ(service.GetStats().retired_edges, 2u);
  EXPECT_EQ(service.GetStats().boundary_edges, 0u);
  EXPECT_TRUE(service.BoundaryWeights().empty());
}

// Randomized invariant: after every Drain the merged boundary weights equal
// a from-scratch count over the detectors — with ~10% late edges, random
// retire horizons, partition moves, a save/restore into a fresh fleet and a
// follower applying the chain in ranged calls of one and two epochs.
TEST(BoundaryWeightsTest, MergedWeightsEqualAFromScratchCount) {
  struct Config {
    const char* name;
    std::size_t partitions;
    bool tenant;
    bool fd;
  };
  constexpr std::size_t kVertices = 64;
  constexpr Timestamp kSpan = 400;
  constexpr std::size_t kChunks = 12;
  constexpr std::size_t kChunkEdges = 50;
  const std::chrono::milliseconds kDrainTimeout(10'000);
  for (const Config& cfg : {Config{"2p-hash-DW", 2, false, false},
                            Config{"2p-tenant-FD", 2, true, true},
                            Config{"4p-hash-FD", 4, false, true},
                            Config{"4p-tenant-DW", 4, true, false}}) {
    const Partitioner partitioner = cfg.tenant ? TenantPartitioner(16)
                                               : HashOfSourcePartitioner();
    const auto build = [&] {
      std::vector<Spade> shards;
      for (std::size_t p = 0; p < cfg.partitions; ++p) {
        Spade spade;
        spade.SetSemantics(cfg.fd ? MakeFD() : MakeDW());
        EXPECT_TRUE(spade.BuildGraph(kVertices, {}).ok());
        shards.push_back(std::move(spade));
      }
      ShardedDetectionServiceOptions options;
      options.partitioner = partitioner;
      options.window.span = kSpan;
      options.shard.detect_every = 16;
      options.rebalance.partitions_per_shard = cfg.partitions / 2;
      options.checkpoint.max_chain_length = 1000;
      options.checkpoint.max_delta_base_ratio = 1e9;
      return std::make_unique<ShardedDetectionService>(std::move(shards),
                                                       nullptr, options);
    };
    const std::string dir =
        ::testing::TempDir() + "/boundary_weights_" + cfg.name;
    std::filesystem::remove_all(dir);

    auto live = build();
    std::unique_ptr<ShardedDetectionService> follower;
    Rng rng(4242 + cfg.partitions * 2 + (cfg.tenant ? 1 : 0));
    Timestamp now = 0;
    std::uint64_t epoch = 0;
    std::uint64_t applied = 0;  // the follower's epoch
    std::uint64_t range = 1;    // epochs in its next ranged call: 1, 2, 1, ..
    for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < kChunkEdges; ++i) {
        Edge e = BackgroundEdge(&rng, kVertices);
        now += 3;
        // ~10% late arrivals land behind newer edges in the window logs.
        e.ts = rng.NextBounded(10) == 0
                   ? std::max<Timestamp>(
                         0, now - static_cast<Timestamp>(rng.NextBounded(300)))
                   : now;
        edges.push_back(e);
      }
      SubmitAll(live.get(), edges);
      if (rng.NextBounded(2) == 0) {
        const auto back = static_cast<Timestamp>(rng.NextBounded(kSpan));
        ASSERT_TRUE(live->RetireOlderThan(std::max<Timestamp>(0, now - back))
                        .ok());
      }
      if (chunk % 4 == 1) {
        const std::size_t pid = rng.NextBounded(cfg.partitions);
        ASSERT_TRUE(
            live->RebalanceNow(pid, (live->PartitionShard(pid) + 1) % 2)
                .ok());
      }
      live->Drain();
      const std::string where =
          std::string(cfg.name) + " chunk " + std::to_string(chunk);
      ExpectBoundaryMatchesDetectors(*live, partitioner, "live " + where);

      // Checkpoint from the fourth chunk on: a full base, then one delta
      // epoch per chunk. The follower alternates one-epoch ranged calls,
      // as an eager standby makes on every commit, with two-epoch ones, as
      // a standby catching up makes, and is checked after each call.
      if (chunk < 3) continue;
      ShardedDetectionService::SaveInfo info;
      ASSERT_TRUE(live->SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                                  &info)
                      .ok());
      epoch = info.epoch;
      if (follower == nullptr) {
        follower = build();
        ASSERT_TRUE(follower->RestoreState(dir).ok());
      } else if (epoch - applied == range || chunk + 1 == kChunks) {
        ASSERT_TRUE(
            follower->ApplyChainRange(dir, applied + 1, epoch, kDrainTimeout)
                .ok());
        range = 3 - range;
      } else {
        continue;
      }
      applied = epoch;
      follower->Drain();
      ExpectBoundaryMatchesDetectors(*follower, partitioner,
                                     "follower " + where);
      if (::testing::Test::HasFailure()) return;
    }

    auto restored = build();
    ASSERT_TRUE(restored->RestoreState(dir).ok());
    restored->Drain();
    ExpectBoundaryMatchesDetectors(*restored, partitioner,
                                   std::string(cfg.name) + " restored");
    EXPECT_EQ(restored->GetStats().boundary_edges,
              live->GetStats().boundary_edges)
        << cfg.name;
    // The restored fleet keeps counting live traffic, retires included.
    std::vector<Edge> more;
    for (std::size_t i = 0; i < kChunkEdges; ++i) {
      Edge e = BackgroundEdge(&rng, kVertices);
      now += 3;
      e.ts = now;
      more.push_back(e);
    }
    SubmitAll(restored.get(), more);
    ASSERT_TRUE(restored->RetireOlderThan(now - kSpan / 2).ok());
    restored->Drain();
    ExpectBoundaryMatchesDetectors(*restored, partitioner,
                                   std::string(cfg.name) + " after restore");
    EXPECT_GT(live->GetStats().retired_edges, 0u) << cfg.name;
    EXPECT_GE(epoch, 2u) << cfg.name;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace spade
