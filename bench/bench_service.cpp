// Shard-count sweep for the sharded detection service on a synthetic
// multi-tenant workload: T tenants, each an independent dense-ish
// transaction community with one injected fraud ring, streamed interleaved
// (the way tenant traffic actually arrives at one ingest endpoint).
//
// Configurations: 1 / 2 / 4 / 8 shards with tenant-keyed routing. The
// 1-shard case is the pre-refactor service — every tenant's updates funnel
// through one detector whose merged peeling sequence interleaves all
// tenants, so each reorder's affected window spans T× more slots. Sharding
// wins twice: on multi-core hosts the shard workers run in parallel, and on
// ANY host each shard's affected area is tenant-local, so the aggregate
// work itself shrinks (the κ-Join partition-decomposition argument, not
// just thread-level parallelism).
//
// Emits BENCH_service.json (path = argv[1], default ./) with one entry per
// shard count: aggregate submit throughput, speedup vs 1 shard, and
// fraud-group submit→alert latency percentiles. The repo commits a
// reference copy; CI uploads a fresh one per run.
//
// Second workload: the cross-shard ring. Hash-of-source routing splits a
// fraud ring's edges across every shard (each consecutive member pair has
// different home shards), so no per-shard view ever contains the ring at
// its real density — the blind spot the boundary weights + stitch pass
// close. The sweep reports argmax vs stitched recall/density against the
// 1-shard merged detector, plus the retained aggregate throughput, and
// emits BENCH_stitching.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "bench/bench_meta.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "stream/labeled_stream.h"
#include "stream/replayer.h"

namespace spade::bench {
namespace {

struct TenantConfig {
  std::size_t tenants = 8;
  std::size_t vertices_per_tenant = 2048;
  std::size_t initial_per_tenant = 4000;
  std::size_t stream_per_tenant = 6000;
  /// Legitimate dense cluster present from t=0 in every tenant. It pins the
  /// benign-classification threshold (Definition 4.1 compares against the
  /// current best density) to the same value in every shard configuration,
  /// so 1-shard and N-shard runs do identical detection work per edge and
  /// the sweep compares reorder cost, not vigilance. Without it a merged
  /// detector inherits the *global* max density as its threshold and
  /// silently under-detects the other tenants.
  std::size_t whale_size = 8;
  std::size_t whale_edges = 100;
  double whale_weight = 40.0;
  /// Fraud ring injected mid-stream; overtakes the whale and must alert.
  std::size_t ring_size = 6;
  std::size_t ring_edges = 120;
  double ring_weight = 60.0;
  std::uint64_t seed = 42;
};

struct TenantWorkload {
  std::size_t num_vertices = 0;
  std::vector<Edge> initial;
  LabeledStream stream;
};

/// Draws an intra-tenant endpoint pair. Endpoints are uniform, not skewed:
/// uniform updates land in the weight-dense middle of the peeling sequence,
/// where a merged multi-tenant sequence interleaves every tenant's vertices
/// and the reorder window between two same-tenant endpoints picks up ~T×
/// more slots — the regime the tenant partition removes. (Continuous
/// weights keep peeling ties singleton.)
Edge RandomTenantEdge(Rng* rng, VertexId base, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{static_cast<VertexId>(base + s), static_cast<VertexId>(base + d),
              1.0 + 9.0 * rng->NextDouble(), 0};
}

/// Builds the interleaved multi-tenant workload: per-tenant initial graphs
/// plus round-robin-interleaved update streams with one fraud ring burst
/// per tenant.
TenantWorkload BuildTenantWorkload(const TenantConfig& cfg) {
  TenantWorkload w;
  w.num_vertices = cfg.tenants * cfg.vertices_per_tenant;
  Rng rng(cfg.seed);

  std::vector<std::vector<Edge>> tenant_stream(cfg.tenants);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    const auto base =
        static_cast<VertexId>(t * cfg.vertices_per_tenant);
    for (std::size_t i = 0; i < cfg.initial_per_tenant; ++i) {
      w.initial.push_back(
          RandomTenantEdge(&rng, base, cfg.vertices_per_tenant));
    }
    // Whale cluster: heavy legitimate edges among a small vertex set at the
    // top of the tenant's id range (disjoint from the fraud ring below).
    for (std::size_t i = 0; i < cfg.whale_edges; ++i) {
      const auto a = static_cast<VertexId>(rng.NextBounded(cfg.whale_size));
      auto b = static_cast<VertexId>(rng.NextBounded(cfg.whale_size));
      while (b == a) {
        b = static_cast<VertexId>(rng.NextBounded(cfg.whale_size));
      }
      const VertexId top = base + static_cast<VertexId>(
                                      cfg.vertices_per_tenant -
                                      cfg.ring_size - cfg.whale_size);
      w.initial.push_back(Edge{top + a, top + b,
                               cfg.whale_weight * (0.9 + 0.2 * rng.NextDouble()),
                               0});
    }
    for (std::size_t i = 0; i < cfg.stream_per_tenant; ++i) {
      tenant_stream[t].push_back(
          RandomTenantEdge(&rng, base, cfg.vertices_per_tenant));
    }
    // Fraud ring: a small vertex set hammered with heavy parallel edges,
    // starting a third of the way into the tenant's stream.
    std::vector<VertexId> ring;
    for (std::size_t i = 0; i < cfg.ring_size; ++i) {
      ring.push_back(static_cast<VertexId>(
          base + cfg.vertices_per_tenant - 1 - i));
    }
    const std::size_t burst_at = tenant_stream[t].size() / 3;
    for (std::size_t i = 0; i < cfg.ring_edges; ++i) {
      const VertexId s = ring[i % ring.size()];
      const VertexId d = ring[(i + 1) % ring.size()];
      Edge e{s, d, cfg.ring_weight * (0.9 + 0.2 * rng.NextDouble()), 0};
      tenant_stream[t].insert(
          tenant_stream[t].begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(burst_at + i, tenant_stream[t].size())),
          e);
    }
    w.stream.group_vertices.push_back(ring);
  }

  // Round-robin interleave (tenant traffic multiplexed at the endpoint).
  Timestamp ts = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t t = 0; t < cfg.tenants; ++t) {
      if (i >= tenant_stream[t].size()) continue;
      any = true;
      Edge e = tenant_stream[t][i];
      e.ts = ts++;
      const bool fraud = e.weight >= cfg.ring_weight * 0.9;
      w.stream.Append(e, fraud ? static_cast<std::int32_t>(t) : kNormalEdge);
    }
    if (!any) break;
  }
  return w;
}

/// One detector per shard, each holding the initial graphs of its tenants.
std::vector<Spade> BuildShards(const TenantWorkload& w,
                               const TenantConfig& cfg,
                               std::size_t num_shards) {
  std::vector<std::vector<Edge>> parts(num_shards);
  for (const Edge& e : w.initial) {
    parts[(e.src / cfg.vertices_per_tenant) % num_shards].push_back(e);
  }
  std::vector<Spade> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(w.num_vertices, parts[s]);
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  return shards;
}

struct SweepEntry {
  std::size_t shards = 0;
  std::size_t edges = 0;
  double wall_s = 0.0;
  double eps = 0.0;
  double speedup = 1.0;
  double fraud_p50_us = 0.0;
  double fraud_p95_us = 0.0;
  std::size_t groups_detected = 0;
  std::uint64_t alerts = 0;
  std::uint64_t detections = 0;
};

SweepEntry RunConfig(const TenantWorkload& w, const TenantConfig& cfg,
                     std::size_t num_shards) {
  ServiceReplayOptions options;
  options.num_producers = 4;
  options.service.shard.block_when_full = true;
  // Tight flush cadence: the sweep measures reorder cost, and a 64-edge
  // grouping window keeps flush work the dominant term at every shard
  // count (detection cadence is identical across configs by construction).
  options.service.shard.detect_every = 64;
  options.service.partitioner =
      TenantPartitioner(static_cast<VertexId>(cfg.vertices_per_tenant));

  const ServiceReplayReport report = ReplayThroughService(
      BuildShards(w, cfg, num_shards), w.stream, options);

  SweepEntry e;
  e.shards = num_shards;
  e.edges = report.edges_submitted;
  e.wall_s = report.wall_seconds;
  e.eps = report.SubmitThroughputEps();
  e.fraud_p50_us = report.fraud_latency_micros.count() > 0
                       ? report.fraud_latency_micros.Percentile(50)
                       : 0.0;
  e.fraud_p95_us = report.fraud_latency_micros.count() > 0
                       ? report.fraud_latency_micros.Percentile(95)
                       : 0.0;
  e.groups_detected = report.groups_detected;
  e.alerts = report.alerts;
  e.detections = report.detections;
  return e;
}

// ---------------------------------------------------------------------------
// Cross-shard ring workload (stitching bench).

struct StitchConfig {
  std::size_t vertices = 8192;
  std::size_t background_edges = 64000;
  /// One legitimate whale clique per home-residue class (mod 8). Members of
  /// a clique share their splitmix home at 8 shards — hence also at 4 and 2
  /// (equal mod 8 implies equal mod its divisors) — so every shard at every
  /// swept count holds whales of the same density and the benign threshold
  /// (Definition 4.1) is pinned equal across configs, merged included.
  std::size_t whale_size = 8;
  std::size_t whale_edges = 100;
  double whale_weight = 40.0;
  /// Fraud ring whose 8 members cover all 8 home residues: every
  /// consecutive pair crosses shards at 2, 4 and 8 shards, so the ring is
  /// invisible to any per-shard argmax and fully in the boundary weights.
  std::size_t ring_size = 8;
  std::size_t ring_edges = 160;
  double ring_weight = 60.0;
  std::uint64_t seed = 4242;
};

struct StitchWorkload {
  std::size_t num_vertices = 0;
  LabeledStream stream;
  std::vector<VertexId> ring;
};

StitchWorkload BuildStitchWorkload(const StitchConfig& cfg) {
  StitchWorkload w;
  w.num_vertices = cfg.vertices;
  Rng rng(cfg.seed);
  const Partitioner hash = HashOfSourcePartitioner();
  const auto residue = [&hash](VertexId v) { return hash(v) % 8; };

  // Bucket vertex ids by home residue; whales and the ring draw from them.
  std::vector<std::vector<VertexId>> pools(8);
  for (VertexId v = 0; v < cfg.vertices; ++v) {
    pools[residue(v)].push_back(v);
  }
  std::unordered_set<VertexId> reserved;
  for (std::size_t r = 0; r < 8; ++r) {
    w.ring.push_back(pools[r][0]);
    reserved.insert(pools[r][0]);
  }

  std::vector<Edge> edges;
  // Whales first so every shard's threshold is anchored before the random
  // traffic arrives.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t i = 0; i < cfg.whale_edges; ++i) {
      const auto a = pools[r][1 + rng.NextBounded(cfg.whale_size)];
      auto b = pools[r][1 + rng.NextBounded(cfg.whale_size)];
      while (b == a) b = pools[r][1 + rng.NextBounded(cfg.whale_size)];
      edges.push_back(
          Edge{a, b, cfg.whale_weight * (0.9 + 0.2 * rng.NextDouble()), 0});
    }
  }
  for (std::size_t i = 0; i < cfg.background_edges; ++i) {
    auto s = static_cast<VertexId>(rng.NextBounded(cfg.vertices));
    auto d = static_cast<VertexId>(rng.NextBounded(cfg.vertices));
    while (d == s || reserved.count(s) != 0 || reserved.count(d) != 0) {
      s = static_cast<VertexId>(rng.NextBounded(cfg.vertices));
      d = static_cast<VertexId>(rng.NextBounded(cfg.vertices));
    }
    edges.push_back(Edge{s, d, 1.0 + 9.0 * rng.NextDouble(), 0});
  }
  // Ring burst a third of the way in, consecutive members always in
  // different home shards.
  const std::size_t burst_at = edges.size() / 3;
  for (std::size_t i = 0; i < cfg.ring_edges; ++i) {
    const VertexId s = w.ring[i % w.ring.size()];
    const VertexId d = w.ring[(i + 1) % w.ring.size()];
    edges.insert(
        edges.begin() + static_cast<std::ptrdiff_t>(
                            std::min(burst_at + i, edges.size())),
        Edge{s, d, cfg.ring_weight * (0.9 + 0.2 * rng.NextDouble()), 0});
  }

  Timestamp ts = 0;
  for (Edge e : edges) {
    e.ts = ts++;
    const bool fraud = e.weight >= cfg.ring_weight * 0.9;
    w.stream.Append(e, fraud ? 0 : kNormalEdge);
  }
  w.stream.group_vertices.push_back(w.ring);
  return w;
}

std::vector<Spade> BuildHashShards(const StitchWorkload& w,
                                   std::size_t num_shards) {
  std::vector<Spade> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(w.num_vertices, {});
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  return shards;
}

double RingRecall(const std::vector<VertexId>& ring,
                  const std::vector<VertexId>& members) {
  const std::unordered_set<VertexId> set(members.begin(), members.end());
  std::size_t hit = 0;
  for (const VertexId v : ring) hit += set.count(v);
  return ring.empty() ? 0.0
                      : static_cast<double>(hit) /
                            static_cast<double>(ring.size());
}

struct StitchEntry {
  std::size_t shards = 0;
  double eps = 0.0;
  double speedup = 1.0;
  double argmax_recall = 0.0;
  double argmax_density = 0.0;
  double stitched_recall = 0.0;
  double stitched_density = 0.0;
  double stitch_ms = 0.0;
  std::uint64_t boundary_edges = 0;
  std::size_t seam_vertices = 0;
  std::size_t seam_edges = 0;
  bool stitched_flag = false;
};

StitchEntry RunStitchConfig(const StitchWorkload& w, std::size_t num_shards) {
  ServiceReplayOptions options;
  options.num_producers = 4;
  options.final_stitch = true;
  options.service.shard.block_when_full = true;
  options.service.shard.detect_every = 64;
  options.service.partitioner = HashOfSourcePartitioner();

  const ServiceReplayReport report =
      ReplayThroughService(BuildHashShards(w, num_shards), w.stream, options);

  StitchEntry e;
  e.shards = num_shards;
  e.eps = report.SubmitThroughputEps();
  e.argmax_recall = RingRecall(w.ring, report.final_argmax.members);
  e.argmax_density = report.final_argmax.density;
  e.stitched_recall = RingRecall(w.ring, report.final_stitched.members);
  e.stitched_density = report.final_stitched.density;
  e.stitch_ms = report.stitch_millis;
  e.boundary_edges = report.boundary_edges;
  e.seam_vertices = report.final_stitched.seam_vertices;
  e.seam_edges = report.final_stitched.seam_edges;
  e.stitched_flag = report.final_stitched.stitched;
  return e;
}

// ------------------------------------------------------------------------
// Message-driven stitching: freshness sweep + boundary residency.
// ------------------------------------------------------------------------

/// One event-driven configuration of the cross-shard ring workload: how
/// long until the ring is visible through CurrentGlobalCommunity with NO
/// explicit StitchNow call, and how many applied cross-home edges no
/// stitch pass had merged yet once ingest drained (the stitched read's
/// staleness in edges).
struct FreshnessEntry {
  double trigger_weight = 0.0;
  std::uint32_t interval_ms = 0;
  std::uint64_t stitch_triggers = 0;
  std::uint64_t stitch_passes = 0;
  std::uint64_t unconsumed_after_drain = 0;
  bool stitched_visible = false;
  double visibility_ms = 0.0;
  double stitched_recall = 0.0;
};

FreshnessEntry RunFreshnessConfig(const StitchWorkload& w,
                                  std::size_t num_shards,
                                  double trigger_weight,
                                  std::uint32_t interval_ms) {
  ShardedDetectionServiceOptions options;
  options.partitioner = HashOfSourcePartitioner();
  options.shard.block_when_full = true;
  options.shard.detect_every = 64;
  options.stitch.interval_ms = interval_ms;
  options.stitch.trigger_weight = trigger_weight;
  ShardedDetectionService service(BuildHashShards(w, num_shards), nullptr,
                                  options);

  const std::vector<Edge>& edges = w.stream.edges;
  constexpr std::size_t kChunk = 512;
  for (std::size_t i = 0; i < edges.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, edges.size() - i);
    (void)service.SubmitBatch(std::span<const Edge>(edges.data() + i, len));
  }
  service.Drain();

  FreshnessEntry e;
  e.trigger_weight = trigger_weight;
  e.interval_ms = interval_ms;
  const auto drained = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000; ++i) {
    const GlobalCommunity g = service.CurrentGlobalCommunity();
    if (g.stitched) {
      e.stitched_visible = true;
      e.visibility_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - drained)
              .count();
      e.stitched_recall = RingRecall(w.ring, g.members);
      break;
    }
    // No stitcher configured: the ring can never become visible. Bail
    // instead of burning the full poll budget.
    if (trigger_weight <= 0.0 && interval_ms == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ShardedServiceStats stats = service.GetStats();
  e.stitch_triggers = stats.stitch_triggers;
  e.stitch_passes = stats.stitch_passes;
  e.unconsumed_after_drain = stats.boundary_unconsumed_edges;
  service.Stop();
  return e;
}

/// Boundary-weight residency under a windowed, repeat-heavy stream holding
/// 4 windows of history: the weights keep one entry per boundary vertex
/// per partition, so resident bytes track the (small) hot vertex set
/// instead of the window's cross-home edge count. `raw_edge_bytes` is what
/// one copy of those edges would cost.
struct ResidencyResult {
  std::size_t window_edges = 0;
  std::uint64_t boundary_edges = 0;
  std::size_t resident_bytes = 0;
  std::size_t raw_edge_bytes = 0;
  double ratio = 1.0;
};

ResidencyResult RunResidency(std::size_t num_shards) {
  constexpr std::size_t kVertices = 1024;
  constexpr std::size_t kHotPool = 256;   // repeat-heavy: edges recur
  constexpr std::size_t kEdges = 65536;
  constexpr Timestamp kSpan = 16384;      // stream holds 4 windows

  std::vector<Edge> edges;
  edges.reserve(kEdges);
  Rng rng(777);
  for (std::size_t i = 0; i < kEdges; ++i) {
    auto s = static_cast<VertexId>(rng.NextBounded(kHotPool));
    auto d = static_cast<VertexId>(rng.NextBounded(kHotPool));
    while (d == s) d = static_cast<VertexId>(rng.NextBounded(kHotPool));
    edges.push_back(Edge{s, d, 1.0 + 9.0 * rng.NextDouble(),
                         static_cast<Timestamp>(i)});
  }

  ShardedDetectionServiceOptions options;
  options.partitioner = HashOfSourcePartitioner();
  options.shard.block_when_full = true;
  options.shard.detect_every = 64;
  options.window.span = kSpan;

  std::vector<Spade> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    if (!spade.BuildGraph(kVertices, {}).ok()) std::exit(1);
    shards.push_back(std::move(spade));
  }
  ShardedDetectionService service(std::move(shards), nullptr, options);

  // Stitch passes interleave with ingest (16 per stream), as in a live
  // deployment.
  constexpr std::size_t kSlice = kEdges / 16;
  for (std::size_t i = 0; i < kEdges; i += kSlice) {
    (void)service.SubmitBatch(std::span<const Edge>(
        edges.data() + i, std::min(kSlice, kEdges - i)));
    service.Drain();
    (void)service.StitchNow();
  }
  const ShardedServiceStats stats = service.GetStats();
  service.Stop();

  ResidencyResult r;
  r.window_edges = static_cast<std::size_t>(kSpan);
  r.boundary_edges = stats.boundary_edges;
  r.resident_bytes = stats.boundary_resident_bytes;
  r.raw_edge_bytes =
      static_cast<std::size_t>(stats.boundary_edges) * sizeof(Edge);
  if (r.raw_edge_bytes > 0) {
    r.ratio = static_cast<double>(r.resident_bytes) /
              static_cast<double>(r.raw_edge_bytes);
  }
  return r;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  using namespace spade::bench;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  TenantConfig cfg;
  const TenantWorkload w = BuildTenantWorkload(cfg);
  std::printf("# sharded service sweep: %zu tenants, %zu vertices, "
              "%zu initial edges, %zu stream edges, %zu fraud rings\n\n",
              cfg.tenants, w.num_vertices, w.initial.size(), w.stream.size(),
              w.stream.group_vertices.size());
  std::printf("%7s %10s %9s %12s %9s %12s %12s %9s %7s %8s\n", "shards", "edges",
              "wall(s)", "edges/s", "speedup", "fraud p50", "fraud p95",
              "detected", "alerts", "detects");

  // One discarded warm-up run so the 1-shard baseline does not pay the
  // allocator/page-fault cold start that later configs skip (that would
  // inflate every speedup_vs_1).
  (void)RunConfig(w, cfg, 1);

  std::vector<SweepEntry> entries;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    SweepEntry e = RunConfig(w, cfg, shards);
    if (!entries.empty()) e.speedup = e.eps / entries.front().eps;
    std::printf("%7zu %10zu %9.3f %12.0f %8.2fx %10.0fus %10.0fus %6zu/%zu %7llu %8llu\n",
                e.shards, e.edges, e.wall_s, e.eps, e.speedup, e.fraud_p50_us,
                e.fraud_p95_us, e.groups_detected, cfg.tenants,
                static_cast<unsigned long long>(e.alerts),
                static_cast<unsigned long long>(e.detections));
    entries.push_back(e);
  }

  const std::string path = out_dir + "/BENCH_service.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfgjson[128];
    std::snprintf(cfgjson, sizeof(cfgjson),
                  "{\"tenants\": %zu, \"semantics\": \"DW\"}",
                  cfg.tenants);
    spade::bench::WriteBenchMeta(f, cfgjson);
  }
  std::fprintf(f, "  \"workload\": {\"tenants\": %zu, \"vertices\": %zu, "
               "\"initial_edges\": %zu, \"stream_edges\": %zu},\n",
               cfg.tenants, w.num_vertices, w.initial.size(),
               w.stream.size());
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& e = entries[i];
    std::fprintf(
        f,
        "    {\"shards\": %zu, \"edges\": %zu, \"wall_s\": %.4f, "
        "\"edges_per_s\": %.0f, \"speedup_vs_1\": %.2f, "
        "\"fraud_p50_us\": %.0f, \"fraud_p95_us\": %.0f, "
        "\"groups_detected\": %zu, \"alerts\": %llu, "
        "\"detections\": %llu}%s\n",
        e.shards, e.edges, e.wall_s, e.eps, e.speedup, e.fraud_p50_us,
        e.fraud_p95_us, e.groups_detected,
        static_cast<unsigned long long>(e.alerts),
        static_cast<unsigned long long>(e.detections),
        i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  // ---- cross-shard ring workload (stitching sweep) ----
  StitchConfig scfg;
  const StitchWorkload sw = BuildStitchWorkload(scfg);
  std::printf("\n# cross-shard ring sweep: %zu vertices, %zu stream edges, "
              "ring of %zu split across every shard\n\n",
              sw.num_vertices, sw.stream.size(), sw.ring.size());
  std::printf("%7s %12s %9s %13s %15s %10s %10s %10s\n", "shards", "edges/s",
              "speedup", "argmax-recall", "stitched-recall", "density",
              "merged", "stitch-ms");

  (void)RunStitchConfig(sw, 1);  // warm-up, same rationale as above

  std::vector<StitchEntry> sentries;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    StitchEntry e = RunStitchConfig(sw, shards);
    if (!sentries.empty()) e.speedup = e.eps / sentries.front().eps;
    const double merged_density =
        sentries.empty() ? e.stitched_density : sentries.front().stitched_density;
    std::printf("%7zu %12.0f %8.2fx %13.2f %15.2f %10.1f %10.1f %10.1f\n",
                e.shards, e.eps, e.speedup, e.argmax_recall,
                e.stitched_recall, e.stitched_density, merged_density,
                e.stitch_ms);
    sentries.push_back(e);
  }

  // ---- freshness sweep: how fast does the ring surface with no explicit
  // stitch call, and how far behind do the queues sit after ingest? ----
  std::printf("\n# freshness sweep (4 shards, event-driven stitching)\n\n");
  std::printf("%15s %11s %9s %8s %12s %13s %8s\n", "trigger-weight",
              "interval-ms", "triggers", "passes", "unconsumed",
              "visible-ms", "recall");
  std::vector<FreshnessEntry> fentries;
  for (const auto& [tw, ims] :
       std::vector<std::pair<double, std::uint32_t>>{
           {0.0, 0}, {0.0, 20}, {4096.0, 0}, {256.0, 0}}) {
    const FreshnessEntry e = RunFreshnessConfig(sw, 4, tw, ims);
    std::printf("%15.0f %11u %9llu %8llu %12llu %13s %8.2f\n",
                e.trigger_weight, e.interval_ms,
                static_cast<unsigned long long>(e.stitch_triggers),
                static_cast<unsigned long long>(e.stitch_passes),
                static_cast<unsigned long long>(e.unconsumed_after_drain),
                e.stitched_visible
                    ? std::to_string(e.visibility_ms).substr(0, 6).c_str()
                    : "never",
                e.stitched_recall);
    fentries.push_back(e);
  }

  // ---- boundary residency: windowed stream holding 4 windows of
  // repeat-heavy history ----
  const ResidencyResult rr = RunResidency(4);
  std::printf("\n# boundary residency (4 shards, windowed 4x history): "
              "weights %zu B vs %zu B for one copy of the %llu cross-home "
              "edges (ratio %.3f)\n",
              rr.resident_bytes, rr.raw_edge_bytes,
              static_cast<unsigned long long>(rr.boundary_edges), rr.ratio);

  const std::string spath = out_dir + "/BENCH_stitching.json";
  std::FILE* sf = std::fopen(spath.c_str(), "w");
  if (sf == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", spath.c_str());
    return 1;
  }
  std::fprintf(sf, "{\n");
  {
    char cfgjson[128];
    std::snprintf(cfgjson, sizeof(cfgjson),
                  "{\"ring_size\": %zu, \"semantics\": \"DW\"}",
                  scfg.ring_size);
    spade::bench::WriteBenchMeta(sf, cfgjson);
  }
  std::fprintf(sf,
               "  \"workload\": {\"vertices\": %zu, \"stream_edges\": %zu, "
               "\"ring_size\": %zu, \"ring_edges\": %zu},\n",
               sw.num_vertices, sw.stream.size(), scfg.ring_size,
               scfg.ring_edges);
  std::fprintf(sf, "  \"merged_density\": %.4f,\n",
               sentries.front().stitched_density);
  std::fprintf(sf, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sentries.size(); ++i) {
    const StitchEntry& e = sentries[i];
    const double merged_density = sentries.front().stitched_density;
    std::fprintf(
        sf,
        "    {\"shards\": %zu, \"edges_per_s\": %.0f, \"speedup_vs_1\": "
        "%.2f, \"argmax_recall\": %.3f, \"argmax_density\": %.4f, "
        "\"stitched_recall\": %.3f, \"stitched_density\": %.4f, "
        "\"density_ratio_vs_merged\": %.4f, \"stitched\": %s, "
        "\"stitch_ms\": %.2f, \"boundary_edges\": %llu, "
        "\"seam_vertices\": %zu, \"seam_edges\": %zu}%s\n",
        e.shards, e.eps, e.speedup, e.argmax_recall, e.argmax_density,
        e.stitched_recall, e.stitched_density,
        merged_density > 0.0 ? e.stitched_density / merged_density : 0.0,
        e.stitched_flag ? "true" : "false", e.stitch_ms,
        static_cast<unsigned long long>(e.boundary_edges), e.seam_vertices,
        e.seam_edges, i + 1 == sentries.size() ? "" : ",");
  }
  std::fprintf(sf, "  ],\n");
  std::fprintf(sf, "  \"freshness\": [\n");
  for (std::size_t i = 0; i < fentries.size(); ++i) {
    const FreshnessEntry& e = fentries[i];
    std::fprintf(
        sf,
        "    {\"trigger_weight\": %.0f, \"interval_ms\": %u, "
        "\"stitch_triggers\": %llu, \"stitch_passes\": %llu, "
        "\"unconsumed_edges_after_drain\": %llu, \"stitched_visible\": %s, "
        "\"visibility_ms\": %.2f, \"stitched_recall\": %.3f}%s\n",
        e.trigger_weight, e.interval_ms,
        static_cast<unsigned long long>(e.stitch_triggers),
        static_cast<unsigned long long>(e.stitch_passes),
        static_cast<unsigned long long>(e.unconsumed_after_drain),
        e.stitched_visible ? "true" : "false", e.visibility_ms,
        e.stitched_recall, i + 1 == fentries.size() ? "" : ",");
  }
  std::fprintf(sf, "  ],\n");
  std::fprintf(sf,
               "  \"residency\": {\"shards\": 4, \"window_edges\": %zu, "
               "\"boundary_edges\": %llu, \"resident_bytes\": %zu, "
               "\"raw_edge_bytes\": %zu, \"resident_over_raw_ratio\": "
               "%.4f}\n",
               rr.window_edges,
               static_cast<unsigned long long>(rr.boundary_edges),
               rr.resident_bytes, rr.raw_edge_bytes, rr.ratio);
  std::fprintf(sf, "}\n");
  std::fclose(sf);
  std::printf("\nwrote %s\n", spath.c_str());
  return 0;
}
