#include "traffic.h"

#include <algorithm>

#include "common/rng.h"
#include "core/spade.h"
#include "metrics/semantics.h"

namespace perfbench {

using spade::Edge;
using spade::Rng;
using spade::Timestamp;
using spade::VertexId;

namespace {

// Ring vertex sets rotate through this many slots at the top of each
// tenant's id range, above the whale cluster.
constexpr std::size_t kRingSlots = 4;

struct Layout {
  const TenantTrafficConfig& cfg;
  std::size_t reserved() const {
    return kRingSlots * cfg.ring_size + cfg.whale_size;
  }
  std::size_t normal() const { return cfg.vertices_per_tenant - reserved(); }
  VertexId base(std::size_t t) const {
    return static_cast<VertexId>(t * cfg.vertices_per_tenant);
  }
  VertexId whale(std::size_t t, std::size_t i) const {
    return base(t) + static_cast<VertexId>(normal() + i);
  }
  VertexId ring(std::size_t t, std::size_t slot, std::size_t i) const {
    return base(t) + static_cast<VertexId>(normal() + cfg.whale_size +
                                           slot * cfg.ring_size + i);
  }
};

VertexId Uniform(Rng* rng, VertexId base, std::size_t n) {
  return base + static_cast<VertexId>(rng->NextBounded(n));
}

Edge WhaleEdge(Rng* rng, const Layout& layout, std::size_t t) {
  const std::size_t n = layout.cfg.whale_size;
  const std::size_t a = rng->NextBounded(n);
  std::size_t b = rng->NextBounded(n);
  while (b == a) b = rng->NextBounded(n);
  return Edge{layout.whale(t, a), layout.whale(t, b),
              layout.cfg.whale_weight * (0.9 + 0.2 * rng->NextDouble()), 0};
}

// Edges split by home shard under TenantPartitioner with `num_shards`
// single-partition workers.
std::vector<std::vector<Edge>> SplitByShard(const std::vector<Edge>& edges,
                                            std::size_t vertices_per_tenant,
                                            std::size_t num_shards) {
  std::vector<std::vector<Edge>> parts(num_shards);
  for (const Edge& e : edges) {
    parts[(e.src / vertices_per_tenant) % num_shards].push_back(e);
  }
  return parts;
}

}  // namespace

TenantTraffic MakeTenantTraffic(const TenantTrafficConfig& cfg,
                                std::uint64_t seed) {
  const Layout layout{cfg};
  Rng rng(seed);
  TenantTraffic out;

  for (std::size_t t = 0; t < cfg.tenants && cfg.initial_per_tenant > 0; ++t) {
    for (std::size_t i = 0; i < cfg.initial_per_tenant; ++i) {
      const VertexId s = Uniform(&rng, layout.base(t), layout.normal());
      VertexId d = Uniform(&rng, layout.base(t), layout.normal());
      while (d == s) d = Uniform(&rng, layout.base(t), layout.normal());
      out.initial.push_back(Edge{s, d, 1.0 + 9.0 * rng.NextDouble(), 0});
    }
    for (std::size_t i = 0; i < cfg.whale_edges; ++i) {
      out.initial.push_back(WhaleEdge(&rng, layout, t));
    }
  }

  // Without initial graphs the whales live in the stream: one whale edge
  // every `whale_period` positions keeps each tenant's cluster resident in
  // any window that spans a few thousand edges.
  const std::size_t whale_period =
      cfg.initial_per_tenant == 0 ? std::max<std::size_t>(cfg.tenants, 20) : 0;

  out.stream.reserve(cfg.stream_edges);
  Timestamp now = 0;
  std::size_t next_ring = cfg.ring_every > 0 ? cfg.ring_every / 2 : 0;
  std::size_t rings = 0;
  std::size_t whale_tenant = 0;
  auto stamp = [&](Edge e) {
    now += cfg.micros_per_edge;
    e.ts = now;
    if (cfg.late_share > 0.0 && rng.NextDouble() < cfg.late_share) {
      const auto back = static_cast<Timestamp>(
          (1 + rng.NextBounded(cfg.late_by_edges)) * cfg.micros_per_edge);
      e.ts = std::max<Timestamp>(1, now - back);
      ++out.late_edges;
    }
    out.stream.push_back(e);
  };

  while (out.stream.size() < cfg.stream_edges) {
    const std::size_t pos = out.stream.size();
    if (cfg.ring_every > 0 && pos >= next_ring) {
      // One fraud ring burst, tenant and slot rotating per ring.
      const std::size_t k = rings++;
      const std::size_t t = k % cfg.tenants;
      const std::size_t partner = (t + 1) % cfg.tenants;
      const std::size_t slot = (k / cfg.tenants) % kRingSlots;
      auto member = [&](std::size_t j) {
        const std::size_t owner =
            cfg.cross_tenant_rings && j % 2 == 1 ? partner : t;
        return layout.ring(owner, slot, j);
      };
      for (std::size_t i = 0;
           i < cfg.ring_edges && out.stream.size() < cfg.stream_edges; ++i) {
        const std::size_t j = i % cfg.ring_size;
        stamp(Edge{member(j), member((j + 1) % cfg.ring_size),
                   cfg.ring_weight * (0.9 + 0.2 * rng.NextDouble()), 0});
      }
      next_ring += cfg.ring_every;
      continue;
    }
    if (whale_period > 0 && pos % whale_period == 0) {
      stamp(WhaleEdge(&rng, layout, whale_tenant));
      whale_tenant = (whale_tenant + 1) % cfg.tenants;
      continue;
    }
    const std::size_t t = rng.NextBounded(cfg.tenants);
    std::size_t u = t;
    if (cfg.tenants > 1 && rng.NextDouble() < cfg.cross_tenant_share) {
      u = (t + 1 + rng.NextBounded(cfg.tenants - 1)) % cfg.tenants;
    }
    const VertexId s = Uniform(&rng, layout.base(t), layout.normal());
    VertexId d = Uniform(&rng, layout.base(u), layout.normal());
    while (d == s) d = Uniform(&rng, layout.base(u), layout.normal());
    stamp(Edge{s, d, 1.0 + 9.0 * rng.NextDouble(), 0});
  }
  return out;
}

std::unique_ptr<spade::ShardedDetectionService> MakeFleet(
    const std::vector<Edge>& initial, const TenantTrafficConfig& cfg,
    spade::ShardedDetectionServiceOptions options, Report& report) {
  constexpr std::size_t kShards = 2;
  const auto parts = SplitByShard(initial, cfg.vertices_per_tenant, kShards);
  std::vector<spade::Spade> shards(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards[s].SetSemantics(spade::MakeDW());
    if (!report.Op(shards[s].BuildGraph(cfg.num_vertices(), parts[s]),
                   "BuildGraph")) {
      return nullptr;
    }
  }
  options.partitioner = spade::TenantPartitioner(
      static_cast<VertexId>(cfg.vertices_per_tenant));
  options.shard_cpus = {2, 3};
  auto service = std::make_unique<spade::ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  if (!initial.empty()) service->SeedBoundaryIndex(initial);
  return service;
}

std::vector<ShardImage> ShardImages(
    const spade::ShardedDetectionService& service) {
  std::vector<ShardImage> out(service.num_shards());
  for (std::size_t s = 0; s < out.size(); ++s) {
    service.InspectShard(s, [&](const spade::Spade& spade) {
      out[s].community = spade.peel_state().DetectCommunity();
      out[s].edges = SortedEdges(spade.graph());
    });
  }
  return out;
}

void RecordFleetStats(const spade::ShardedDetectionService& service,
                      Report& report) {
  const spade::ShardedServiceStats stats = service.GetStats();
  double busy = 0.0;
  std::uint64_t max_edges = 0;
  std::size_t hwm = 0;
  std::uint64_t detections = 0;
  for (std::size_t s = 0; s < stats.shard_edges.size(); ++s) {
    busy += stats.shard_busy_fraction[s];
    max_edges = std::max(max_edges, stats.shard_edges[s]);
    hwm = std::max(hwm, stats.shard_queue_hwm[s]);
    detections += stats.shard_detections[s];
  }
  const double shards = static_cast<double>(stats.shard_edges.size());
  report.Set("busy_share", busy / shards);
  report.Set("shard_imbalance",
             static_cast<double>(max_edges) * shards /
                 std::max(1.0, static_cast<double>(stats.edges_processed)));
  report.Set("queue_hwm", static_cast<double>(hwm));
  report.Set("detections", static_cast<double>(detections));
  report.Set("alerts", static_cast<double>(stats.alerts_delivered));
  report.Set("edges_applied", static_cast<double>(stats.edges_processed));
  report.Set("retired_edges", static_cast<double>(stats.retired_edges));
  report.Set("boundary_edges", static_cast<double>(stats.boundary_edges));
  report.Set("boundary_resident_bytes",
             static_cast<double>(stats.boundary_resident_bytes));

  spade::ReorderStats rs;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    service.InspectShard(s, [&](const spade::Spade& spade) {
      rs.Accumulate(spade.cumulative_stats());
    });
  }
  report.Set("affected_vertices", static_cast<double>(rs.affected_vertices));
  report.Set("touched_edges", static_cast<double>(rs.touched_edges));
  report.Set("rewritten_span", static_cast<double>(rs.rewritten_span));
}

}  // namespace perfbench
