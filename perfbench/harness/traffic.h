// Multi-tenant traffic and the 2-worker fleet for the service workloads,
// generated from the run's seed before any timing starts.
//
// Vertex ids are laid out per tenant, [t * vertices_per_tenant,
// (t + 1) * vertices_per_tenant), which is the layout TenantPartitioner
// routes by. Each tenant carries mostly benign uniform traffic plus a whale
// cluster: a small set of heavy legitimate edges that pins the benign
// threshold (Definition 4.1), so most edges buffer instead of each forcing
// a detection. Fraud rings (small vertex sets hammered with heavy edges)
// are injected at a fixed period.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "graph/types.h"
#include "peel/peel_state.h"
#include "service/sharded_detection_service.h"

namespace perfbench {

struct TenantTrafficConfig {
  std::size_t tenants = 8;
  std::size_t vertices_per_tenant = 2048;
  /// Edges per tenant in the initial graphs (0 = shards start empty and
  /// the whales are re-emitted through the stream instead).
  std::size_t initial_per_tenant = 4000;
  std::size_t stream_edges = 100000;
  /// Share of stream edges whose destination is in another tenant.
  double cross_tenant_share = 0.10;
  std::size_t whale_size = 8;
  std::size_t whale_edges = 100;
  double whale_weight = 40.0;
  /// One fraud ring per this many stream edges (0 = none).
  std::size_t ring_every = 10000;
  std::size_t ring_size = 6;
  std::size_t ring_edges = 120;
  double ring_weight = 60.0;
  /// Ring members alternate between two tenants on different shards, so
  /// every ring edge is a cross-shard (seam) edge.
  bool cross_tenant_rings = false;
  /// Event time between consecutive stream edges (microseconds).
  spade::Timestamp micros_per_edge = 1000;
  /// Share of stream edges stamped late (out of order) by up to
  /// `late_by_edges` positions' worth of event time.
  double late_share = 0.0;
  std::size_t late_by_edges = 200;

  std::size_t num_vertices() const { return tenants * vertices_per_tenant; }
};

struct TenantTraffic {
  std::vector<spade::Edge> initial;
  std::vector<spade::Edge> stream;
  std::size_t late_edges = 0;
};

TenantTraffic MakeTenantTraffic(const TenantTrafficConfig& cfg,
                                std::uint64_t seed);

/// A fleet of two DW detectors over cfg.num_vertices(), routed by
/// TenantPartitioner, with the workers pinned to CPUs 2 and 3 so one core
/// of four stays free beside the harness thread. Each shard is built from
/// its part of `initial` (BuildGraph runs the initial static peel) and the
/// boundary index is seeded with `initial`. `options` carries the
/// workload's own settings; the partitioner and CPUs are set here. Null
/// when BuildGraph fails (counted in the report).
std::unique_ptr<spade::ShardedDetectionService> MakeFleet(
    const std::vector<spade::Edge>& initial, const TenantTrafficConfig& cfg,
    spade::ShardedDetectionServiceOptions options, Report& report);

/// One shard's state: its community and its sorted edge multiset.
struct ShardImage {
  spade::Community community;
  std::vector<EdgeKey> edges;
};

/// Every shard's image, read through InspectShard (takes the detector
/// mutexes, so never inside a timed window).
std::vector<ShardImage> ShardImages(
    const spade::ShardedDetectionService& service);

/// Records a drained fleet's counters after timing: GetStats() (busy
/// share, shard imbalance, queue high-water, detections, alerts, expiry,
/// boundary index) and the shards' ReorderStats through InspectShard. Both
/// take detector mutexes, so never call this inside a timed window.
void RecordFleetStats(const spade::ShardedDetectionService& service,
                      Report& report);

}  // namespace perfbench
