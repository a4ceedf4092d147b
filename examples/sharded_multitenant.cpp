// Sharded multi-tenant deployment: four marketplaces ("tenants") share one
// detection service, each routed to its own shard by a tenant-key
// partitioner. Shards are fully independent detectors, so one tenant's
// whale community cannot raise another tenant's benign threshold or crowd
// it out of the global argmax — the failure mode of funneling every tenant
// through a single detector.
//
// The demo streams normal traffic into all tenants, injects a fraud ring
// into tenant 2, shows the shard-tagged alert, then grows a CROSS-tenant
// collusion ring (accounts in tenants 0 and 3): each of its edges adds
// boundary weight to its endpoints as it is applied, and a stitch pass
// detects the ring at its exact global density — invisible to any single
// shard's view. Finally the whole fleet is saved into one snapshot
// directory and restored into a fresh service, which recounts the boundary
// weights from its restored detectors.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"

namespace {

constexpr std::size_t kTenants = 4;
constexpr spade::VertexId kVerticesPerTenant = 512;

spade::Edge RandomTenantEdge(spade::Rng* rng, std::size_t tenant) {
  const auto base =
      static_cast<spade::VertexId>(tenant * kVerticesPerTenant);
  auto s = static_cast<spade::VertexId>(rng->NextBounded(kVerticesPerTenant));
  auto d = static_cast<spade::VertexId>(rng->NextBounded(kVerticesPerTenant));
  while (d == s) {
    d = static_cast<spade::VertexId>(rng->NextBounded(kVerticesPerTenant));
  }
  return spade::Edge{static_cast<spade::VertexId>(base + s),
                     static_cast<spade::VertexId>(base + d),
                     1.0 + 4.0 * rng->NextDouble(), 0};
}

std::vector<spade::Spade> BuildTenantShards(std::uint64_t seed) {
  spade::Rng rng(seed);
  std::vector<spade::Spade> shards;
  for (std::size_t t = 0; t < kTenants; ++t) {
    std::vector<spade::Edge> initial;
    for (int i = 0; i < 1200; ++i) {
      initial.push_back(RandomTenantEdge(&rng, t));
    }
    // A stable legitimate "whale" cluster per tenant: it anchors the
    // tenant's community (so routine traffic is classified benign and does
    // not alert) until the fraud ring overtakes it.
    const auto base = static_cast<spade::VertexId>(t * kVerticesPerTenant);
    for (int i = 0; i < 40; ++i) {
      const auto a = static_cast<spade::VertexId>(base + i % 8);
      const auto b = static_cast<spade::VertexId>(base + (i + 1 + i / 8) % 8);
      if (a == b) continue;
      initial.push_back({a, b, 20.0 + rng.NextDouble(), 0});
    }
    spade::Spade detector;
    detector.SetSemantics(spade::MakeDW());
    if (!detector.BuildGraph(kTenants * kVerticesPerTenant, initial).ok()) {
      std::fprintf(stderr, "BuildGraph failed\n");
      std::exit(1);
    }
    shards.push_back(std::move(detector));
  }
  return shards;
}

}  // namespace

int main() {
  std::atomic<int> tenant2_alerts{0};
  std::atomic<std::size_t> last_size[kTenants] = {};
  spade::ShardedDetectionServiceOptions options;
  options.partitioner = spade::TenantPartitioner(kVerticesPerTenant);
  // Work-stealing rebalance on: a tenant whose traffic spikes can have its
  // partition stolen by an idle worker (the demo's traffic is too tame to
  // trigger a steal, but the stats below show the counters wired up).
  options.rebalance.interval_ms = 20;
  // Pin shard workers round-robin onto the machine's cores (a no-op hint
  // on a single-core host, and on non-Linux platforms).
  const unsigned cores =
      std::max(1u, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < cores; ++c) {
    options.shard_cpus.push_back(static_cast<int>(c));
  }
  options.stitch.on_stitch_alert = [](const spade::GlobalCommunity& g) {
    std::printf("  [stitched alert] %zu accounts, density %.1f, spanning"
                " shards {", g.members.size(), g.density);
    for (std::size_t i = 0; i < g.shards.size(); ++i) {
      std::printf("%s%zu", i == 0 ? "" : ", ", g.shards[i]);
    }
    std::printf("}\n");
  };

  spade::ShardedDetectionService service(
      BuildTenantShards(/*seed=*/7),
      [&](std::size_t shard, const spade::Community& c) {
        // Alerts also fire on pure density drift; print only when the
        // member set changes size to keep the demo readable.
        if (last_size[shard].exchange(c.members.size()) !=
            c.members.size()) {
          std::printf("  [alert] shard %zu: community of %zu accounts, "
                      "density %.1f\n",
                      shard, c.members.size(), c.density);
        }
        if (shard == 2) ++tenant2_alerts;
      },
      options);

  std::printf("== %zu tenants, %zu shards, tenant-key routing ==\n",
              kTenants, service.num_shards());

  // Normal traffic across all tenants.
  spade::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    (void)service.Submit(RandomTenantEdge(&rng, i % kTenants));
  }

  // Tenant 2 grows a collusion ring: heavy repeated transactions among six
  // accounts.
  const auto base = static_cast<spade::VertexId>(2 * kVerticesPerTenant);
  for (int i = 0; i < 90; ++i) {
    const auto a = static_cast<spade::VertexId>(base + 500 + i % 6);
    const auto b = static_cast<spade::VertexId>(base + 500 + (i + 1) % 6);
    (void)service.Submit({a, b, 40.0, 0});
  }
  service.Drain();

  const spade::Community top = service.CurrentCommunity();
  std::printf("\nglobal top community: shard %zu, %zu accounts, "
              "density %.1f\n",
              service.TopShard(), top.members.size(), top.density);
  std::printf("tenant-2 alerts: %d (ring lives in shard 2)\n",
              tenant2_alerts.load());

  // A cross-tenant collusion ring: accounts in tenants 0 and 3 trade
  // heavily with each other. Every edge is cross-tenant, so each lands in
  // its source tenant's shard and weighs on the boundary weights — no
  // single shard ever sees the ring whole.
  std::printf("\n== cross-tenant collusion (tenants 0 and 3) ==\n");
  const auto t0 = static_cast<spade::VertexId>(0 * kVerticesPerTenant);
  const auto t3 = static_cast<spade::VertexId>(3 * kVerticesPerTenant);
  const spade::VertexId cross_ring[6] = {
      static_cast<spade::VertexId>(t0 + 100),
      static_cast<spade::VertexId>(t3 + 100),
      static_cast<spade::VertexId>(t0 + 101),
      static_cast<spade::VertexId>(t3 + 101),
      static_cast<spade::VertexId>(t0 + 102),
      static_cast<spade::VertexId>(t3 + 102)};
  for (int i = 0; i < 120; ++i) {
    (void)service.Submit(
        {cross_ring[i % 6], cross_ring[(i + 1) % 6], 60.0, 0});
  }
  service.Drain();

  const spade::Community argmax_view = service.CurrentCommunity();
  std::printf("per-shard argmax sees density %.1f — the ring's edges are "
              "split, no shard holds them all\n", argmax_view.density);
  const spade::GlobalCommunity stitched = service.StitchNow();
  std::printf("stitch pass: %s community of %zu accounts at exact global "
              "density %.1f (seam: %zu vertices, %zu edges)\n",
              stitched.stitched ? "cross-shard" : "single-shard",
              stitched.members.size(), stitched.density,
              stitched.seam_vertices, stitched.seam_edges);

  const spade::ShardedServiceStats stats = service.GetStats();
  std::printf("boundary: %llu cross-shard edges, %llu stitch passes\n",
              static_cast<unsigned long long>(stats.boundary_edges),
              static_cast<unsigned long long>(stats.stitch_passes));
  std::printf("rebalance: %llu steals, %llu partitions moved, %llu edges "
              "forwarded across %zu partitions\n",
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.partitions_moved),
              static_cast<unsigned long long>(stats.forwarded_edges),
              stats.num_partitions);
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    std::printf("shard %zu: %llu edges, %llu alerts, %llu detections, "
                "queue high-water %zu, %zu partition%s, busy %.1f%%\n",
                s, static_cast<unsigned long long>(stats.shard_edges[s]),
                static_cast<unsigned long long>(stats.shard_alerts[s]),
                static_cast<unsigned long long>(stats.shard_detections[s]),
                stats.shard_queue_hwm[s], stats.shard_partitions[s],
                stats.shard_partitions[s] == 1 ? "" : "s",
                100.0 * stats.shard_busy_fraction[s]);
  }

  // Persist the fleet and restore it into a brand-new service.
  const std::string dir = "/tmp/spade_sharded_demo";
  if (!service.SaveState(dir).ok()) {
    std::fprintf(stderr, "SaveState failed\n");
    return 1;
  }
  service.Stop();

  spade::ShardedDetectionService restored(BuildTenantShards(/*seed=*/1234),
                                          nullptr, options);
  if (!restored.RestoreState(dir).ok()) {
    std::fprintf(stderr, "RestoreState failed\n");
    return 1;
  }
  const spade::Community back = restored.CurrentCommunity();
  std::printf("\nrestored from %s: top community has %zu accounts, "
              "density %.1f\n", dir.c_str(), back.members.size(),
              back.density);
  // The restored fleet recounts its boundary weights from the restored
  // detectors and re-detects the cross-tenant ring without replaying a
  // single edge.
  const spade::GlobalCommunity restitched = restored.StitchNow();
  std::printf("restored stitch pass: density %.1f (same cross-tenant ring: "
              "%s)\n", restitched.density,
              restitched.density == stitched.density ? "yes" : "no");
  std::filesystem::remove_all(dir);
  return 0;
}
