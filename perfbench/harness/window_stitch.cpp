// window-stitch: the tenant traffic shape on a windowed 2-worker fleet —
// the core's delete path beside its insert path, plus the boundary index,
// stitching and storage.
//
// Cross-tenant fraud rings give the seam peel something to win, ~1% of
// events arrive late, the window spans a quarter of the stream (default
// stride) and a small max_queue bounds the backlog. The harness submits in
// chunks, calls StitchNow on a fixed edge cadence (drain_before_stitch off,
// so a sample times the pass and not the backlog), and every
// kCheckpointEvery edges calls Drain() then SaveState(kAuto). After the
// final drain and checkpoint it restores the checkpoint into fresh fleets.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "bench.h"
#include "peel/static_peeler.h"
#include "service/sharded_detection_service.h"
#include "traffic.h"

namespace perfbench {
namespace {

using spade::Edge;
using Service = spade::ShardedDetectionService;

constexpr std::size_t kStreamEdges = 8000;
constexpr std::size_t kChunk = 16;
constexpr std::size_t kStitchEvery = 64;
constexpr std::size_t kCheckpointEvery = 1000;
constexpr int kRestores = 2;

TenantTrafficConfig TrafficConfig() {
  TenantTrafficConfig c;
  c.initial_per_tenant = 0;  // every edge lives in a window log
  c.stream_edges = kStreamEdges;
  c.ring_every = 1000;
  c.cross_tenant_rings = true;
  c.late_share = 0.01;
  return c;
}

std::unique_ptr<Service> MakeWindowedFleet(Report& report) {
  const TenantTrafficConfig tc = TrafficConfig();
  spade::ShardedDetectionServiceOptions options;
  options.shard.block_when_full = true;
  options.shard.max_queue = 2048;
  options.window.span =
      static_cast<spade::Timestamp>(kStreamEdges / 4) * tc.micros_per_edge;
  options.stitch.drain_before_stitch = false;
  return MakeFleet({}, tc, std::move(options), report);
}

struct StitchState {
  TenantTraffic traffic;
  std::unique_ptr<Service> service;
};

std::unique_ptr<StitchState> Setup(const RunConfig& cfg, Report& report) {
  auto st = std::make_unique<StitchState>();
  st->traffic = MakeTenantTraffic(TrafficConfig(), cfg.seed);
  st->service = MakeWindowedFleet(report);
  if (!st->service) return nullptr;
  return st;
}

bool Checkpoint(Service& service, const std::string& dir, Report& report,
                Trace& trace) {
  const std::uint32_t group = trace.NewGroup();
  const auto t0 = Clock::now();
  {
    Trace::Scope span(&trace, "service", "Drain", group);
    service.Drain();
  }
  const auto t1 = Clock::now();
  Service::SaveInfo info;
  spade::Status s;
  {
    Trace::Scope span(&trace, "storage", "SaveState", group);
    s = service.SaveState(dir, Service::SaveMode::kAuto, &info);
  }
  report.Add("drain_ms", MillisBetween(t0, t1));
  report.Add("checkpoint_ms", MillisBetween(t1, Clock::now()));
  report.Add("checkpoint_bytes", static_cast<double>(info.bytes_written));
  report.Add("checkpoint_new_base", info.delta ? 0.0 : 1.0);
  return report.Op(s, "SaveState");
}

void Round(StitchState& st, const RunConfig& cfg, Report& report,
           Trace& trace) {
  Service& service = *st.service;
  const std::span<const Edge> stream(st.traffic.stream);
  const std::string dir = cfg.work_dir + "/window-stitch";
  std::filesystem::remove_all(dir);

  Trace::Scope workload(&trace, "bench", "window-stitch");
  std::vector<double> stitch_ms;
  {
    Trace::Scope phase(&trace, "bench", "ingest");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      const auto chunk = stream.subspan(i, std::min(kChunk, stream.size() - i));
      {
        Trace::Scope span(&trace, "service", "SubmitBatch", trace.NewGroup());
        if (!report.Op(service.SubmitBatch(chunk), "SubmitBatch")) return;
      }
      const std::size_t done = i + chunk.size();
      if (done % kStitchEvery == 0) {
        const auto s0 = Clock::now();
        spade::GlobalCommunity g;
        {
          Trace::Scope span(&trace, "service", "StitchNow", trace.NewGroup());
          g = service.StitchNow();
        }
        stitch_ms.push_back(MillisBetween(s0, Clock::now()));
        report.Add("seam_vertices", static_cast<double>(g.seam_vertices));
        report.Add("seam_edges", static_cast<double>(g.seam_edges));
        report.Add("stitched", g.stitched ? 1.0 : 0.0);
        report.Add("seam_truncated", g.seam_truncated ? 1.0 : 0.0);
      }
      if (done % kCheckpointEvery == 0 &&
          !Checkpoint(service, dir, report, trace)) {
        return;
      }
    }
    {
      Trace::Scope span(&trace, "service", "Drain");
      service.Drain();
    }
    report.Add("ingest_s", SecondsBetween(t0, Clock::now()));
    report.Add("ingest_edges", static_cast<double>(stream.size()));
  }
  report.Extend("stitch_ms", stitch_ms);
  {
    // The last checkpoint covers every edge, so the restored fleet can be
    // compared with the live one.
    Trace::Scope phase(&trace, "bench", "final-checkpoint");
    if (!Checkpoint(service, dir, report, trace)) return;
  }

  // Gate 1: the restored fleet equals the live one, shard by shard.
  const std::vector<ShardImage> live = ShardImages(service);
  for (int r = 0; r < kRestores; ++r) {
    Trace::Scope phase(&trace, "bench", "restore");
    std::unique_ptr<Service> fresh = MakeWindowedFleet(report);
    if (!fresh) return;
    Service::RestoreInfo info;
    const auto t0 = Clock::now();
    spade::Status s;
    {
      Trace::Scope span(&trace, "storage", "RestoreState", trace.NewGroup());
      s = fresh->RestoreState(dir, &info);
    }
    report.Add("restore_ms", MillisBetween(t0, Clock::now()));
    report.Add("replayed_edges",
               static_cast<double>(info.delta_edges_replayed));
    if (!report.Op(s, "RestoreState")) return;
    const std::vector<ShardImage> back = ShardImages(*fresh);
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::string why;
      report.Check(back[i].edges == live[i].edges &&
                       fresh->ShardWindow(i) == service.ShardWindow(i) &&
                       SameCommunity(back[i].community, live[i].community,
                                     0.0, &why),
                   "window-stitch restored shard " + std::to_string(i) +
                       " == live: " + why);
    }
  }
  std::filesystem::remove_all(dir);

  RecordFleetStats(service, report);
  report.Set("late_edges", static_cast<double>(st.traffic.late_edges));

  // Gate 2: each shard's graph holds exactly its window log.
  spade::DynamicGraph merged(TrafficConfig().num_vertices());
  for (std::size_t s = 0; s < live.size(); ++s) {
    std::vector<EdgeKey> window;
    for (const Edge& e : service.ShardWindow(s)) {
      window.emplace_back(e.src, e.dst, e.weight);
    }
    std::sort(window.begin(), window.end());
    report.Check(live[s].edges == window,
                 "window-stitch shard " + std::to_string(s) + " graph (" +
                     std::to_string(live[s].edges.size()) +
                     " edges) == window log (" +
                     std::to_string(window.size()) + ")");
    for (const auto& [u, v, w] : live[s].edges) (void)merged.AddEdge(u, v, w);
  }

  // Gate 3: a stitched density never overstates the merged static peel.
  const spade::GlobalCommunity stitched = service.StitchNow();
  const double merged_density = spade::PeelStatic(merged).BestDensity();
  report.Check(stitched.density <= merged_density * (1 + 1e-9),
               "window-stitch stitched density " +
                   std::to_string(stitched.density) + " <= merged static " +
                   std::to_string(merged_density));
}

}  // namespace

void RunWindowStitch(const RunConfig& cfg, Report& report, Trace& trace) {
  RunRounds<StitchState>(
      cfg, report, trace, [&] { return Setup(cfg, report); },
      [&](StitchState& st) {
        Round(st, cfg, report, trace);
      });
}

}  // namespace perfbench
