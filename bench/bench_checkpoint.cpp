// Checkpoint-cost sweep: full vs delta SaveState as the graph grows at a
// fixed ingest rate (ISSUE 4 acceptance).
//
// Full checkpointing rewrites every shard's snapshot, so its cost is
// O(graph) — it grows with the age of the deployment even when traffic is
// flat. Delta checkpointing (per-shard applied-history segments + a tiny
// manifest) costs O(edges since the last checkpoint). The sweep holds per-checkpoint traffic constant and scales
// the resident graph: full save time/bytes climb with graph size while
// delta save time/bytes stay flat, so the ratio — the number the JSON is
// really for — grows without bound. The acceptance bar is >= 5x on the
// large-graph / low-traffic configuration; on the largest config here the
// byte ratio alone is in the hundreds.
//
// A second section pins the chain behavior at fixed graph size: per-epoch
// delta cost is flat across a 8-epoch chain, and the chain restores to the
// final epoch (sanity-checking that the cheap saves are actually
// restorable, not just small).
//
// Emits BENCH_checkpoint.json (path = argv[1], default ./). The repo
// commits a reference copy; CI uploads a fresh one per run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "bench/bench_meta.h"
#include "common/timer.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"

namespace spade::bench {

// Outside the anonymous namespace: main() prints them into the JSON, so
// the emitted workload description can never drift from what actually ran.
constexpr std::size_t kShards = 4;
constexpr std::size_t kTrafficEdges = 4000;
constexpr std::size_t kChainVertices = 65536;

namespace {

Edge RandomEdge(Rng* rng, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{s, d, 1.0 + 9.0 * rng->NextDouble(), 0};
}

std::unique_ptr<ShardedDetectionService> BuildService(
    std::size_t num_vertices, const std::vector<Edge>& initial) {
  const Partitioner partitioner = HashOfSourcePartitioner();
  std::vector<std::vector<Edge>> parts(kShards);
  for (const Edge& e : initial) {
    parts[PartitionOf(partitioner, kShards, e)].push_back(e);
  }
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(num_vertices, parts[s]);
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  // The sweep isolates full-vs-delta cost; keep the policy out of the way.
  options.checkpoint.max_chain_length = 1 << 20;
  options.checkpoint.max_delta_base_ratio = 1e18;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

struct SweepRow {
  std::size_t vertices = 0;
  std::size_t initial_edges = 0;
  double full_ms = 0.0;
  std::uint64_t full_bytes = 0;
  double delta_ms = 0.0;
  std::uint64_t delta_bytes = 0;
  std::size_t delta_edges = 0;
};

SweepRow RunConfig(std::size_t num_vertices, std::uint64_t seed,
                   const std::string& dir) {
  SweepRow row;
  row.vertices = num_vertices;
  row.initial_edges = num_vertices * 5;
  Rng rng(seed);
  std::vector<Edge> initial;
  initial.reserve(row.initial_edges);
  for (std::size_t i = 0; i < row.initial_edges; ++i) {
    initial.push_back(RandomEdge(&rng, num_vertices));
  }
  auto service = BuildService(num_vertices, initial);

  // Checkpoint baseline (not measured: the first save in a directory is
  // always full, whatever the mode).
  ShardedDetectionService::SaveInfo info;
  Status st = service->SaveState(dir);
  if (!st.ok()) {
    std::fprintf(stderr, "baseline save failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  // Fixed traffic slice, then the measured delta checkpoint.
  std::vector<Edge> traffic;
  traffic.reserve(kTrafficEdges);
  for (std::size_t i = 0; i < kTrafficEdges; ++i) {
    traffic.push_back(RandomEdge(&rng, num_vertices));
  }
  service->SubmitBatch(traffic);
  service->Drain();
  {
    Timer timer;
    st = service->SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                            &info);
    row.delta_ms = timer.ElapsedMicros() * 1e-3;
  }
  if (!st.ok() || !info.delta) {
    std::fprintf(stderr, "delta save failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  row.delta_bytes = info.bytes_written;
  row.delta_edges = info.delta_edges;

  // The measured full checkpoint of the same detector state (what every
  // checkpoint would cost without the delta path).
  {
    Timer timer;
    st = service->SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                            &info);
    row.full_ms = timer.ElapsedMicros() * 1e-3;
  }
  if (!st.ok() || info.delta) {
    std::fprintf(stderr, "full save failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  row.full_bytes = info.bytes_written;
  return row;
}

struct ChainReport {
  std::size_t epochs = 0;
  double delta_ms_min = 1e18, delta_ms_max = 0.0;
  std::uint64_t delta_bytes_min = ~0ull, delta_bytes_max = 0;
  double restore_ms = 0.0;
  std::uint64_t restored_epoch = 0;
  std::size_t replayed_edges = 0;
  bool restore_ok = false;
};

ChainReport RunChain(std::size_t num_vertices, std::uint64_t seed,
                     const std::string& dir) {
  ChainReport report;
  Rng rng(seed);
  std::vector<Edge> initial;
  for (std::size_t i = 0; i < num_vertices * 5; ++i) {
    initial.push_back(RandomEdge(&rng, num_vertices));
  }
  auto service = BuildService(num_vertices, initial);
  service->SaveState(dir);

  constexpr std::size_t kEpochs = 8;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    std::vector<Edge> traffic;
    for (std::size_t i = 0; i < kTrafficEdges; ++i) {
      traffic.push_back(RandomEdge(&rng, num_vertices));
    }
    service->SubmitBatch(traffic);
    service->Drain();
    ShardedDetectionService::SaveInfo info;
    Timer timer;
    const Status st = service->SaveState(
        dir, ShardedDetectionService::SaveMode::kDelta, &info);
    const double ms = timer.ElapsedMicros() * 1e-3;
    if (!st.ok()) {
      std::fprintf(stderr, "chain save failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    report.delta_ms_min = std::min(report.delta_ms_min, ms);
    report.delta_ms_max = std::max(report.delta_ms_max, ms);
    report.delta_bytes_min = std::min(report.delta_bytes_min,
                                      info.bytes_written);
    report.delta_bytes_max = std::max(report.delta_bytes_max,
                                      info.bytes_written);
  }
  report.epochs = kEpochs;

  auto restored = BuildService(num_vertices, initial);
  ShardedDetectionService::RestoreInfo rinfo;
  Timer timer;
  const Status st = restored->RestoreState(dir, &rinfo);
  report.restore_ms = timer.ElapsedMicros() * 1e-3;
  report.restore_ok = st.ok();
  report.restored_epoch = rinfo.restored_epoch;
  report.replayed_edges = rinfo.delta_edges_replayed;
  return report;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::string snap_dir = out_dir + "/bench_checkpoint_snapshots";

  const std::size_t vertex_sweep[] = {16384, 32768, 65536, 131072};
  std::vector<spade::bench::SweepRow> rows;
  for (const std::size_t v : vertex_sweep) {
    rows.push_back(spade::bench::RunConfig(v, 42 + v, snap_dir));
    std::fprintf(stderr,
                 "vertices=%zu full=%.1fms/%llu B delta=%.1fms/%llu B\n",
                 rows.back().vertices, rows.back().full_ms,
                 static_cast<unsigned long long>(rows.back().full_bytes),
                 rows.back().delta_ms,
                 static_cast<unsigned long long>(rows.back().delta_bytes));
  }
  const spade::bench::ChainReport chain =
      spade::bench::RunChain(spade::bench::kChainVertices, 77, snap_dir);

  const std::string path = out_dir + "/BENCH_checkpoint.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfg[128];
    std::snprintf(cfg, sizeof(cfg),
                  "{\"shards\": %zu, \"chain_vertices\": %zu}",
                  spade::bench::kShards, spade::bench::kChainVertices);
    spade::bench::WriteBenchMeta(f, cfg);
  }
  std::fprintf(f,
               "  \"workload\": {\"shards\": %zu, "
               "\"traffic_edges_per_checkpoint\": %zu, "
               "\"initial_edges_per_vertex\": 5, \"semantics\": \"DW\"},\n",
               spade::bench::kShards, spade::bench::kTrafficEdges);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"vertices\": %zu, \"initial_edges\": %zu, "
        "\"full_save_ms\": %.2f, \"full_save_bytes\": %llu, "
        "\"delta_save_ms\": %.2f, \"delta_save_bytes\": %llu, "
        "\"delta_edges\": %zu, \"time_speedup\": %.1f, "
        "\"bytes_ratio\": %.1f}%s\n",
        r.vertices, r.initial_edges, r.full_ms,
        static_cast<unsigned long long>(r.full_bytes), r.delta_ms,
        static_cast<unsigned long long>(r.delta_bytes), r.delta_edges,
        r.delta_ms > 0.0 ? r.full_ms / r.delta_ms : 0.0,
        r.delta_bytes > 0
            ? static_cast<double>(r.full_bytes) /
                  static_cast<double>(r.delta_bytes)
            : 0.0,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"chain\": {\"vertices\": %zu, \"epochs\": %zu, "
      "\"delta_save_ms_min\": %.2f, \"delta_save_ms_max\": %.2f, "
      "\"delta_save_bytes_min\": %llu, \"delta_save_bytes_max\": %llu, "
      "\"restore_ok\": %s, \"restored_epoch\": %llu, "
      "\"replayed_edges\": %zu, \"restore_ms\": %.1f}\n",
      spade::bench::kChainVertices, chain.epochs, chain.delta_ms_min,
      chain.delta_ms_max,
      static_cast<unsigned long long>(chain.delta_bytes_min),
      static_cast<unsigned long long>(chain.delta_bytes_max),
      chain.restore_ok ? "true" : "false",
      static_cast<unsigned long long>(chain.restored_epoch),
      chain.replayed_edges, chain.restore_ms);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
