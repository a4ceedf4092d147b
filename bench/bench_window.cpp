// Sliding-window expiry at service scale (ISSUE 8 acceptance).
//
// Two claims the JSON pins:
//
//   1. Steady-state memory is O(window), not O(history): a windowed
//      sharded service streaming k windows' worth of traffic holds a flat
//      resident edge set (shard graphs + window logs + boundary edges)
//      while cumulative history grows k-fold. The gate is resident at 4x
//      history <= 1.5x resident at 1x history.
//
//   2. Retire keeps up with ingest: expiring E edges through the retire
//      pass (window-log pop + recorded-weight deletion + detection) runs
//      within 2x of inserting those same E edges through the full
//      admission path (ratio >= 0.5).
//
// Emits BENCH_window.json (path = argv[1], default ./). The repo commits
// a reference copy; CI uploads a fresh one per run.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_meta.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"

namespace spade::bench {

constexpr std::size_t kShards = 4;
constexpr std::size_t kVertices = 16384;
constexpr Timestamp kSpan = 1'000'000;  // 1 s of event time in us
constexpr std::size_t kEdgesPerWindow = 50'000;
constexpr std::size_t kWindows = 4;
constexpr std::size_t kThroughputEdges = 100'000;

namespace {

Edge RandomEdge(Rng* rng, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{s, d, 1.0 + 9.0 * rng->NextDouble(), 0};
}

std::unique_ptr<ShardedDetectionService> BuildService(Timestamp stride) {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(kVertices, {});
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.window.span = kSpan;
  options.window.stride = stride;
  return std::make_unique<ShardedDetectionService>(std::move(shards),
                                                   nullptr, options);
}

std::size_t ResidentEdges(const ShardedDetectionService& service,
                          std::size_t* graph_edges, std::size_t* window_edges,
                          std::size_t* boundary_edges) {
  *graph_edges = 0;
  *window_edges = 0;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    service.InspectShard(s, [&](const Spade& spade) {
      *graph_edges += spade.graph().NumEdges();
    });
    *window_edges += service.ShardWindow(s).size();
  }
  *boundary_edges =
      static_cast<std::size_t>(service.GetStats().boundary_edges);
  return *graph_edges + *window_edges + *boundary_edges;
}

struct MemoryRow {
  std::size_t window_multiple = 0;
  std::size_t history_edges = 0;
  std::size_t resident_edges = 0;
  std::size_t graph_edges = 0;
  std::size_t window_edges = 0;
  std::size_t boundary_edges = 0;
  std::uint64_t retired_edges = 0;
};

/// Streams kWindows windows' worth of timestamped traffic, expiring to the
/// moving horizon, and samples the resident edge set after each window.
std::vector<MemoryRow> RunMemorySweep() {
  auto service = BuildService(/*stride=*/0);  // default: span / 8
  Rng rng(42);
  std::vector<MemoryRow> rows;
  Timestamp now = 0;
  const Timestamp step = kSpan / kEdgesPerWindow;
  std::vector<Edge> chunk;
  for (std::size_t w = 1; w <= kWindows; ++w) {
    for (std::size_t submitted = 0; submitted < kEdgesPerWindow;) {
      chunk.clear();
      for (std::size_t i = 0; i < 2048 && submitted < kEdgesPerWindow;
           ++i, ++submitted) {
        Edge e = RandomEdge(&rng, kVertices);
        now += step;
        e.ts = now;
        chunk.push_back(e);
      }
      const Status st = service->SubmitBatch(chunk);
      if (!st.ok()) {
        std::fprintf(stderr, "submit failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    service->Drain();
    // Catch the expiry up to the final horizon (covers the tail the stride
    // trigger has not reached yet).
    Status st = service->RetireOlderThan(now - kSpan);
    if (!st.ok()) {
      std::fprintf(stderr, "retire failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    service->Drain();
    MemoryRow row;
    row.window_multiple = w;
    row.history_edges = w * kEdgesPerWindow;
    row.resident_edges = ResidentEdges(*service, &row.graph_edges,
                                       &row.window_edges,
                                       &row.boundary_edges);
    row.retired_edges = service->EdgesRetired();
    rows.push_back(row);
    std::fprintf(stderr,
                 "window %zux: history=%zu resident=%zu (graph=%zu "
                 "window=%zu boundary=%zu) retired=%llu\n",
                 row.window_multiple, row.history_edges, row.resident_edges,
                 row.graph_edges, row.window_edges, row.boundary_edges,
                 static_cast<unsigned long long>(row.retired_edges));
  }
  return rows;
}

struct ThroughputReport {
  std::size_t edges = 0;
  double ingest_ms = 0.0;
  double retire_ms = 0.0;
  std::uint64_t retired = 0;
};

/// Inserts kThroughputEdges inside one window span, then expires them all
/// with a single horizon pass; both legs are drain-bounded wall clock.
ThroughputReport RunThroughput() {
  // Stride = span keeps the automatic trigger quiet (every timestamp stays
  // inside the first window), so each leg measures exactly one thing.
  auto service = BuildService(/*stride=*/kSpan);
  Rng rng(77);
  ThroughputReport report;
  report.edges = kThroughputEdges;
  std::vector<Edge> traffic;
  traffic.reserve(kThroughputEdges);
  const Timestamp step = kSpan / kThroughputEdges;
  for (std::size_t i = 0; i < kThroughputEdges; ++i) {
    Edge e = RandomEdge(&rng, kVertices);
    e.ts = static_cast<Timestamp>(i + 1) * step;
    traffic.push_back(e);
  }
  {
    Timer timer;
    const Status st = service->SubmitBatch(traffic);
    service->Drain();
    report.ingest_ms = timer.ElapsedMicros() * 1e-3;
    if (!st.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  {
    Timer timer;
    const Status st = service->RetireOlderThan(kSpan + 1);
    service->Drain();
    report.retire_ms = timer.ElapsedMicros() * 1e-3;
    if (!st.ok()) {
      std::fprintf(stderr, "retire failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  report.retired = service->EdgesRetired();
  std::fprintf(stderr, "throughput: ingest %.1f ms, retire %.1f ms (%llu "
               "edges retired)\n",
               report.ingest_ms, report.retire_ms,
               static_cast<unsigned long long>(report.retired));
  return report;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  const auto rows = spade::bench::RunMemorySweep();
  const auto tp = spade::bench::RunThroughput();

  const double ingest_meps =
      tp.ingest_ms > 0.0 ? tp.edges / tp.ingest_ms * 1e-3 : 0.0;
  const double retire_meps =
      tp.retire_ms > 0.0 ? tp.edges / tp.retire_ms * 1e-3 : 0.0;

  const std::string path = out_dir + "/BENCH_window.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfg[192];
    std::snprintf(cfg, sizeof(cfg),
                  "{\"shards\": %zu, \"vertices\": %zu, \"span_us\": %lld, "
                  "\"edges_per_window\": %zu, \"windows\": %zu}",
                  spade::bench::kShards, spade::bench::kVertices,
                  static_cast<long long>(spade::bench::kSpan),
                  spade::bench::kEdgesPerWindow, spade::bench::kWindows);
    spade::bench::WriteBenchMeta(f, cfg);
  }
  std::fprintf(f, "  \"memory_sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"window_multiple\": %zu, \"history_edges\": %zu, "
                 "\"resident_edges\": %zu, \"graph_edges\": %zu, "
                 "\"window_edges\": %zu, \"boundary_edges\": %zu, "
                 "\"retired_edges\": %llu}%s\n",
                 r.window_multiple, r.history_edges, r.resident_edges,
                 r.graph_edges, r.window_edges, r.boundary_edges,
                 static_cast<unsigned long long>(r.retired_edges),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const double growth =
      rows.front().resident_edges > 0
          ? static_cast<double>(rows.back().resident_edges) /
                static_cast<double>(rows.front().resident_edges)
          : 0.0;
  std::fprintf(f,
               "  \"resident_growth_at_%zux_history\": %.3f,\n",
               spade::bench::kWindows, growth);
  std::fprintf(f,
               "  \"throughput\": {\"edges\": %zu, \"ingest_ms\": %.1f, "
               "\"ingest_meps\": %.3f, \"retire_ms\": %.1f, "
               "\"retire_meps\": %.3f, \"retired_edges\": %llu, "
               "\"retire_to_ingest_ratio\": %.3f}\n",
               tp.edges, tp.ingest_ms, ingest_meps, tp.retire_ms,
               retire_meps, static_cast<unsigned long long>(tp.retired),
               tp.ingest_ms > 0.0 && tp.retire_ms > 0.0
                   ? ingest_meps > 0.0 ? retire_meps / ingest_meps : 0.0
                   : 0.0);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
