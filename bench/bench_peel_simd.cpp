// Scalar-vs-dispatched sweep over the peel hot path (DESIGN.md §8). The
// merge's bulk scan calls simd::FirstKeyAbove; each entry replays one
// workload under the scalar target and under the dispatched one (SSE2 on
// x86-64), through the override seam:
//
//  1. detect_after_edge — end to end: single-edge insert through the
//     incremental engine plus one blocked Detect. CI gates regressions on
//     this entry.
//  2. detect_after_heavy_edge — the same state and endpoints with edges of
//     weight 20-60, which rewrite ~14k slots and dirty ~30 blocks per
//     update; only the Detect after each insert is timed. The entry reports
//     hull rebuilds per Detect and, beside the rewritten span, the slots the
//     merge classified one at a time (host-independent: CI gates both).
//  3. retire_batch — a windowed 16Ki-vertex state retires its oldest 64
//     edges per DeleteBatch, as a retire pass does, and admits 64 new ones.
//     Only the DeleteBatch is timed. Its runs lead, and the entry reports
//     rewritten and probed slots per retire (CI gates probed <= span / 8).
//  4. insert_into_isolated_head — single edges between vertices of a 16Ki
//     isolated head on a 64Ki-vertex state, each merge reading the isolated
//     slots behind a push whose credit pass is deferred. The entry reports
//     rewritten and probed slots per insert (CI gates probed <= span / 8).
//
// Emits BENCH_peel.json (path = argv[1], default ./): one entry per
// experiment with {name, n, scalar_us, simd_us, speedup, target}, plus any
// counts the experiment reports. scalar_us always comes from the
// always-built scalar reference; simd_us from the dispatched target (equal
// where the build compiles no vector target).

#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_meta.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/incremental_engine.h"
#include "peel/peel_state.h"
#include "peel/static_peeler.h"

namespace spade::bench {
namespace {

struct Entry {
  std::string name;
  std::size_t n = 0;
  double scalar_us = 0.0;
  double simd_us = 0.0;
  std::string target;
  std::string note;
  // Host-independent counts, written after the timing fields.
  std::vector<std::pair<std::string, double>> counts;
  double speedup() const { return scalar_us / simd_us; }
};

constexpr std::size_t kDetectN = std::size_t{1} << 16;
constexpr std::size_t kUpdates = 256;

/// The 64Ki-vertex Zipf graph both detect entries update, and its peel.
struct ZipfBase {
  DynamicGraph graph;
  PeelState state;
};

ZipfBase BuildZipfBase() {
  Rng graph_rng(17);
  DynamicGraph g0(kDetectN);
  for (std::size_t i = 0; i < 4 * kDetectN; ++i) {
    auto s = static_cast<VertexId>(graph_rng.NextZipf(kDetectN, 0.9));
    auto d = static_cast<VertexId>(graph_rng.NextZipf(kDetectN, 0.9));
    while (d == s) {
      d = static_cast<VertexId>(graph_rng.NextZipf(kDetectN, 0.9));
    }
    (void)g0.AddEdge(s, d, 1.0 + 9.0 * graph_rng.NextDouble());
  }
  PeelState s0 = PeelStatic(g0);
  return {std::move(g0), std::move(s0)};
}

/// kUpdates edges between Zipf endpoints with weights in [lo, lo + span).
/// Both detect entries draw the same endpoints.
std::vector<Edge> ZipfStream(double lo, double span) {
  Rng rng(19);
  std::vector<Edge> stream;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    Edge e;
    e.src = static_cast<VertexId>(rng.NextZipf(kDetectN, 0.9));
    e.dst = static_cast<VertexId>(rng.NextZipf(kDetectN, 0.9));
    while (e.dst == e.src) {
      e.dst = static_cast<VertexId>(rng.NextZipf(kDetectN, 0.9));
    }
    e.weight = lo + span * rng.NextDouble();
    stream.push_back(e);
  }
  return stream;
}

/// Best-of-kReps seconds of `replay(target)` per target. The scalar and
/// vector passes are interleaved rep by rep so slow host-wide drift
/// (frequency, noisy co-tenants on a 1-core runner) hits both targets alike
/// instead of whichever was measured second.
template <typename Replay>
std::pair<double, double> BestOfInterleaved(Replay&& replay,
                                            const simd::SimdTarget& scalar,
                                            const simd::SimdTarget& vec) {
  double best_scalar_s = 0.0, best_vec_s = 0.0;
  constexpr int kReps = 7;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double s = replay(scalar);
    const double v = replay(vec);
    if (rep == 0) continue;  // warmup
    if (best_scalar_s == 0.0 || s < best_scalar_s) best_scalar_s = s;
    if (best_vec_s == 0.0 || v < best_vec_s) best_vec_s = v;
  }
  return {best_scalar_s, best_vec_s};
}

/// End to end: one single-edge insert through the incremental engine plus
/// one blocked Detect, per dispatch target. Mirrors bench_incremental's
/// detect_after_edge workload shape so the two JSONs stay comparable.
Entry BenchDetectAfterEdge(const ZipfBase& base,
                           const simd::SimdTarget& scalar,
                           const simd::SimdTarget& vec) {
  const std::vector<Edge> stream = ZipfStream(0.01, 0.04);
  // One timed replay under `t`, seconds.
  const auto replay = [&](const simd::SimdTarget& t) {
    simd::SetSimdTargetForTesting(&t);
    DynamicGraph g = base.graph;
    PeelState state = base.state;
    IncrementalEngine engine;
    volatile double guard = 0.0;
    Timer timer;
    for (const Edge& e : stream) {
      (void)engine.InsertEdge(&g, &state, e, nullptr);
      guard = state.BestDensity();
    }
    const double elapsed = timer.ElapsedSeconds();
    (void)guard;
    simd::SetSimdTargetForTesting(nullptr);
    return elapsed;
  };
  const auto [scalar_s, vec_s] = BestOfInterleaved(replay, scalar, vec);
  Entry e;
  e.name = "detect_after_edge";
  e.n = kDetectN;
  e.note = "single-edge insert + blocked Detect, us per update";
  e.scalar_us = scalar_s / static_cast<double>(kUpdates) * 1e6;
  e.simd_us = vec_s / static_cast<double>(kUpdates) * 1e6;
  e.target = vec.name;
  return e;
}

/// Heavy edges rewrite a long span of the sequence, so most blocks a Detect
/// walks are dirty: this times the Detect after each insert alone, and
/// counts the hull rebuilds the walk's bound could not prune and the slots
/// the merge's bulk scan could not skip.
Entry BenchDetectAfterHeavyEdge(const ZipfBase& base,
                                const simd::SimdTarget& scalar,
                                const simd::SimdTarget& vec) {
  const std::vector<Edge> stream = ZipfStream(20.0, 40.0);
  std::uint64_t rebuilds = 0;
  std::size_t rewritten = 0;
  std::size_t probed = 0;
  // Seconds spent in the Detects of one replay under `t`.
  const auto replay = [&](const simd::SimdTarget& t) {
    simd::SetSimdTargetForTesting(&t);
    DynamicGraph g = base.graph;
    PeelState state = base.state;
    IncrementalEngine engine;
    ReorderStats stats;
    volatile double guard = state.BestDensity();  // first walk, untimed
    const std::uint64_t rebuilds_before = state.HullRebuilds();
    double detect_s = 0.0;
    for (const Edge& e : stream) {
      (void)engine.InsertEdge(&g, &state, e, &stats);
      Timer timer;
      guard = state.BestDensity();
      detect_s += timer.ElapsedSeconds();
    }
    (void)guard;
    rebuilds = state.HullRebuilds() - rebuilds_before;
    rewritten = stats.rewritten_span;
    probed = stats.probed_slots;
    simd::SetSimdTargetForTesting(nullptr);
    return detect_s;
  };
  const auto [scalar_s, vec_s] = BestOfInterleaved(replay, scalar, vec);
  Entry e;
  e.name = "detect_after_heavy_edge";
  e.n = kDetectN;
  e.note = "weight 20-60 single-edge insert, then blocked Detect alone, "
           "us per Detect";
  e.scalar_us = scalar_s / static_cast<double>(kUpdates) * 1e6;
  e.simd_us = vec_s / static_cast<double>(kUpdates) * 1e6;
  e.target = vec.name;
  e.counts = {{"hull_rebuilds_per_detect",
               static_cast<double>(rebuilds) / kUpdates},
              {"rewritten_span_per_update",
               static_cast<double>(rewritten) / kUpdates},
              {"probed_slots_per_update",
               static_cast<double>(probed) / kUpdates}};
  return e;
}

constexpr std::size_t kWindowN = std::size_t{1} << 14;
constexpr std::size_t kWindowEdges = 4096;
constexpr std::size_t kRetireBatch = 64;
constexpr std::size_t kRetires = 64;

/// A sliding window of uniform random edges (weights 1-4) over 16Ki
/// vertices: about 60% of the vertices sit isolated at the head of the
/// sequence. Each step retires the window's oldest kRetireBatch edges in one
/// DeleteBatch, as a retire pass does, then admits as many new ones in one
/// InsertBatch; only the DeleteBatch is timed and counted.
Entry BenchRetireBatch(const simd::SimdTarget& scalar,
                       const simd::SimdTarget& vec) {
  Rng rng(23);
  const auto random_edge = [&] {
    Edge e;
    e.src = static_cast<VertexId>(rng.NextBounded(kWindowN));
    e.dst = static_cast<VertexId>(rng.NextBounded(kWindowN));
    while (e.dst == e.src) {
      e.dst = static_cast<VertexId>(rng.NextBounded(kWindowN));
    }
    e.weight = static_cast<double>(1 + rng.NextBounded(4));
    return e;
  };
  std::vector<Edge> initial(kWindowEdges);
  for (Edge& e : initial) e = random_edge();
  std::vector<Edge> admitted(kRetires * kRetireBatch);
  for (Edge& e : admitted) e = random_edge();
  DynamicGraph g0(kWindowN);
  for (const Edge& e : initial) (void)g0.AddEdge(e.src, e.dst, e.weight);
  const PeelState s0 = PeelStatic(g0);
  std::size_t rewritten = 0;
  std::size_t probed = 0;
  // Seconds spent in the DeleteBatch calls of one replay under `t`.
  const auto replay = [&](const simd::SimdTarget& t) {
    simd::SetSimdTargetForTesting(&t);
    DynamicGraph g = g0;
    PeelState state = s0;
    IncrementalEngine engine;
    ReorderStats stats;
    std::deque<Edge> window(initial.begin(), initial.end());
    std::vector<Edge> batch;
    double retire_s = 0.0;
    for (std::size_t r = 0; r < kRetires; ++r) {
      batch.assign(window.begin(), window.begin() + kRetireBatch);
      window.erase(window.begin(), window.begin() + kRetireBatch);
      Timer timer;
      (void)engine.DeleteBatch(&g, &state, batch, &stats);
      retire_s += timer.ElapsedSeconds();
      const auto next = admitted.begin() +
                        static_cast<std::ptrdiff_t>(r * kRetireBatch);
      batch.assign(next, next + kRetireBatch);
      (void)engine.InsertBatch(&g, &state, batch, nullptr);
      window.insert(window.end(), batch.begin(), batch.end());
    }
    rewritten = stats.rewritten_span;
    probed = stats.probed_slots;
    simd::SetSimdTargetForTesting(nullptr);
    return retire_s;
  };
  const auto [scalar_s, vec_s] = BestOfInterleaved(replay, scalar, vec);
  Entry e;
  e.name = "retire_batch";
  e.n = kWindowN;
  e.note = "DeleteBatch of a window's oldest 64 edges, us per retire";
  e.scalar_us = scalar_s / static_cast<double>(kRetires) * 1e6;
  e.simd_us = vec_s / static_cast<double>(kRetires) * 1e6;
  e.target = vec.name;
  e.counts = {{"rewritten_span_per_update",
               static_cast<double>(rewritten) / kRetires},
              {"probed_slots_per_update",
               static_cast<double>(probed) / kRetires}};
  return e;
}

constexpr std::size_t kIsolatedHead = std::size_t{1} << 14;

/// The Zipf edges of BuildZipfBase moved onto ids past a 16Ki isolated head
/// (48Ki vertices carry them), then single edges of weight 1-4 between head
/// vertices: the first endpoint's push defers its credit pass while the
/// merge reads the isolated slots after it.
Entry BenchInsertIntoIsolatedHead(const simd::SimdTarget& scalar,
                                  const simd::SimdTarget& vec) {
  constexpr std::size_t kRest = kDetectN - kIsolatedHead;
  Rng rng(29);
  DynamicGraph g0(kDetectN);
  for (std::size_t i = 0; i < 4 * kRest; ++i) {
    auto s = static_cast<VertexId>(kIsolatedHead + rng.NextZipf(kRest, 0.9));
    auto d = static_cast<VertexId>(kIsolatedHead + rng.NextZipf(kRest, 0.9));
    while (d == s) {
      d = static_cast<VertexId>(kIsolatedHead + rng.NextZipf(kRest, 0.9));
    }
    (void)g0.AddEdge(s, d, 1.0 + 9.0 * rng.NextDouble());
  }
  const PeelState s0 = PeelStatic(g0);
  std::vector<Edge> stream(kUpdates);
  for (Edge& e : stream) {
    e.src = static_cast<VertexId>(rng.NextBounded(kIsolatedHead));
    e.dst = static_cast<VertexId>(rng.NextBounded(kIsolatedHead));
    while (e.dst == e.src) {
      e.dst = static_cast<VertexId>(rng.NextBounded(kIsolatedHead));
    }
    e.weight = static_cast<double>(1 + rng.NextBounded(4));
  }
  std::size_t rewritten = 0;
  std::size_t probed = 0;
  // Seconds spent in the inserts of one replay under `t`.
  const auto replay = [&](const simd::SimdTarget& t) {
    simd::SetSimdTargetForTesting(&t);
    DynamicGraph g = g0;
    PeelState state = s0;
    IncrementalEngine engine;
    ReorderStats stats;
    Timer timer;
    for (const Edge& e : stream) {
      (void)engine.InsertEdge(&g, &state, e, &stats);
    }
    const double elapsed = timer.ElapsedSeconds();
    rewritten = stats.rewritten_span;
    probed = stats.probed_slots;
    simd::SetSimdTargetForTesting(nullptr);
    return elapsed;
  };
  const auto [scalar_s, vec_s] = BestOfInterleaved(replay, scalar, vec);
  Entry e;
  e.name = "insert_into_isolated_head";
  e.n = kDetectN;
  e.note = "single-edge insert between isolated head vertices, us per insert";
  e.scalar_us = scalar_s / static_cast<double>(kUpdates) * 1e6;
  e.simd_us = vec_s / static_cast<double>(kUpdates) * 1e6;
  e.target = vec.name;
  e.counts = {{"rewritten_span_per_update",
               static_cast<double>(rewritten) / kUpdates},
              {"probed_slots_per_update",
               static_cast<double>(probed) / kUpdates}};
  return e;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  using namespace spade::bench;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // Scalar first, the dispatched target last.
  const auto targets = spade::simd::CompiledSimdTargets();
  const spade::simd::SimdTarget& scalar = targets.front();
  const spade::simd::SimdTarget& vec = targets.back();

  std::printf("# peel hot-path scalar-vs-SIMD sweep (vector target: %s)\n",
              vec.name);
  std::printf("%-22s %10s %12s %12s %9s  %s\n", "experiment", "n",
              "scalar(us)", "simd(us)", "speedup", "note");

  std::vector<Entry> entries;
  const ZipfBase base = BuildZipfBase();
  entries.push_back(BenchDetectAfterEdge(base, scalar, vec));
  entries.push_back(BenchDetectAfterHeavyEdge(base, scalar, vec));
  entries.push_back(BenchRetireBatch(scalar, vec));
  entries.push_back(BenchInsertIntoIsolatedHead(scalar, vec));

  for (const Entry& e : entries) {
    std::printf("%-22s %10zu %12.4f %12.4f %8.2fx  %s\n", e.name.c_str(),
                e.n, e.scalar_us, e.simd_us, e.speedup(), e.note.c_str());
    for (const auto& [key, value] : e.counts) {
      std::printf("%-22s %s = %.2f\n", "", key.c_str(), value);
    }
  }

  const std::string path = out_dir + "/BENCH_peel.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  WriteBenchMeta(
      f, std::string("{\"active_target\": \"") + vec.name + "\"}");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"n\": %zu, \"scalar_us\": %.4f, "
        "\"simd_us\": %.4f, \"speedup\": %.2f, \"target\": \"%s\", "
        "\"note\": \"%s\"",
        e.name.c_str(), e.n, e.scalar_us, e.simd_us, e.speedup(),
        e.target.c_str(), e.note.c_str());
    for (const auto& [key, value] : e.counts) {
      std::fprintf(f, ", \"%s\": %.4f", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
