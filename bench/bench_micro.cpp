// Micro-benchmarks (google-benchmark): the primitive operations whose
// costs compose the table/figure results — static peeling, single-edge
// incremental insertion, batch insertion, deletion, benign classification
// and heap operations.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/incremental_engine.h"
#include "core/spade.h"
#include "datagen/workload.h"
#include "metrics/semantics.h"
#include "peel/indexed_heap.h"
#include "peel/static_peeler.h"

namespace spade {
namespace {

/// Power-law topology like the transaction datasets; `zipf` false gives a
/// uniform random multigraph — the adversarial case where peeling weights
/// cluster and an insertion displaces its endpoint across a large span.
DynamicGraph MakeGraph(std::size_t n, std::size_t m, std::uint64_t seed,
                       bool zipf = true) {
  Rng rng(seed);
  DynamicGraph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    VertexId s, d;
    if (zipf) {
      s = static_cast<VertexId>(rng.NextZipf(n, 0.9));
      d = static_cast<VertexId>(rng.NextZipf(n, 0.9));
      while (d == s) d = static_cast<VertexId>(rng.NextZipf(n, 0.9));
    } else {
      s = static_cast<VertexId>(rng.NextBounded(n));
      d = static_cast<VertexId>(rng.NextBounded(n));
      while (d == s) d = static_cast<VertexId>(rng.NextBounded(n));
    }
    (void)g.AddEdge(s, d, 1.0 + rng.NextDouble() * 9.0);
  }
  return g;
}

Edge RandomZipfEdge(Rng* rng, std::size_t n) {
  Edge e;
  e.src = static_cast<VertexId>(rng->NextZipf(n, 0.9));
  e.dst = static_cast<VertexId>(rng->NextZipf(n, 0.9));
  while (e.dst == e.src) {
    e.dst = static_cast<VertexId>(rng->NextZipf(n, 0.9));
  }
  e.weight = 1.0 + rng->NextDouble() * 9.0;
  return e;
}

void BM_StaticPeel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DynamicGraph g = MakeGraph(n, 4 * n, 7);
  for (auto _ : state) {
    PeelState peel = PeelStatic(g);
    benchmark::DoNotOptimize(peel.BestDensity());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StaticPeel)->Range(1 << 10, 1 << 16)->Complexity();

void BM_IncrementalInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DynamicGraph g = MakeGraph(n, 4 * n, 11);
  PeelState peel = PeelStatic(g);
  IncrementalEngine engine;
  Rng rng(13);
  for (auto _ : state) {
    const Edge e = RandomZipfEdge(&rng, n);
    const Status s = engine.InsertEdge(&g, &peel, e, nullptr);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_IncrementalInsert)->Range(1 << 10, 1 << 16);

void BM_IncrementalInsertUniformWorstCase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DynamicGraph g = MakeGraph(n, 4 * n, 11, /*zipf=*/false);
  PeelState peel = PeelStatic(g);
  IncrementalEngine engine;
  Rng rng(13);
  for (auto _ : state) {
    Edge e;
    e.src = static_cast<VertexId>(rng.NextBounded(n));
    e.dst = static_cast<VertexId>(rng.NextBounded(n));
    while (e.dst == e.src) {
      e.dst = static_cast<VertexId>(rng.NextBounded(n));
    }
    e.weight = 1.0 + rng.NextDouble() * 9.0;
    const Status s = engine.InsertEdge(&g, &peel, e, nullptr);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_IncrementalInsertUniformWorstCase)->Range(1 << 12, 1 << 14);

void BM_BatchInsert(benchmark::State& state) {
  const std::size_t n = 1 << 14;
  const auto batch = static_cast<std::size_t>(state.range(0));
  DynamicGraph g = MakeGraph(n, 4 * n, 17);
  PeelState peel = PeelStatic(g);
  IncrementalEngine engine;
  Rng rng(19);
  for (auto _ : state) {
    std::vector<Edge> edges(batch);
    for (Edge& e : edges) e = RandomZipfEdge(&rng, n);
    const Status s = engine.InsertBatch(&g, &peel, edges, nullptr);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchInsert)->RangeMultiplier(8)->Range(1, 4096);

void BM_DeleteEdge(benchmark::State& state) {
  const std::size_t n = 1 << 13;
  DynamicGraph g = MakeGraph(n, 4 * n, 23);
  PeelState peel = PeelStatic(g);
  IncrementalEngine engine;
  Rng rng(29);
  for (auto _ : state) {
    // Insert-then-delete keeps the graph size stable across iterations.
    const Edge e = RandomZipfEdge(&rng, n);
    (void)engine.InsertEdge(&g, &peel, e, nullptr);
    const Status s =
        engine.DeleteEdge(&g, &peel, e.src, e.dst, nullptr, &e.weight);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_DeleteEdge);

void BM_Detect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DynamicGraph g = MakeGraph(n, 4 * n, 31);
  PeelState peel = PeelStatic(g);
  for (auto _ : state) {
    peel.InvalidateBest();
    benchmark::DoNotOptimize(peel.BestDensity());
  }
}
BENCHMARK(BM_Detect)->Range(1 << 10, 1 << 18);

void BM_IsBenign(benchmark::State& state) {
  const Workload w = BuildWorkload("Grab1", 0.001, 37);
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  if (!spade.BuildGraph(w.num_vertices, w.initial).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  Rng rng(41);
  for (auto _ : state) {
    Edge e;
    e.src = static_cast<VertexId>(rng.NextBounded(w.num_vertices));
    e.dst = static_cast<VertexId>(rng.NextBounded(w.num_vertices));
    while (e.dst == e.src) {
      e.dst = static_cast<VertexId>(rng.NextBounded(w.num_vertices));
    }
    e.weight = rng.NextDouble() * 10.0;
    benchmark::DoNotOptimize(spade.IsBenign(e));
  }
}
BENCHMARK(BM_IsBenign);

void BM_HeapPushPop(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  IndexedMinHeap heap(n);
  Rng rng(43);
  for (auto _ : state) {
    for (VertexId v = 0; v < 1024; ++v) {
      heap.Push(v, rng.NextDouble());
    }
    for (int i = 0; i < 1024; ++i) {
      benchmark::DoNotOptimize(heap.Pop());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2048);
}
BENCHMARK(BM_HeapPushPop);

}  // namespace
}  // namespace spade

BENCHMARK_MAIN();
