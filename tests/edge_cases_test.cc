// Edge-case and stress tests for the incremental engine and peel state:
// boundary positions, extreme weights, duplicate batches, dense cliques,
// star graphs, and accounting invariants.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/incremental_engine.h"
#include "core/spade.h"
#include "metrics/density.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

using testing::ExpectStateEquals;
using testing::RandomEdge;
using testing::RandomGraph;

TEST(EngineEdgeCaseTest, TwoVertexGraph) {
  DynamicGraph g(2);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        engine.InsertEdge(&g, &state, {0, 1, 1.0, 0}, nullptr).ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
  ASSERT_TRUE(engine.DeleteEdge(&g, &state, 0, 1, nullptr, nullptr).ok());
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, EdgeBetweenLastTwoInSequence) {
  // Inserting between the two heaviest (last-peeled) vertices exercises the
  // queue-drain path at k == n.
  DynamicGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 50.0).ok());
  PeelState state = PeelStatic(g);
  const VertexId last = state.VertexAt(4);
  const VertexId second_last = state.VertexAt(3);
  IncrementalEngine engine;
  ASSERT_TRUE(engine
                  .InsertEdge(&g, &state, {second_last, last, 7.0, 0}, nullptr)
                  .ok());
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, EdgeTouchingSequenceHead) {
  DynamicGraph g(5);
  ASSERT_TRUE(g.AddEdge(2, 3, 10.0).ok());
  PeelState state = PeelStatic(g);
  const VertexId head = state.VertexAt(0);
  const VertexId other = head == 0 ? 1 : 0;
  IncrementalEngine engine;
  ASSERT_TRUE(
      engine.InsertEdge(&g, &state, {head, other, 2.0, 0}, nullptr)
          .ok());
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, HugeWeightDisplacesAcrossWholeSequence) {
  Rng rng(11);
  DynamicGraph g = RandomGraph(&rng, 40, 120, 4, 0);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  // Weight larger than the entire graph's mass: both endpoints must move to
  // the very end of the sequence.
  Edge e = RandomEdge(&rng, 40);
  e.weight = 1e6;
  ReorderStats stats;
  ASSERT_TRUE(engine.InsertEdge(&g, &state, e, &stats).ok());
  ExpectStateEquals(PeelStatic(g), state);
  EXPECT_EQ(state.VertexAt(39) == e.src || state.VertexAt(39) == e.dst, true);
  EXPECT_EQ(state.VertexAt(38) == e.src || state.VertexAt(38) == e.dst, true);
}

TEST(EngineEdgeCaseTest, TinyWeightBarelyMoves) {
  Rng rng(12);
  DynamicGraph g1 = RandomGraph(&rng, 60, 240, 5, 0);
  // Clone for the heavy-insertion comparison.
  DynamicGraph g2(60);
  for (std::size_t u = 0; u < 60; ++u) {
    for (const auto& e : g1.OutNeighbors(static_cast<VertexId>(u))) {
      ASSERT_TRUE(
          g2.AddEdge(static_cast<VertexId>(u), e.vertex, e.weight).ok());
    }
  }
  PeelState s1 = PeelStatic(g1);
  PeelState s2 = PeelStatic(g2);
  IncrementalEngine e1, e2;
  Edge tiny = RandomEdge(&rng, 60);
  tiny.weight = 0.0009765625;  // 2^-10: exactly representable
  Edge heavy = tiny;
  heavy.weight = 1e6;
  ReorderStats tiny_stats, heavy_stats;
  ASSERT_TRUE(e1.InsertEdge(&g1, &s1, tiny, &tiny_stats).ok());
  ASSERT_TRUE(e2.InsertEdge(&g2, &s2, heavy, &heavy_stats).ok());
  ExpectStateEquals(PeelStatic(g1), s1);
  // A near-zero bump displaces its endpoints (and thus rewrites) no more
  // than a graph-dominating one.
  EXPECT_LE(tiny_stats.rewritten_span, heavy_stats.rewritten_span);
  EXPECT_LT(tiny_stats.affected_vertices, 60u);
}

TEST(EngineEdgeCaseTest, BatchOfIdenticalEdges) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(2, 3, 3.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  std::vector<Edge> batch(10, Edge{0, 1, 2.0, 0});
  ASSERT_TRUE(engine.InsertBatch(&g, &state, batch, nullptr).ok());
  EXPECT_EQ(g.NumEdges(), 11u);
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, BatchMixingNewAndExistingVertices) {
  DynamicGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 5.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  std::vector<Edge> batch = {
      {0, 2, 1.0, 0}, {7, 0, 2.0, 0}, {7, 8, 3.0, 0}, {2, 1, 4.0, 0}};
  ASSERT_TRUE(engine.InsertBatch(&g, &state, batch, nullptr).ok());
  EXPECT_EQ(g.NumVertices(), 9u);
  EXPECT_EQ(state.size(), 9u);
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, CliqueStaysCanonicalUnderChurn) {
  // Complete graph: every vertex ties; id order must hold throughout.
  const std::size_t n = 12;
  DynamicGraph g(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      ASSERT_TRUE(g.AddEdge(i, j, 2.0).ok());
    }
  }
  PeelState state = PeelStatic(g);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(state.VertexAt(i), i);  // all-tie => pure id order
  }
  IncrementalEngine engine;
  ASSERT_TRUE(
      engine.InsertEdge(&g, &state, {3, 9, 2.0, 0}, nullptr).ok());
  ExpectStateEquals(PeelStatic(g), state);
  ASSERT_TRUE(engine.DeleteEdge(&g, &state, 3, 9, nullptr, nullptr).ok());
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(EngineEdgeCaseTest, StarGraphHubUpdates) {
  // Star: hub 0, leaves 1..n-1. Hub peels last; leaf insertions displace it
  // no further, leaf deletions pull it back.
  const std::size_t n = 30;
  DynamicGraph g(n);
  for (VertexId leaf = 1; leaf < n; ++leaf) {
    ASSERT_TRUE(g.AddEdge(0, leaf, 1.0).ok());
  }
  PeelState state = PeelStatic(g);
  // Leaves peel in id order until the hub ties with the final leaf; the
  // canonical tie-break then peels the hub (id 0) before leaf n-1.
  EXPECT_EQ(state.VertexAt(n - 2), 0u);
  EXPECT_EQ(state.VertexAt(n - 1), n - 1);
  IncrementalEngine engine;
  ASSERT_TRUE(
      engine.InsertEdge(&g, &state, {0, 5, 1.0, 0}, nullptr).ok());
  ExpectStateEquals(PeelStatic(g), state);
  for (VertexId leaf = 1; leaf < 20; ++leaf) {
    ASSERT_TRUE(engine.DeleteEdge(&g, &state, 0, leaf, nullptr, nullptr).ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
}

TEST(EngineEdgeCaseTest, DeleteDownToEmptyGraph) {
  DynamicGraph g(4);
  std::vector<Edge> edges = {
      {0, 1, 2.0, 0}, {1, 2, 3.0, 0}, {2, 3, 4.0, 0}, {3, 0, 5.0, 0}};
  for (const Edge& e : edges) {
    ASSERT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
  }
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  for (const Edge& e : edges) {
    ASSERT_TRUE(
        engine.DeleteEdge(&g, &state, e.src, e.dst, nullptr, &e.weight).ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(state.BestDensity(), 0.0);
}

TEST(EngineEdgeCaseTest, VertexPriorsInteractWithReorder) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    DynamicGraph g = RandomGraph(&rng, 20, 40, 4, 6);  // priors up to 6
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    for (int i = 0; i < 10; ++i) {
      // Mix known and new endpoints; a new endpoint joins at the prior its
      // caller set on the graph.
      Edge e = RandomEdge(&rng, 24);
      const std::size_t known = g.NumVertices();
      for (VertexId v : {e.src, e.dst}) {
        if (v < known) continue;
        g.EnsureVertices(v + 1);
        g.SetVertexWeight(v, static_cast<double>(v % 4));
      }
      ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
      ExpectStateEquals(PeelStatic(g), state);
    }
  }
}

TEST(EngineEdgeCaseTest, StatsAccumulateMonotonically) {
  Rng rng(14);
  DynamicGraph g = RandomGraph(&rng, 30, 90, 4, 0);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  ReorderStats stats;
  std::size_t prev_edges = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        engine.InsertEdge(&g, &state, RandomEdge(&rng, 30), &stats)
            .ok());
    EXPECT_GE(stats.touched_edges, prev_edges);
    prev_edges = stats.touched_edges;
  }
  ReorderStats other;
  other.affected_vertices = 5;
  const std::size_t before = stats.affected_vertices;
  stats.Accumulate(other);
  EXPECT_EQ(stats.affected_vertices, before + 5);
  stats.Reset();
  EXPECT_EQ(stats.affected_vertices, 0u);
}

// §2.1's identity on a maintained state: f(S_k) = sum of delta over
// positions k and later, for every k, with S_k the vertices from position
// k on. Continuous DW amounts (1 + 9u) land on the weight grid, so every
// sum is exact and the two sides must agree bit for bit after every insert
// and retire.
TEST(PeelStateEdgeCaseTest, SuffixDeltasTelescopeToSubgraphWeight) {
  constexpr std::size_t kN = 24;
  Rng rng(15);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(kN, {}).ok());
  std::vector<Edge> live;
  for (int step = 0; step < 200; ++step) {
    if (live.empty() || rng.NextBounded(3) != 0) {
      Edge e = RandomEdge(&rng, kN);
      e.weight = 1.0 + 9.0 * rng.NextDouble();
      ASSERT_TRUE(spade.ApplyEdge(e, &e.weight).ok());
      live.push_back(e);
    } else {
      const std::size_t pick = rng.NextBounded(live.size());
      ASSERT_TRUE(
          spade.RetireEdges(std::span<const Edge>(&live[pick], 1)).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    const PeelState& state = spade.peel_state();
    const auto seq = state.seq();
    double suffix = 0.0;
    for (std::size_t k = state.size() + 1; k-- > 0;) {
      if (k < state.size()) suffix += state.DeltaAt(k);
      const std::vector<VertexId> members(
          seq.begin() + static_cast<std::ptrdiff_t>(k), seq.end());
      EXPECT_EQ(SubgraphWeight(spade.graph(), members), suffix)
          << "step " << step << ", k " << k;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PeelStateEdgeCaseTest, BumpDeltaInvalidatesCache) {
  PeelState state(2);
  state.Append(0, 1.0);
  state.Append(1, 5.0);
  EXPECT_DOUBLE_EQ(state.BestDensity(), 5.0);  // suffix {1}
  state.BumpDelta(0, 100.0);
  // Cache must refresh: whole set now has mean 53.
  EXPECT_DOUBLE_EQ(state.BestDensity(), 53.0);
  EXPECT_EQ(state.BestStart(), 0u);
}

}  // namespace
}  // namespace spade
