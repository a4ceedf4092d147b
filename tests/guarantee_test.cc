// Cross-module property suite: the paper's formal guarantees, checked over
// randomized workloads and parameterized across the three built-in
// semantics (DG, DW, FD).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "core/spade.h"
#include "metrics/density.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

class SemanticsTest : public ::testing::TestWithParam<std::string> {
 protected:
  FraudSemantics Sem() const { return MakeSemanticsByName(GetParam()); }
};

std::vector<Edge> RandomLog(Rng* rng, std::size_t n, std::size_t m) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    Edge e = testing::RandomEdge(rng, n);
    e.ts = static_cast<Timestamp>(i);
    edges.push_back(e);
  }
  return edges;
}

// The incremental facade tracks the static peeler for every semantics, bit
// for bit: FD's irrational weights are rounded onto the grid at admission,
// so every sum is exact and ties split the same way on both paths.
TEST_P(SemanticsTest, IncrementalTracksStatic) {
  Rng rng(1000 + GetParam().size());
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(20);
    Spade spade;
    spade.SetSemantics(Sem());
    ASSERT_TRUE(spade.BuildGraph(n, RandomLog(&rng, n, 3 * n)).ok());
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(spade.InsertEdge(testing::RandomEdge(&rng, n)).ok());
      testing::ValidateCanonicalSequence(spade.graph(), spade.peel_state());
      testing::ExpectStateEquals(PeelStatic(spade.graph()),
                                 spade.peel_state());
    }
  }
}

// Lemma 2.1 (via Algorithm 1's guarantee): the maintained community is at
// least half as dense as the brute-force optimum, at every point of an
// evolving stream.
TEST_P(SemanticsTest, HalfApproximationHoldsUnderUpdates) {
  Rng rng(2000 + GetParam().size());
  const std::size_t n = 9;
  Spade spade;
  spade.SetSemantics(Sem());
  ASSERT_TRUE(spade.BuildGraph(n, RandomLog(&rng, n, 12)).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(spade.InsertEdge(testing::RandomEdge(&rng, n)).ok());
    const Community c = spade.Detect();
    const double optimum =
        SubgraphDensity(spade.graph(), BruteForceDensest(spade.graph()));
    EXPECT_GE(c.density + 1e-9, 0.5 * optimum) << "after insertion " << i;
  }
}

// Lemma 4.1: positions before the earlier endpoint of an inserted edge are
// untouched.
TEST_P(SemanticsTest, PrefixStability) {
  Rng rng(3000 + GetParam().size());
  const std::size_t n = 30;
  Spade spade;
  spade.SetSemantics(Sem());
  ASSERT_TRUE(spade.BuildGraph(n, RandomLog(&rng, n, 90)).ok());
  for (int i = 0; i < 10; ++i) {
    const std::vector<VertexId> before(spade.peel_state().seq().begin(),
                                       spade.peel_state().seq().end());
    const Edge e = testing::RandomEdge(&rng, n);
    const std::size_t cut = std::min(spade.peel_state().PositionOf(e.src),
                                     spade.peel_state().PositionOf(e.dst));
    ASSERT_TRUE(spade.InsertEdge(e).ok());
    for (std::size_t p = 0; p < cut; ++p) {
      ASSERT_EQ(before[p], spade.peel_state().VertexAt(p));
    }
  }
}

// Property 3.1: density metrics are arithmetic — f(S)/|S| with nonnegative
// vertex weights and positive edge weights. Verify the built-in semantics
// produce weights in the allowed ranges on random graphs.
TEST_P(SemanticsTest, WeightsSatisfyProperty31) {
  Rng rng(4000 + GetParam().size());
  const std::size_t n = 25;
  Spade spade;
  spade.SetSemantics(Sem());
  ASSERT_TRUE(spade.BuildGraph(n, RandomLog(&rng, n, 75)).ok());
  const auto& g = spade.graph();
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_GE(g.VertexWeight(static_cast<VertexId>(v)), 0.0);
    for (const auto& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      EXPECT_GT(e.weight, 0.0);
    }
  }
}

// Axiom 1 (vertex suspiciousness): raising a vertex weight raises g(S) for
// any S containing it.
TEST(AxiomTest, VertexSuspiciousness) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  const std::vector<VertexId> s = {0, 1};
  const double before = SubgraphDensity(g, s);
  g.SetVertexWeight(0, 5.0);
  EXPECT_GT(SubgraphDensity(g, s), before);
}

// Axiom 2 (edge suspiciousness): adding an internal edge raises g(S).
TEST(AxiomTest, EdgeSuspiciousness) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  const std::vector<VertexId> s = {0, 1};
  const double before = SubgraphDensity(g, s);
  ASSERT_TRUE(g.AddEdge(1, 0, 1.0).ok());
  EXPECT_GT(SubgraphDensity(g, s), before);
}

// Axiom 3 (concentration): equal total weight on fewer vertices is denser.
TEST(AxiomTest, Concentration) {
  DynamicGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 6.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 3.0).ok());
  EXPECT_GT(SubgraphDensity(g, {0, 1}), SubgraphDensity(g, {2, 3, 4}));
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, SemanticsTest,
                         ::testing::Values("DG", "DW", "FD"));

// Long-haul soak: a thousand mixed operations on one Spade instance with
// periodic exact cross-checks. Guards against state corruption that only
// manifests after many reorders.
TEST(SoakTest, ThousandMixedUpdates) {
  Rng rng(31337);
  const std::size_t n = 60;
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(n, RandomLog(&rng, n, 120)).ok());
  std::vector<Edge> live;
  for (int step = 0; step < 1000; ++step) {
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 6) {
      const Edge e = testing::RandomEdge(&rng, n);
      live.push_back(e);
      ASSERT_TRUE(spade.InsertEdge(e).ok());
    } else if (op < 8 && !live.empty()) {
      const std::size_t pick = rng.NextBounded(live.size());
      const Edge victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(spade.DeleteEdge(victim.src, victim.dst).ok());
    } else {
      std::vector<Edge> batch;
      for (int i = 0; i < 5; ++i) {
        batch.push_back(testing::RandomEdge(&rng, n));
        live.push_back(batch.back());
      }
      ASSERT_TRUE(spade.InsertBatchEdges(batch).ok());
    }
    if (step % 50 == 0) {
      testing::ExpectStateEquals(PeelStatic(spade.graph()),
                                 spade.peel_state());
    }
  }
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

}  // namespace
}  // namespace spade
