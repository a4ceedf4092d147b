// Tests for the static peeling engine (Algorithm 1), PeelState and the
// density reference implementations, including the Lemma 2.1 approximation
// guarantee against brute force.

#include "peel/static_peeler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "metrics/density.h"
#include "peel/indexed_heap.h"
#include "peel/peel_state.h"
#include "tests/test_util.h"

namespace spade {
namespace {

using testing::RandomGraph;
using testing::ValidateCanonicalSequence;

TEST(StaticPeelerTest, EmptyGraph) {
  DynamicGraph g;
  PeelState state = PeelStatic(g);
  EXPECT_EQ(state.size(), 0u);
  EXPECT_TRUE(state.DetectCommunity().members.empty());
}

TEST(StaticPeelerTest, SingleVertex) {
  DynamicGraph g(1);
  g.SetVertexWeight(0, 2.0);
  PeelState state = PeelStatic(g);
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state.VertexAt(0), 0u);
  EXPECT_DOUBLE_EQ(state.DeltaAt(0), 2.0);
  EXPECT_DOUBLE_EQ(state.BestDensity(), 2.0);
}

TEST(StaticPeelerTest, PathGraphPeelsLeavesFirst) {
  // 0 -2- 1 -2- 2 -2- 3: leaves have weight 2, inner vertices 4.
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 2.0).ok());
  PeelState state = PeelStatic(g);
  EXPECT_EQ(state.VertexAt(0), 0u);  // canonical: leaf with the smaller id
  EXPECT_DOUBLE_EQ(state.DeltaAt(0), 2.0);
  ValidateCanonicalSequence(g, state);
}

TEST(StaticPeelerTest, CliquePlusPendantFindsClique) {
  // Dense triangle {0,1,2} with heavy weights, pendant vertex 3.
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  PeelState state = PeelStatic(g);
  Community c = state.DetectCommunity();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.density, 10.0);  // 30 weight over 3 vertices
}

TEST(StaticPeelerTest, DeltaSumEqualsTotalWeight) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    DynamicGraph g = RandomGraph(&rng, 30, 90, 6, 3);
    PeelState state = PeelStatic(g);
    double sum = 0;
    for (std::size_t i = 0; i < state.size(); ++i) sum += state.DeltaAt(i);
    EXPECT_NEAR(sum, g.TotalWeight(), 1e-9);
  }
}

TEST(StaticPeelerTest, SequencesAreCanonical) {
  Rng rng(22);
  for (int trial = 0; trial < 15; ++trial) {
    DynamicGraph g = RandomGraph(&rng, 3 + rng.NextBounded(25),
                                 rng.NextBounded(80), 5, 2);
    PeelState state = PeelStatic(g);
    ValidateCanonicalSequence(g, state);
  }
}

TEST(StaticPeelerTest, CommunityDensityMatchesDefinition) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    DynamicGraph g = RandomGraph(&rng, 20, 50, 5, 2);
    PeelState state = PeelStatic(g);
    const Community c = state.DetectCommunity();
    EXPECT_NEAR(c.density, SubgraphDensity(g, c.members), 1e-9);
  }
}

TEST(StaticPeelerTest, CommunityIsDensestPrefixSet) {
  // g(S_P) must dominate every suffix's density.
  Rng rng(24);
  DynamicGraph g = RandomGraph(&rng, 25, 70, 5, 2);
  PeelState state = PeelStatic(g);
  const double best = state.BestDensity();
  for (std::size_t k = 0; k <= state.size(); ++k) {
    std::vector<VertexId> suffix(state.seq().begin() +
                                     static_cast<std::ptrdiff_t>(k),
                                 state.seq().end());
    if (suffix.empty()) continue;
    EXPECT_GE(best + 1e-9, SubgraphDensity(g, suffix));
  }
}

// Lemma 2.1: g(S_P) >= 1/2 g(S*), verified by exhaustive search.
TEST(StaticPeelerTest, TwoApproximationGuarantee) {
  Rng rng(25);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(9);
    DynamicGraph g = RandomGraph(&rng, n, rng.NextBounded(3 * n), 4, 2);
    PeelState state = PeelStatic(g);
    const auto optimal = BruteForceDensest(g);
    const double g_star = SubgraphDensity(g, optimal);
    EXPECT_GE(state.BestDensity() + 1e-9, 0.5 * g_star)
        << "guarantee violated on trial " << trial;
  }
}

TEST(PeelStateTest, PositionsAreInverse) {
  Rng rng(26);
  DynamicGraph g = RandomGraph(&rng, 30, 60, 5, 0);
  PeelState state = PeelStatic(g);
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state.PositionOf(state.VertexAt(i)), i);
  }
}

TEST(PeelStateTest, DetectTieBreaksToLargestCommunity) {
  // All-zero deltas: every suffix has density 0; the whole set wins.
  PeelState state(3);
  state.Append(0, 0.0);
  state.Append(1, 0.0);
  state.Append(2, 0.0);
  EXPECT_EQ(state.BestStart(), 0u);
  EXPECT_EQ(state.DetectCommunity().members.size(), 3u);
}

TEST(PeelStateTest, InsertVertexAtHeadShiftsPositions) {
  PeelState state(2);
  state.Append(0, 1.0);
  state.Append(1, 2.0);
  state.InsertVertexAtHead(5, 0.0);
  EXPECT_EQ(state.VertexAt(0), 5u);
  EXPECT_EQ(state.PositionOf(5), 0u);
  EXPECT_EQ(state.PositionOf(0), 1u);
  EXPECT_EQ(state.PositionOf(1), 2u);
}

TEST(PeelStateTest, ClearResets) {
  PeelState state(2);
  state.Append(1, 1.0);
  state.Clear();
  EXPECT_EQ(state.size(), 0u);
  EXPECT_FALSE(state.ContainsVertex(1));
}

// ------------------------------------------------------------------------
// SIMD kernel dispatch: every compiled target must return the index the
// scalar reference returns, and the override seam must route the dispatched
// entry point.
// ------------------------------------------------------------------------

// FirstKeyAbove is an exact compare, so every target must return the index
// of the first slot the heap's own key order (HeapKeyLess) puts after the
// key. Lengths 0..67 cover each vector loop's full groups, its tail and the
// narrower loops after it; starts at every offset mod 4 run the loads
// unaligned. Ids come from both sides of 2^31, where a signed lane compare
// would misorder them. Each length checks a key above every slot, below
// every slot and equal to one, then plants one hit at each position in turn
// behind slots that tie the key's weight with ids at or below its id: a
// heavier slot, a tie with a larger id, and zero ties of either sign
// against a zero key of the other.
TEST(SimdKernelTest, FirstKeyAboveReturnsTheScalarIndexOnEveryTarget) {
  Rng rng(79);
  const auto targets = simd::CompiledSimdTargets();
  constexpr std::size_t kMaxN = 67;
  constexpr std::uint32_t kIds[] = {0u,          1u,          0x7FFFFFFEu,
                                    0x7FFFFFFFu, 0x80000000u, 0x80000001u,
                                    0xFFFFFFFEu, 0xFFFFFFFFu};
  std::vector<double> delta(kMaxN + 4);
  std::vector<std::uint32_t> seq(kMaxN + 4);
  const auto expect_all = [&](std::size_t offset, std::size_t n, double w,
                              std::uint32_t v, const char* what) {
    const double* d = delta.data() + offset;
    const std::uint32_t* s = seq.data() + offset;
    std::size_t want = n;
    for (std::size_t i = 0; i < n && want == n; ++i) {
      if (HeapKeyLess(w, v, d[i], s[i])) want = i;
    }
    for (const auto& target : targets) {
      ASSERT_EQ(target.first_key_above(d, s, n, w, v), want)
          << target.name << " " << what << ", n=" << n
          << ", offset=" << offset << ", key=(" << w << ", " << v << ")";
    }
  };
  // Every slot ties weight w with an id at or below v, except a planted
  // (hit_delta, hit_id) at position j.
  const auto plant = [&](std::size_t offset, std::size_t j, double w,
                         std::uint32_t v, double hit_delta,
                         std::uint32_t hit_id) {
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = w;
      seq[i] = v - static_cast<std::uint32_t>(rng.NextBounded(3));
    }
    delta[offset + j] = hit_delta;
    seq[offset + j] = hit_id;
  };
  for (std::size_t n = 0; n <= kMaxN; ++n) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      // Small integer weights, so ties are common.
      for (std::size_t i = 0; i < delta.size(); ++i) {
        delta[i] = static_cast<double>(rng.NextBounded(4));
        seq[i] = kIds[rng.NextBounded(std::size(kIds))];
      }
      expect_all(offset, n, 4.0, 0, "key above every slot");
      expect_all(offset, n, -1.0, 0xFFFFFFFFu, "key below every slot");
      for (const std::uint32_t v : kIds) {
        expect_all(offset, n, 2.0, v, "ties on both sides of the id");
      }
      if (n == 0) continue;
      const std::size_t at = offset + rng.NextBounded(n);
      expect_all(offset, n, delta[at], seq[at], "key equal to a slot");
      for (std::size_t j = 0; j < n; ++j) {
        plant(offset, j, 2.0, 0x80000000u, 3.0, 0);
        expect_all(offset, n, 2.0, 0x80000000u, "heavier slot");
        plant(offset, j, 2.0, 0x7FFFFFFFu, 2.0, 0x80000000u);
        expect_all(offset, n, 2.0, 0x7FFFFFFFu, "tie with a larger id");
        plant(offset, j, 0.0, 5, 0.0, 6);
        expect_all(offset, n, -0.0, 5, "+0.0 tie against a -0.0 key");
        plant(offset, j, -0.0, 5, -0.0, 6);
        expect_all(offset, n, 0.0, 5, "-0.0 tie against a +0.0 key");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// The dispatch target is fixed at compile time: the last listed target is
// the dispatched one (SSE2 wherever the compiler targets it), and nullptr
// restores it after an override.
TEST(SimdKernelTest, TestingOverrideRedirectsDispatch) {
  const auto targets = simd::CompiledSimdTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_STREQ(targets.front().name, "scalar");
  EXPECT_STREQ(simd::ActiveSimdTarget(), targets.back().name);
#if defined(__SSE2__)
  EXPECT_STREQ(targets.back().name, "sse2");
#endif
  const double one = 1.0;
  const std::uint32_t id = 7;
  for (const auto& t : targets) {
    simd::SetSimdTargetForTesting(&t);
    EXPECT_STREQ(simd::ActiveSimdTarget(), t.name);
    EXPECT_EQ(simd::FirstKeyAbove(&one, &id, 1, 1.0, 6), 0u);
    EXPECT_EQ(simd::FirstKeyAbove(&one, &id, 1, 1.0, 7), 1u);
  }
  simd::SetSimdTargetForTesting(nullptr);
  EXPECT_STREQ(simd::ActiveSimdTarget(), targets.back().name);
}

TEST(DensityTest, SubgraphWeightFromDefinition) {
  DynamicGraph g(4);
  g.SetVertexWeight(0, 1.0);
  g.SetVertexWeight(1, 2.0);
  ASSERT_TRUE(g.AddEdge(0, 1, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 5.0).ok());
  // S = {0, 1}: vertex weights 1 + 2 plus internal edge 3; the (1, 2) edge
  // leaves the set and must not count.
  EXPECT_DOUBLE_EQ(SubgraphWeight(g, {0, 1}), 6.0);
  EXPECT_DOUBLE_EQ(SubgraphDensity(g, {0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(SubgraphDensity(g, {}), 0.0);
}

TEST(DensityTest, PeelingWeightFromDefinition) {
  DynamicGraph g(3);
  g.SetVertexWeight(1, 4.0);
  ASSERT_TRUE(g.AddEdge(0, 1, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 5.0).ok());
  EXPECT_DOUBLE_EQ(PeelingWeight(g, {0, 1, 2}, 1), 12.0);
  EXPECT_DOUBLE_EQ(PeelingWeight(g, {0, 1}, 1), 7.0);
  EXPECT_DOUBLE_EQ(PeelingWeight(g, {1}, 1), 4.0);
}

TEST(DensityTest, BruteForceFindsObviousDensest) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  auto best = BruteForceDensest(g);
  std::sort(best.begin(), best.end());
  EXPECT_EQ(best, (std::vector<VertexId>{0, 1}));
}

}  // namespace
}  // namespace spade
