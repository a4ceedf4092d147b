// Tests for the incremental reordering engine: single edge insertion
// (§4.1), batch reordering (Algorithm 2) and batched edge deletion
// (Appendix C.1), all verified for exact equivalence against the static
// peeler.

#include "core/incremental_engine.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/weight_grid.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

using testing::ExpectStateEquals;
using testing::RandomEdge;
using testing::RandomGraph;
using testing::ValidateCanonicalSequence;

TEST(IncrementalInsertTest, SingleEdgeOnTinyGraph) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 4.0).ok());
  PeelState state = PeelStatic(g);

  IncrementalEngine engine;
  ReorderStats stats;
  const Edge e{0, 3, 5.0, 0};
  ASSERT_TRUE(engine.InsertEdge(&g, &state, e, &stats).ok());

  ExpectStateEquals(PeelStatic(g), state);
  EXPECT_GT(stats.affected_vertices, 0u);
}

TEST(IncrementalInsertTest, PrefixBeforeFirstEndpointIsUntouched) {
  // Lemma 4.1: positions before the earlier endpoint never change.
  Rng rng(7);
  DynamicGraph g = RandomGraph(&rng, 30, 80);
  PeelState state = PeelStatic(g);
  const std::vector<VertexId> before(state.seq().begin(),
                                     state.seq().end());

  IncrementalEngine engine;
  const Edge e = RandomEdge(&rng, 30);
  const std::size_t cut =
      std::min(state.PositionOf(e.src), state.PositionOf(e.dst));
  ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());

  for (std::size_t i = 0; i < cut; ++i) {
    EXPECT_EQ(before[i], state.VertexAt(i)) << "prefix changed at " << i;
  }
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(IncrementalInsertTest, ParallelEdgesAccumulate) {
  DynamicGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        engine.InsertEdge(&g, &state, {0, 1, 2.0, 0}, nullptr).ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
  EXPECT_EQ(g.NumEdges(), 6u);
}

TEST(IncrementalInsertTest, NewVertexJoinsAtHead) {
  DynamicGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 4.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 4.0).ok());
  PeelState state = PeelStatic(g);

  IncrementalEngine engine;
  // Vertex 5 (and implicitly 3, 4 stay absent) arrives with an edge.
  const Edge e{5, 0, 1.0, 0};
  ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
  ASSERT_EQ(g.NumVertices(), 6u);
  // Gap ids 3 and 4 join as isolated vertices so state covers the graph.
  ASSERT_EQ(state.size(), 6u);
  EXPECT_TRUE(state.ContainsVertex(5));
  ValidateCanonicalSequence(g, state);
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(IncrementalInsertTest, NewVertexWithPrior) {
  DynamicGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  PeelState state = PeelStatic(g);

  IncrementalEngine engine;
  // The caller grows the graph and sets the prior; the engine registers
  // the new vertex at that stored weight.
  g.EnsureVertices(3);
  g.SetVertexWeight(2, 3.5);
  ASSERT_TRUE(engine.InsertEdge(&g, &state, {2, 0, 1.0, 0}, nullptr).ok());
  EXPECT_DOUBLE_EQ(g.VertexWeight(2), 3.5);
  ValidateCanonicalSequence(g, state);
  ExpectStateEquals(PeelStatic(g), state);
}

TEST(IncrementalInsertTest, NewVertexPriorIsOrderIndependent) {
  // Regression: when one update introduces several unseen endpoints, every
  // endpoint must join at its stored prior, regardless of whether a
  // higher-id endpoint (whose registration spans the lower id) is reached
  // first — within one edge and across a batch.
  for (int variant = 0; variant < 3; ++variant) {
    DynamicGraph g(2);
    ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
    PeelState state = PeelStatic(g);
    g.EnsureVertices(8);
    g.SetVertexWeight(3, 1.5);
    g.SetVertexWeight(7, 1.5);
    IncrementalEngine engine;
    std::vector<Edge> batch;
    if (variant == 0) {
      batch = {{7, 3, 1.0, 0}};  // higher-id endpoint processed first
    } else if (variant == 1) {
      batch = {{3, 7, 1.0, 0}};
    } else {
      batch = {{7, 0, 1.0, 0}, {3, 1, 1.0, 0}};  // across batch edges
    }
    ASSERT_TRUE(engine.InsertBatch(&g, &state, batch, nullptr).ok());
    EXPECT_DOUBLE_EQ(g.VertexWeight(3), 1.5) << "variant " << variant;
    EXPECT_DOUBLE_EQ(g.VertexWeight(7), 1.5) << "variant " << variant;
    // Pure gap ids (never weighed) join at 0.
    EXPECT_DOUBLE_EQ(g.VertexWeight(4), 0.0) << "variant " << variant;
    EXPECT_TRUE(state.ContainsVertex(4)) << "variant " << variant;
    ValidateCanonicalSequence(g, state);
    ExpectStateEquals(PeelStatic(g), state);
  }
}

TEST(IncrementalInsertTest, RejectsNonPositiveWeight) {
  DynamicGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  EXPECT_FALSE(
      engine.InsertEdge(&g, &state, {0, 1, 0.0, 0}, nullptr).ok());
  EXPECT_FALSE(
      engine.InsertEdge(&g, &state, {0, 1, -1.0, 0}, nullptr).ok());
}

TEST(IncrementalInsertTest, EmptyBatchIsNoOp) {
  DynamicGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  ASSERT_TRUE(
      engine.InsertBatch(&g, &state, {}, nullptr).ok());
  ExpectStateEquals(PeelStatic(g), state);
}

// Property: after any sequence of single-edge insertions, the maintained
// state equals a from-scratch static peel exactly (integer weights make the
// comparison exact).
TEST(IncrementalInsertTest, RandomizedSingleEdgeEquivalence) {
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(30);
    const std::size_t m = rng.NextBounded(3 * n);
    DynamicGraph g = RandomGraph(&rng, n, m, 6, 3);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    for (int step = 0; step < 25; ++step) {
      const Edge e = RandomEdge(&rng, n);
      ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
      ExpectStateEquals(PeelStatic(g), state);
    }
  }
}

// Property: batch insertion is equivalent to static recomputation, for
// batch sizes spanning one edge to hundreds.
class BatchEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchEquivalenceTest, BatchEqualsStatic) {
  const std::size_t batch_size = GetParam();
  Rng rng(1000 + batch_size);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 4 + rng.NextBounded(40);
    DynamicGraph g = RandomGraph(&rng, n, 2 * n, 6, 2);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    for (int round = 0; round < 4; ++round) {
      std::vector<Edge> batch;
      for (std::size_t i = 0; i < batch_size; ++i) {
        batch.push_back(RandomEdge(&rng, n));
      }
      ASSERT_TRUE(
          engine.InsertBatch(&g, &state, batch, nullptr).ok());
      ExpectStateEquals(PeelStatic(g), state);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64, 256));

// Property: batch insertion commutes with splitting — inserting E1+E2 in
// one batch or two gives the same final state.
TEST(IncrementalInsertTest, BatchSplitConsistency) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + rng.NextBounded(25);
    DynamicGraph g1 = RandomGraph(&rng, n, n, 5, 0);
    // Duplicate the graph by replaying its edges.
    DynamicGraph g2(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto& e : g1.OutNeighbors(static_cast<VertexId>(u))) {
        ASSERT_TRUE(
            g2.AddEdge(static_cast<VertexId>(u), e.vertex, e.weight).ok());
      }
    }
    PeelState s1 = PeelStatic(g1);
    PeelState s2 = PeelStatic(g2);
    std::vector<Edge> all;
    for (int i = 0; i < 20; ++i) all.push_back(RandomEdge(&rng, n));

    IncrementalEngine e1, e2;
    ASSERT_TRUE(e1.InsertBatch(&g1, &s1, all, nullptr).ok());
    std::span<const Edge> span(all);
    ASSERT_TRUE(
        e2.InsertBatch(&g2, &s2, span.subspan(0, 10), nullptr).ok());
    ASSERT_TRUE(
        e2.InsertBatch(&g2, &s2, span.subspan(10), nullptr).ok());
    ExpectStateEquals(s1, s2);
  }
}

TEST(IncrementalDeleteTest, DeleteRestoresPreInsertState) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.NextBounded(20);
    DynamicGraph g = RandomGraph(&rng, n, 2 * n, 5, 2);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;

    const Edge e = RandomEdge(&rng, n);
    ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
    ASSERT_TRUE(
        engine.DeleteBatch(&g, &state, std::span<const Edge>(&e, 1), nullptr)
            .ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
}

TEST(IncrementalDeleteTest, RandomizedDeleteEquivalence) {
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 3 + rng.NextBounded(25);
    DynamicGraph g = RandomGraph(&rng, n, 3 * n, 5, 2);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    for (int step = 0; step < 15; ++step) {
      // Pick an existing edge uniformly-ish: random vertex with out-edges.
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      std::size_t guard = 0;
      while (g.OutDegree(u) == 0 && guard++ < 4 * n) {
        u = static_cast<VertexId>(rng.NextBounded(n));
      }
      if (g.OutDegree(u) == 0) break;
      const auto& pick =
          g.OutNeighbors(u)[rng.NextBounded(g.OutDegree(u))];
      ASSERT_TRUE(
          engine.DeleteEdge(&g, &state, u, pick.vertex, nullptr)
              .ok());
      ExpectStateEquals(PeelStatic(g), state);
    }
  }
}

TEST(IncrementalDeleteTest, DeleteMissingEdgeFails) {
  DynamicGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  EXPECT_FALSE(engine.DeleteEdge(&g, &state, 1, 2, nullptr).ok());
  // Direction matters: (1, 0) was never inserted.
  EXPECT_FALSE(engine.DeleteEdge(&g, &state, 1, 0, nullptr).ok());
}

TEST(IncrementalDeleteTest, MixedInsertDeleteEquivalence) {
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 4 + rng.NextBounded(20);
    DynamicGraph g = RandomGraph(&rng, n, n, 5, 1);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    std::vector<Edge> live;
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto& e : g.OutNeighbors(static_cast<VertexId>(u))) {
        live.push_back({static_cast<VertexId>(u), e.vertex, e.weight, 0});
      }
    }
    for (int step = 0; step < 30; ++step) {
      if (!live.empty() && rng.NextBool(0.4)) {
        const std::size_t pick = rng.NextBounded(live.size());
        const Edge victim = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_TRUE(engine
                        .DeleteBatch(&g, &state,
                                     std::span<const Edge>(&victim, 1),
                                     nullptr)
                        .ok());
      } else {
        const Edge e = RandomEdge(&rng, n);
        live.push_back(e);
        ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
      }
      ExpectStateEquals(PeelStatic(g), state);
    }
  }
}

// Batched deletion (DESIGN.md §2.6): one splice walk over every endpoint of
// a batch, then one merge. Random batches of 1 to 4,096 stored copies,
// interleaved with insert batches, on graphs spanning many 512-slot blocks.
// Parallel copies of equal weight make requests that differ only in which
// copy they name.
class BatchDeleteTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64, 500, 4096};

  // Every stored copy of g, one entry per copy.
  static std::vector<Edge> StoredCopies(const DynamicGraph& g) {
    std::vector<Edge> copies;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (const NeighborEntry& e : g.OutNeighbors(u)) {
        copies.push_back({u, e.vertex, e.weight, 0});
      }
    }
    return copies;
  }

  // Removes min(size, live->size()) random copies from `live`.
  static std::vector<Edge> DrawBatch(Rng* rng, std::vector<Edge>* live,
                                     std::size_t size) {
    std::vector<Edge> batch;
    while (batch.size() < size && !live->empty()) {
      const std::size_t pick = rng->NextBounded(live->size());
      batch.push_back((*live)[pick]);
      (*live)[pick] = live->back();
      live->pop_back();
    }
    return batch;
  }
};

TEST_F(BatchDeleteTest, MatchesStaticPeelTieExact) {
  Rng rng(2026);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 1500 + rng.NextBounded(4501);
    // Odd trials carry vertex priors.
    DynamicGraph g = RandomGraph(&rng, n, 2 * n, 6, trial % 2 == 1 ? 3 : 0);
    std::vector<Edge> live = StoredCopies(g);
    for (std::size_t i = 0; i < n / 4; ++i) {
      const Edge twin = live[rng.NextBounded(live.size())];
      ASSERT_TRUE(g.AddEdge(twin.src, twin.dst, twin.weight).ok());
      live.push_back(twin);
    }
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    const auto expect_static = [&](const char* step, std::size_t size) {
      const PeelState expected = PeelStatic(g);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n
                                        << " " << step << " " << size);
      ExpectStateEquals(expected, state, 0.0);
      EXPECT_EQ(expected.BestStart(), state.BestStart());
    };
    for (std::size_t size : kBatchSizes) {
      const std::vector<Edge> batch = DrawBatch(&rng, &live, size);
      ASSERT_TRUE(engine.DeleteBatch(&g, &state, batch, nullptr).ok());
      expect_static("delete", size);
      if (::testing::Test::HasFatalFailure()) return;

      std::vector<Edge> inserted;
      for (std::size_t i = 0; i < 1 + size / 4; ++i) {
        inserted.push_back(RandomEdge(&rng, n, 6));
      }
      ASSERT_TRUE(
          engine.InsertBatch(&g, &state, inserted, nullptr).ok());
      live.insert(live.end(), inserted.begin(), inserted.end());
      expect_static("insert", size);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// FD weights are continuous (1/log terms of the destination's degree at
// insertion). Rounded onto the grid, as Spade admits them, every sum is
// exact: the state stays canonical tie for tie and equals a static peel.
TEST_F(BatchDeleteTest, FdWeightedStaysCanonical) {
  const FraudSemantics fd = MakeFD();
  Rng rng(2027);
  const std::size_t n = 1500;
  DynamicGraph g(n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    Edge e = RandomEdge(&rng, n);
    e.weight = QuantizeWeight(fd.esusp(e, g));
    ASSERT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
  }
  std::vector<Edge> live = StoredCopies(g);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  for (std::size_t size : {std::size_t{1}, std::size_t{7}, std::size_t{500},
                           std::size_t{2048}}) {
    SCOPED_TRACE(::testing::Message() << "batch " << size);
    const std::vector<Edge> batch = DrawBatch(&rng, &live, size);
    ASSERT_TRUE(engine.DeleteBatch(&g, &state, batch, nullptr).ok());
    ValidateCanonicalSequence(g, state);
    ExpectStateEquals(PeelStatic(g), state);
    if (::testing::Test::HasFatalFailure()) return;

    std::vector<Edge> inserted;
    for (std::size_t i = 0; i < 1 + size / 4; ++i) {
      inserted.push_back(RandomEdge(&rng, n));
      inserted.back().weight = QuantizeWeight(fd.esusp(inserted.back(), g));
    }
    ASSERT_TRUE(
        engine.InsertBatch(&g, &state, inserted, nullptr).ok());
    live.insert(live.end(), inserted.begin(), inserted.end());
    ValidateCanonicalSequence(g, state);
    ExpectStateEquals(PeelStatic(g), state);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A batch is checked whole before any edge is removed: a failing request
// leaves the graph and the state exactly as they were.
TEST_F(BatchDeleteTest, FailedBatchChangesNothing) {
  Rng rng(2028);
  DynamicGraph g = RandomGraph(&rng, 40, 120, 5, 0);
  ASSERT_TRUE(g.AddEdge(3, 7, 9.0).ok());  // the only 3 -> 7 copy of weight 9
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  const std::size_t edges_before = g.NumEdges();
  const PeelState state_before = state;
  const std::vector<Edge> present = StoredCopies(g);

  const auto expect_refused = [&](const std::vector<Edge>& batch,
                                  StatusCode code, const std::string& names) {
    const Status s = engine.DeleteBatch(&g, &state, batch, nullptr);
    EXPECT_EQ(s.code(), code) << s.ToString();
    EXPECT_NE(s.ToString().find(names), std::string::npos) << s.ToString();
    EXPECT_EQ(g.NumEdges(), edges_before);
    ExpectStateEquals(state_before, state, 0.0);
  };
  // Three present edges, then one that was never inserted.
  expect_refused({present[0], present[1], present[2], {3, 7, 2.5, 0}},
                 StatusCode::kNotFound, "3->7 (weight 2.5)");
  // Two requests for the single stored copy.
  expect_refused({{3, 7, 9.0, 0}, present[5], {3, 7, 9.0, 0}},
                 StatusCode::kNotFound, "3->7 (weight 9)");
  // An endpoint beyond the graph.
  expect_refused({present[0], {3, 40, 1.0, 0}}, StatusCode::kInvalidArgument,
                 "3->40");

  // The same copies, each requested once, apply.
  const std::vector<Edge> single{{3, 7, 9.0, 0}};
  ASSERT_TRUE(engine.DeleteBatch(&g, &state, single, nullptr).ok());
  EXPECT_EQ(g.NumEdges(), edges_before - 1);
  ExpectStateEquals(PeelStatic(g), state, 0.0);
}

// Displacement runs (DESIGN.md §3.4): a graph whose merges move thousands
// of untouched slots as one run, in each shape the merge distinguishes.
// Ids [0, kIsolated) are isolated and peel first, in id order, at weight 0;
// kPaths disjoint unit-weight paths a - b - c follow, with ids a < c < b so
// each peels as a, c, b; a dense core peels last. Integer weights keep
// every comparison with the static peel tie-exact.
class DisplacementRunTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kIsolated = 3000;
  static constexpr std::size_t kPaths = 1000;
  static constexpr std::size_t kCore = 24;
  // Every shape below moves at least this many untouched slots per update.
  static constexpr std::size_t kLongRun = 1000;

  DisplacementRunTest() : g_(kIsolated + 3 * kPaths + kCore) {
    for (std::size_t i = 0; i < kPaths; ++i) {
      EXPECT_TRUE(g_.AddEdge(PathA(i), PathB(i), 1.0).ok());
      EXPECT_TRUE(g_.AddEdge(PathB(i), PathC(i), 1.0).ok());
    }
    for (std::size_t i = 0; i < kCore; ++i) {
      for (std::size_t j = i + 1; j < kCore; ++j) {
        EXPECT_TRUE(g_.AddEdge(CoreVertex(i), CoreVertex(j), 3.0).ok());
      }
    }
    state_ = PeelStatic(g_);
  }

  static VertexId PathA(std::size_t i) {
    return static_cast<VertexId>(kIsolated + 3 * i);
  }
  static VertexId PathC(std::size_t i) { return PathA(i) + 1; }
  static VertexId PathB(std::size_t i) { return PathA(i) + 2; }
  static VertexId CoreVertex(std::size_t i) {
    return static_cast<VertexId>(kIsolated + 3 * kPaths + i);
  }

  std::size_t Insert(const Edge& e) {
    ReorderStats stats;
    EXPECT_TRUE(engine_.InsertEdge(&g_, &state_, e, &stats).ok());
    ExpectStateEquals(PeelStatic(g_), state_, 0.0);
    return stats.rewritten_span;
  }

  std::size_t Delete(const Edge& e) {
    ReorderStats stats;
    EXPECT_TRUE(
        engine_.DeleteBatch(&g_, &state_, std::span<const Edge>(&e, 1), &stats)
            .ok());
    ExpectStateEquals(PeelStatic(g_), state_, 0.0);
    return stats.rewritten_span;
  }

  DynamicGraph g_;
  PeelState state_;
  IncrementalEngine engine_;
};

// A path's first vertex a, early in the path region, gains a core edge: it
// is pushed at its slot, the credit pass settles when the probe budget
// runs out at b (a's neighbor, one untouched slot later), and the rest of
// the path region shifts down behind it while the write cursor trails.
TEST_F(DisplacementRunTest, InsertRunsWithCreditsSettled) {
  Rng rng(71);
  for (int step = 0; step < 30; ++step) {
    const VertexId p = PathA(rng.NextBounded(kPaths / 2));
    if (g_.Degree(p) > 1) continue;  // drawn before: already left the region
    const VertexId c = CoreVertex(rng.NextBounded(kCore));
    // Above 1, so p outweighs every path-region incumbent.
    const auto w = static_cast<double>(2 + rng.NextBounded(3));
    EXPECT_GE(Insert(Edge{p, c, w, 0}), kLongRun) << "step " << step;
  }
}

// An isolated low-id vertex gains an edge to a core hub, and brand-new
// vertices join at the head with an edge to a hub: either way a queue
// member's credit pass stays deferred while the scan moves the isolated
// region (degree-0 probes cost no budget) behind it.
TEST_F(DisplacementRunTest, InsertRunsWithDeferredCreditsOutstanding) {
  Rng rng(72);
  for (int step = 0; step < 30; ++step) {
    const VertexId hub = CoreVertex(rng.NextBounded(kCore));
    const auto w = static_cast<double>(1 + rng.NextBounded(4));
    VertexId x = static_cast<VertexId>(g_.NumVertices());  // a new vertex
    if (step % 2 == 0) {
      x = static_cast<VertexId>(rng.NextBounded(kIsolated / 2));
      if (g_.Degree(x) > 0) continue;  // drawn before
    }
    EXPECT_GE(Insert(Edge{x, hub, w, 0}), kLongRun) << "step " << step;
  }
}

// Deleting an isolated vertex's only edge splices it back across the
// thousands of zero-weight vertices with larger ids: it emits at once,
// and the write cursor then leads the scan for the whole run up to its old
// slot. Deletions and re-insertions of path edges ride along.
TEST_F(DisplacementRunTest, DeleteRunsLeadTheScan) {
  Rng rng(73);
  for (int step = 0; step < 30; ++step) {
    const auto x = static_cast<VertexId>(rng.NextBounded(kIsolated / 2));
    if (g_.Degree(x) > 0) continue;
    const Edge e{x, CoreVertex(rng.NextBounded(kCore)),
                 static_cast<double>(1 + rng.NextBounded(4)), 0};
    Insert(e);
    EXPECT_GE(Delete(e), kLongRun) << "step " << step;
    if (step % 3 == 0) {
      const std::size_t i = rng.NextBounded(kPaths);
      const Edge path_edge{PathA(i), PathB(i), 1.0, 0};
      Delete(path_edge);
      Insert(path_edge);
    }
  }
}

TEST(ReorderStatsTest, AffectedAreaIsBounded) {
  Rng rng(31);
  DynamicGraph g = RandomGraph(&rng, 200, 600, 4, 0);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  ReorderStats stats;
  ASSERT_TRUE(
      engine.InsertEdge(&g, &state, RandomEdge(&rng, 200), &stats)
          .ok());
  EXPECT_LE(stats.affected_vertices, 200u);
  EXPECT_GT(stats.affected_vertices, 0u);
  EXPECT_LE(stats.rewritten_span, 200u);
}

}  // namespace
}  // namespace spade
