// Tests for the Spade facade: the Listing 1 API surface, built-in semantics
// (DG/DW/FD), edge grouping (Algorithm 3) and its benign-edge guarantees
// (Definition 4.1, Lemmas 4.3/4.4).

#include "core/spade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "graph/graph_io.h"
#include "graph/weight_grid.h"
#include "metrics/density.h"
#include "peel/static_peeler.h"
#include "service/sharded_detection_service.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"
#include "tests/test_util.h"

namespace spade {
namespace {

// A small transaction log: a dense ring {0,1,2} plus background edges.
std::vector<Edge> DenseRingLog() {
  return {
      {0, 1, 10.0, 1}, {1, 2, 10.0, 2}, {2, 0, 10.0, 3},
      {3, 4, 1.0, 4},  {4, 5, 1.0, 5},  {5, 6, 1.0, 6},
  };
}

TEST(SpadeTest, BuildAndDetectWithDG) {
  Spade spade;
  spade.SetSemantics(MakeDG());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  // DG ignores weights: ring density 3/3 = 1; whole graph 6/7 < 1.
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.density, 1.0);
}

TEST(SpadeTest, DWUsesTransactionAmounts) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.density, 10.0);
}

TEST(SpadeTest, FDWeightsByObjectDegree) {
  Spade spade;
  spade.SetSemantics(MakeFD());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  const auto& g = spade.graph();
  // Every inserted edge weight must equal 1/log(deg(dst) + 5) evaluated at
  // insertion time and rounded onto the grid; all degrees here are small,
  // so weights are in [Q(1/log(11)), Q(1/log(5))], each on the grid.
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    for (const auto& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      EXPECT_GE(e.weight, QuantizeWeight(1.0 / std::log(11.0)));
      EXPECT_LE(e.weight, QuantizeWeight(1.0 / std::log(5.0)));
      EXPECT_TRUE(IsOnWeightGrid(e.weight)) << e.weight;
    }
  }
  EXPECT_FALSE(spade.Detect().members.empty());
}

TEST(SpadeTest, CustomSemanticsViaVSuspESusp) {
  Spade spade;
  spade.VSusp([](VertexId v, const DynamicGraph&) {
    return v == 3 ? 100.0 : 0.0;  // vertex 3 is known-suspicious
  });
  spade.ESusp([](const Edge&, const DynamicGraph&) { return 0.001; });
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  // The huge prior makes {3} itself the densest subgraph.
  ASSERT_EQ(c.members.size(), 1u);
  EXPECT_EQ(c.members[0], 3u);
  EXPECT_NEAR(c.density, 100.0, 1.0);
}

TEST(SpadeTest, InsertEdgeUpdatesCommunity) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());

  // A new heavier ring {4,5,6} overtakes the old one.
  for (const Edge& e : std::vector<Edge>{
           {4, 5, 40.0, 10}, {5, 6, 40.0, 11}, {6, 4, 40.0, 12}}) {
    auto r = spade.InsertEdge(e);
    ASSERT_TRUE(r.ok());
  }
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{4, 5, 6}));
}

TEST(SpadeTest, InsertMatchesStaticRecompute) {
  Rng rng(404);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 40; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 20));
  }
  ASSERT_TRUE(spade.BuildGraph(20, initial).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(spade.InsertEdge(testing::RandomEdge(&rng, 20)).ok());
    testing::ExpectStateEquals(PeelStatic(spade.graph()),
                               spade.peel_state());
  }
}

TEST(SpadeTest, InsertBatchMatchesStaticRecompute) {
  Rng rng(405);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 40; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 20));
  }
  ASSERT_TRUE(spade.BuildGraph(20, initial).ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 25; ++i) batch.push_back(testing::RandomEdge(&rng, 20));
    ASSERT_TRUE(spade.InsertBatchEdges(batch).ok());
    testing::ExpectStateEquals(PeelStatic(spade.graph()),
                               spade.peel_state());
  }
}

TEST(SpadeTest, DeleteEdgeMatchesStaticRecompute) {
  Rng rng(406);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 30; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 15));
  }
  ASSERT_TRUE(spade.BuildGraph(15, initial).ok());
  for (int i = 0; i < 10; ++i) {
    const Edge& victim = initial[rng.NextBounded(initial.size())];
    const Status s = spade.DeleteEdge(victim.src, victim.dst);
    if (s.ok()) {
      testing::ExpectStateEquals(PeelStatic(spade.graph()),
                                 spade.peel_state());
    }
  }
}

TEST(SpadeTest, LoadGraphFromFile) {
  const std::string path = ::testing::TempDir() + "/spade_load_test.txt";
  ASSERT_TRUE(SaveEdgeList(path, DenseRingLog()).ok());
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.LoadGraph(path).ok());
  EXPECT_EQ(spade.graph().NumVertices(), 7u);
  EXPECT_EQ(spade.graph().NumEdges(), 6u);
  std::remove(path.c_str());
}

TEST(SpadeTest, LoadGraphMissingFileFails) {
  Spade spade;
  EXPECT_FALSE(spade.LoadGraph("/nonexistent/graph.txt").ok());
}

TEST(SpadeTest, RejectsOutOfRangeInitialEdge) {
  Spade spade;
  std::vector<Edge> edges = {{0, 9, 1.0, 0}};
  EXPECT_FALSE(spade.BuildGraph(3, edges).ok());
}

// A refused edge leaves the graph as it was. Growing the graph to an
// unseen endpoint and then refusing the weight used to leave vertices the
// peel state does not cover, and SaveState refused every later checkpoint.
TEST(SpadeTest, RejectedEdgeLeavesTheGraphAsItWas) {
  const std::string path = ::testing::TempDir() + "/spade_rejected_edge.bin";
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  EXPECT_EQ(spade.ApplyEdge({3, 11, -1.0, 20}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(spade.graph().NumVertices(), 7u);
  EXPECT_TRUE(spade.SaveState(path).ok());

  // Grouping is off: the batch fails as a whole, the valid edge included.
  const std::vector<Edge> batch = {{8, 9, 2.0, 21}, {10, 12, -1.0, 22}};
  EXPECT_EQ(spade.ApplyBatchEdges(batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(spade.graph().NumVertices(), 7u);
  EXPECT_EQ(spade.graph().NumEdges(), 6u);
  EXPECT_TRUE(spade.SaveState(path).ok());
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state(),
                             0.0);
  std::remove(path.c_str());
}

// --- Edge grouping (Algorithm 3) ---

TEST(EdgeGroupingTest, BenignEdgesAreBuffered) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  // g(S_P) = 10; an edge between two degree-1 outsiders with tiny weight
  // cannot lift either endpoint to the community density.
  auto r = spade.InsertEdge({3, 6, 0.5, 20});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 1u);
  // The cached community is returned unchanged (Lemma 4.4).
  Community c = std::move(r).value();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
}

TEST(EdgeGroupingTest, UrgentEdgeFlushesBuffer) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 6, 0.5, 20}).ok());
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);
  // An edge heavy enough to rival the community is urgent.
  ASSERT_TRUE(spade.InsertEdge({3, 6, 50.0, 21}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(EdgeGroupingTest, DetectFlushesBuffer) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 6, 0.5, 20}).ok());
  ASSERT_TRUE(spade.InsertEdge({4, 6, 0.5, 21}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 2u);
  spade.Detect();
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 8u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(EdgeGroupingTest, BufferCapForcesFlush) {
  SpadeOptions options;
  options.enable_edge_grouping = true;
  options.max_benign_buffer = 3;
  Spade spade(options);
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(10, DenseRingLog()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        spade.InsertEdge({static_cast<VertexId>(3 + i),
                          static_cast<VertexId>(7 + (i % 3)), 0.01, 0})
            .ok());
  }
  // Buffer held at most 3; the next benign edge cannot extend it.
  ASSERT_TRUE(spade.InsertEdge({5, 8, 0.01, 0}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
}

// Admission: an edge whose post-ESusp weight is not finite and positive
// fails on its own, before it is buffered. Buffered, it would fail the next
// flush's whole batch and take the valid edges grouped with it down too.
TEST(EdgeGroupingTest, BadWeightFailsAloneBeforeBuffering) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  EXPECT_EQ(spade.ApplyEdge({3, 6, -5.0, 20}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  ASSERT_TRUE(spade.ApplyEdge({4, 6, 0.5, 21}).ok());  // benign: buffered
  EXPECT_EQ(spade.PendingBenignEdges(), 1u);
  ASSERT_TRUE(spade.ApplyEdge({3, 5, 50.0, 22}).ok());  // urgent: flushes
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 8u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state(),
                             0.0);
}

TEST(EdgeGroupingTest, NonFiniteWeightsAreRejected) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  for (double w : {std::nan(""), HUGE_VAL, 0.0}) {
    EXPECT_EQ(spade.ApplyEdge({3, 6, w, 20}).code(),
              StatusCode::kInvalidArgument);
    const std::vector<Edge> batch = {{4, 6, 0.5, 21}, {3, 5, w, 22}};
    EXPECT_EQ(spade.ApplyBatchEdges(batch).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 6u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state(),
                             0.0);
}

// Exact weights (DESIGN.md §2.2): an applied weight that rounds to 0 on
// the 2^-20 grid is refused like a non-positive one — before the graph
// grows, before anything is buffered or logged.
TEST(EdgeGroupingTest, WeightThatRoundsToZeroIsRefused) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  spade.TurnOnWindowLog();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.ApplyEdge({4, 6, 0.5, 21}).ok());  // benign: buffered
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);
  const testing::ShardCapture before = testing::Capture(spade);

  // Below half a grid step: rounds to 0. The second names a new vertex.
  for (const Edge& e : {Edge{3, 6, 0x1p-22, 22}, Edge{3, 9, 1e-9, 23}}) {
    EXPECT_EQ(spade.ApplyEdge(e).code(), StatusCode::kInvalidArgument);
    const std::vector<Edge> batch = {{4, 5, 0.5, 24}, e};
    EXPECT_EQ(spade.ApplyBatchEdges(batch).code(),
              StatusCode::kInvalidArgument);
    // ApplyBatchEdges flushes first; nothing else changed.
    testing::ShardCapture flushed = before;
    flushed.edges.emplace_back(4, 6, 0.5);
    std::sort(flushed.edges.begin(), flushed.edges.end());
    flushed.buffer.clear();
    const testing::ShardCapture after = testing::Capture(spade);
    EXPECT_EQ(after.vertex_weights.size(), 7u);
    EXPECT_EQ(after.edges, flushed.edges);
    EXPECT_TRUE(after.buffer.empty());
    EXPECT_EQ(after.window, before.window);
  }
  // Half a step and more rounds up onto the grid and is admitted.
  double applied = 0.0;
  ASSERT_TRUE(spade.ApplyEdge({3, 6, 0x1p-21, 25}, &applied).ok());
  EXPECT_EQ(applied, kWeightQuantum);
}

// A detector's mass — graph plus benign buffer — stays at or below 2^32,
// so every partial sum fits a double's 53 bits exactly. An edge that would
// lift it past the bound is refused with a Status, leaving the graph,
// the buffer and the window log as they were.
TEST(EdgeGroupingTest, MassPastTheBoundIsRefused) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  spade.TurnOnWindowLog();
  // One heavy edge: the graph alone holds the bound minus 16.
  const std::vector<Edge> heavy = {Edge{0, 1, kMaxPartitionMass - 16.0, 0}};
  ASSERT_TRUE(spade.BuildGraph(8, heavy).ok());
  ASSERT_TRUE(spade.ApplyEdge({2, 3, 10.0, 1}).ok());  // benign: buffered
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);
  const testing::ShardCapture before = testing::Capture(spade);

  // 10 more fits the graph alone but not graph plus buffer.
  const Status over = spade.ApplyEdge({4, 5, 10.0, 2});
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument) << over.ToString();
  EXPECT_NE(over.message().find("mass"), std::string::npos);
  // A new endpoint: the graph must not keep the vertex it grew for.
  EXPECT_EQ(spade.ApplyEdge({4, 12, 1e12, 3}).code(),
            StatusCode::kInvalidArgument);
  testing::ExpectShardEqualsCapture(before, testing::Capture(spade));

  // Up to the bound exactly is admitted.
  ASSERT_TRUE(spade.ApplyEdge({4, 5, 6.0, 4}).ok());
  double mass = spade.graph().TotalWeight();
  for (const Edge& e : spade.benign_buffer()) mass += e.weight;
  EXPECT_EQ(mass, kMaxPartitionMass);

  // BuildGraph refuses too, leaving the detector as it was.
  const testing::ShardCapture built = testing::Capture(spade);
  const std::vector<Edge> over_bound = {Edge{0, 1, kMaxPartitionMass, 0},
                                        Edge{1, 2, 1.0, 0}};
  EXPECT_EQ(spade.BuildGraph(4, over_bound).code(),
            StatusCode::kInvalidArgument);
  testing::ExpectShardEqualsCapture(built, testing::Capture(spade));
}

// A prior a_u is finite and >= 0 (metrics/semantics.h). A negative one lets
// a partial sum exceed the mass the bound counts, and a non-finite one would
// be saved into a checkpoint LoadSnapshot refuses. Admission refuses either
// before the graph grows or anything is buffered or logged, on every path
// that reads a prior.
TEST(EdgeGroupingTest, NegativeOrNonFinitePriorIsRefused) {
  for (const double bad : {-1.0, -HUGE_VAL, std::nan("")}) {
    SCOPED_TRACE(::testing::Message() << "prior " << bad);
    Spade spade;
    spade.SetSemantics(MakeDW());
    spade.TurnOnEdgeGrouping();
    spade.TurnOnWindowLog();
    ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
    // Two logged edges for the replay below to retire.
    ASSERT_TRUE(spade.ApplyEdge({3, 5, 1.0, 10}).ok());
    ASSERT_TRUE(spade.ApplyEdge({4, 6, 1.0, 11}).ok());
    ASSERT_TRUE(spade.Flush().ok());
    // Every id from 7 on, none of them in the graph yet, reads `bad`.
    spade.VSusp([bad](VertexId v, const DynamicGraph&) {
      return v >= 7 ? bad : 0.0;
    });
    const Community community = spade.Detect();
    const testing::ShardCapture before = testing::Capture(spade);
    const double total = spade.graph().TotalWeight();
    const auto expect_unchanged = [&] {
      EXPECT_EQ(spade.graph().NumVertices(), 7u);
      EXPECT_EQ(spade.graph().TotalWeight(), total);
      const Community now = spade.Detect();
      EXPECT_EQ(now.members, community.members);
      EXPECT_EQ(now.density, community.density);
      testing::ExpectShardEqualsCapture(before, testing::Capture(spade));
    };

    const Status edge = spade.ApplyEdge({3, 9, 1.0, 20});
    EXPECT_EQ(edge.code(), StatusCode::kInvalidArgument) << edge.ToString();
    EXPECT_NE(edge.message().find("prior"), std::string::npos);
    expect_unchanged();

    const std::vector<Edge> batch = {{3, 4, 1.0, 21}, {5, 8, 1.0, 22}};
    EXPECT_EQ(spade.ApplyBatchEdges(batch).code(),
              StatusCode::kInvalidArgument);
    expect_unchanged();

    EXPECT_EQ(spade.BuildGraph(9, DenseRingLog()).code(),
              StatusCode::kInvalidArgument);
    expect_unchanged();

    // A replayed range that retires a logged edge and names vertex 8: the
    // prior is refused before the retired edge leaves the graph.
    DeltaSegment segment{.prev_epoch = 1, .epoch = 2, .records = {}};
    segment.records.push_back(DeltaRecord::RetirePass(11, 1));
    segment.records.push_back(DeltaRecord::Insert({2, 8, 1.0, 23}));
    const auto replayed = spade.ReplayDelta(std::span(&segment, 1));
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument)
        << replayed.status().ToString();
    expect_unchanged();
  }
}

// A refused edge reaches no log: a service's delta segment holds only the
// edges its detector admitted, so a chain never replays a refused one.
TEST(EdgeGroupingTest, RefusedEdgesLeaveNoDeltaRecord) {
  const std::string dir = ::testing::TempDir() + "/spade_refused_delta";
  std::filesystem::remove_all(dir);
  std::vector<Spade> shards(1);
  shards[0].SetSemantics(MakeDW());
  ASSERT_TRUE(shards[0].BuildGraph(7, DenseRingLog()).ok());
  ShardedDetectionService service(std::move(shards), nullptr);
  ASSERT_TRUE(service.SaveState(dir).ok());  // epoch 1: the base
  ASSERT_TRUE(service.Submit({3, 6, 1e-9, 20}).ok());  // rounds to 0
  ASSERT_TRUE(service.Submit({3, 6, 2 * kMaxPartitionMass, 21}).ok());
  ASSERT_TRUE(service.Submit({4, 6, 0.75, 22}).ok());
  service.Drain();
  EXPECT_EQ(service.GetStats().rejected_edges, 2u);
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  .SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                             &info)
                  .ok());
  DeltaSegment segment;
  ASSERT_TRUE(
      ReadDeltaSegment(dir + "/" + ShardDeltaFileName(0, 2), &segment).ok());
  ASSERT_EQ(segment.records.size(), 1u);
  EXPECT_EQ(segment.records[0].edge, (Edge{4, 6, 0.75, 22}));
  std::filesystem::remove_all(dir);
}

TEST(EdgeGroupingTest, IsBenignMatchesDefinition41) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  const auto& g = spade.graph();
  const double threshold = spade.peel_state().BestDensity();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Edge e = testing::RandomEdge(&rng, 7, 12);
    const bool benign = spade.IsBenign(e);
    const bool def = g.WeightedDegree(e.src) + e.weight < threshold &&
                     g.WeightedDegree(e.dst) + e.weight < threshold;
    EXPECT_EQ(benign, def) << "edge " << e.src << "->" << e.dst << " w "
                           << e.weight;
  }
}

// Lemma 4.3/4.4: inserting a benign edge never produces a *better* (denser)
// community, and its endpoints stay outside the detected community.
TEST(EdgeGroupingTest, BenignInsertionCannotImproveCommunity) {
  Rng rng(505);
  for (int trial = 0; trial < 20; ++trial) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    spade.TurnOnEdgeGrouping();
    std::vector<Edge> initial;
    for (int i = 0; i < 50; ++i) {
      initial.push_back(testing::RandomEdge(&rng, 15));
    }
    ASSERT_TRUE(spade.BuildGraph(15, initial).ok());
    const double before = spade.peel_state().BestDensity();

    Edge e = testing::RandomEdge(&rng, 15, 1);
    e.weight = 0.125;  // tiny weight: likely benign
    if (!spade.IsBenign(e)) continue;
    ASSERT_TRUE(spade.InsertEdge(e).ok());
    Community after = spade.Detect();  // forces the flush

    const bool endpoints_out =
        std::find(after.members.begin(), after.members.end(), e.src) ==
            after.members.end() &&
        std::find(after.members.begin(), after.members.end(), e.dst) ==
            after.members.end();
    // Lemma 4.4: endpoints outside S_P' or the density did not improve.
    EXPECT_TRUE(endpoints_out || after.density < before + 1e-9);
  }
}

TEST(SpadeTest, CumulativeStatsAccumulate) {
  Spade spade;
  spade.SetSemantics(MakeDG());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 5, 1.0, 0}).ok());
  ASSERT_TRUE(spade.InsertEdge({4, 6, 1.0, 0}).ok());
  EXPECT_GT(spade.cumulative_stats().affected_vertices, 0u);
  spade.ResetStats();
  EXPECT_EQ(spade.cumulative_stats().affected_vertices, 0u);
}

}  // namespace
}  // namespace spade
