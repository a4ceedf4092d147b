// API-surface tests for the Spade facade: apply-vs-insert parity,
// snapshot restore fallbacks, semantics switching and pipeline composition.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/spade.h"
#include "peel/static_peeler.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace spade {
namespace {

std::vector<Edge> SmallLog(Rng* rng, std::size_t n, std::size_t m) {
  std::vector<Edge> log;
  for (std::size_t i = 0; i < m; ++i) {
    log.push_back(testing::RandomEdge(rng, n));
  }
  return log;
}

TEST(ApiTest, ApplyEdgeMatchesInsertEdge) {
  Rng rng(201);
  Spade a, b;
  a.SetSemantics(MakeDW());
  b.SetSemantics(MakeDW());
  const auto initial = SmallLog(&rng, 15, 40);
  ASSERT_TRUE(a.BuildGraph(15, initial).ok());
  ASSERT_TRUE(b.BuildGraph(15, initial).ok());
  for (int i = 0; i < 20; ++i) {
    const Edge e = testing::RandomEdge(&rng, 15);
    ASSERT_TRUE(a.InsertEdge(e).ok());
    ASSERT_TRUE(b.ApplyEdge(e).ok());
    testing::ExpectStateEquals(a.peel_state(), b.peel_state(), 0.0);
  }
}

TEST(ApiTest, ApplyBatchMatchesInsertBatch) {
  Rng rng(202);
  Spade a, b;
  a.SetSemantics(MakeDG());
  b.SetSemantics(MakeDG());
  const auto initial = SmallLog(&rng, 15, 40);
  ASSERT_TRUE(a.BuildGraph(15, initial).ok());
  ASSERT_TRUE(b.BuildGraph(15, initial).ok());
  const auto batch = SmallLog(&rng, 15, 25);
  ASSERT_TRUE(a.InsertBatchEdges(batch).ok());
  ASSERT_TRUE(b.ApplyBatchEdges(batch).ok());
  testing::ExpectStateEquals(a.peel_state(), b.peel_state(), 0.0);
}

TEST(ApiTest, DetectIsIdempotent) {
  Rng rng(203);
  Spade spade;
  ASSERT_TRUE(spade.BuildGraph(10, SmallLog(&rng, 10, 30)).ok());
  const Community first = spade.Detect();
  const Community second = spade.Detect();
  EXPECT_EQ(first.members, second.members);
  EXPECT_DOUBLE_EQ(first.density, second.density);
}

TEST(ApiTest, SemanticsNameTracksInstallation) {
  Spade spade;
  EXPECT_EQ(spade.semantics_name(), "DG");
  spade.SetSemantics(MakeFD());
  EXPECT_EQ(spade.semantics_name(), "FD");
  spade.SetSemantics(MakeSemanticsByName("DW"));
  EXPECT_EQ(spade.semantics_name(), "DW");
}

TEST(ApiTest, MakeSemanticsByNameFallsBackToDG) {
  EXPECT_EQ(MakeSemanticsByName("nonsense").name, "DG");
  EXPECT_EQ(MakeSemanticsByName("FD").name, "FD");
}

TEST(ApiTest, RestoreFromGraphOnlySnapshotRepeels) {
  Rng rng(204);
  const std::string path = ::testing::TempDir() + "/spade_api_graphonly.bin";
  DynamicGraph g = testing::RandomGraph(&rng, 12, 30, 4, 1);
  ASSERT_TRUE(SaveSnapshot(path, g, nullptr, {}).ok());

  Spade spade;
  ASSERT_TRUE(spade.RestoreState(path).ok());
  // No serialized peel state: the facade must have re-peeled statically.
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state(),
                             0.0);
  std::remove(path.c_str());
}

TEST(ApiTest, SaveStateFlushesBenignBuffer) {
  Rng rng(205);
  const std::string path = ::testing::TempDir() + "/spade_api_flush.bin";
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  std::vector<Edge> initial = {
      {0, 1, 50.0, 0}, {1, 2, 50.0, 1}, {2, 0, 50.0, 2}, {3, 4, 1.0, 3}};
  ASSERT_TRUE(spade.BuildGraph(6, initial).ok());
  ASSERT_TRUE(spade.ApplyEdge({3, 5, 0.5, 4}).ok());
  ASSERT_GT(spade.PendingBenignEdges(), 0u);
  ASSERT_TRUE(spade.SaveState(path).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);

  Spade restored;
  restored.SetSemantics(MakeDW());
  ASSERT_TRUE(restored.RestoreState(path).ok());
  EXPECT_EQ(restored.graph().NumEdges(), 5u);  // buffered edge included
  std::remove(path.c_str());
}

TEST(ApiTest, GroupingToggleMidStream) {
  Rng rng(206);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(15, SmallLog(&rng, 15, 60)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(spade.ApplyEdge(testing::RandomEdge(&rng, 15)).ok());
  }
  spade.TurnOnEdgeGrouping();
  for (int i = 0; i < 5; ++i) {
    Edge e = testing::RandomEdge(&rng, 15);
    e.weight = 0.25;
    ASSERT_TRUE(spade.ApplyEdge(e).ok());
  }
  spade.TurnOffEdgeGrouping();
  // Buffered edges still flush through Detect even with grouping off.
  spade.Detect();
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(ApiTest, RebuildGraphResetsEverything) {
  Rng rng(207);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(10, SmallLog(&rng, 10, 20)).ok());
  ASSERT_TRUE(spade.InsertEdge(testing::RandomEdge(&rng, 10)).ok());
  EXPECT_GT(spade.cumulative_stats().affected_vertices, 0u);

  ASSERT_TRUE(spade.BuildGraph(5, SmallLog(&rng, 5, 8)).ok());
  EXPECT_EQ(spade.graph().NumVertices(), 5u);
  EXPECT_EQ(spade.cumulative_stats().affected_vertices, 0u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(ApiTest, EmptyGraphDetect) {
  Spade spade;
  ASSERT_TRUE(spade.BuildGraph(0, {}).ok());
  const Community c = spade.Detect();
  EXPECT_TRUE(c.members.empty());
  EXPECT_DOUBLE_EQ(c.density, 0.0);
}

TEST(ApiTest, IsolatedVerticesOnlyGraph) {
  Spade spade;
  ASSERT_TRUE(spade.BuildGraph(5, {}).ok());
  const Community c = spade.Detect();
  // All deltas are zero: the whole vertex set ties at density 0.
  EXPECT_EQ(c.members.size(), 5u);
  EXPECT_DOUBLE_EQ(c.density, 0.0);
}

}  // namespace
}  // namespace spade
