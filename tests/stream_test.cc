// Tests for the replay harness: latency accounting, prevention ratio and
// batching policies, plus the analysis module's label metrics.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/graph_stats.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "stream/replayer.h"
#include "tests/test_util.h"

namespace spade {
namespace {

// Builds a small labeled workload: background noise plus one dense fraud
// burst in the middle of the stream.
Workload SmallFraudWorkload(std::uint64_t seed) {
  FraudMix mix;
  mix.instances_per_pattern = 1;
  mix.transactions_per_instance = 150;
  return BuildWorkload("Grab1", 0.0005, seed, &mix);
}

TEST(ReplayerTest, ProcessesEveryEdge) {
  Workload w = SmallFraudWorkload(31);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
  ReplayOptions options;
  options.batch_size = 1;
  const ReplayReport report = Replay(&spade, w.stream, options);
  EXPECT_EQ(report.edges_processed, w.stream.size());
  EXPECT_EQ(report.flushes, w.stream.size());
  EXPECT_GT(report.total_process_micros, 0.0);
  EXPECT_EQ(spade.graph().NumEdges(), w.initial.size() + w.stream.size());
}

TEST(ReplayerTest, BatchingReducesFlushes) {
  Workload w = SmallFraudWorkload(32);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
  ReplayOptions options;
  options.batch_size = 50;
  const ReplayReport report = Replay(&spade, w.stream, options);
  EXPECT_EQ(report.edges_processed, w.stream.size());
  EXPECT_LE(report.flushes, w.stream.size() / 50 + 1);
}

TEST(ReplayerTest, FinalStateIsValidCanonicalPeeling) {
  // DW amounts are continuous doubles, rounded onto the grid at
  // admission: every sum is exact, so the final state is canonical tie for
  // tie and equals a from-scratch peel bit for bit.
  Workload w = SmallFraudWorkload(33);
  for (std::size_t batch : {1u, 7u, 100u}) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
    ReplayOptions options;
    options.batch_size = batch;
    Replay(&spade, w.stream, options);
    testing::ValidateCanonicalSequence(spade.graph(), spade.peel_state());
    testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
  }
}

TEST(ReplayerTest, QueueingLatencyGrowsWithBatchSize) {
  Workload w = SmallFraudWorkload(34);
  double lat_small = 0, lat_large = 0;
  for (std::size_t batch : {1u, 200u}) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
    ReplayOptions options;
    options.batch_size = batch;
    const ReplayReport report = Replay(&spade, w.stream, options);
    ASSERT_GT(report.fraud_latency_micros.count(), 0u);
    (batch == 1 ? lat_small : lat_large) =
        report.fraud_queue_micros.mean();
  }
  // Per-edge processing has no queueing; batch-200 queues for a while.
  EXPECT_GT(lat_large, lat_small);
}

TEST(ReplayerTest, FraudBurstIsDetectedAndPrevented) {
  Workload w = SmallFraudWorkload(35);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
  ReplayOptions options;
  options.batch_size = 1;
  const ReplayReport report = Replay(&spade, w.stream, options);
  // With per-edge detection, each dense burst should be caught before it
  // completes, preventing a substantial share of its transactions.
  int detected = 0;
  for (double t : report.group_detection_time) {
    if (t >= 0) ++detected;
  }
  EXPECT_GT(detected, 0);
  EXPECT_GT(report.prevention_ratio, 0.0);
  EXPECT_LE(report.prevention_ratio, 1.0);
}

TEST(ReplayerTest, EdgeGroupingModeFlushesOnUrgent) {
  Workload w = SmallFraudWorkload(36);
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
  ReplayOptions options;
  options.use_edge_grouping = true;
  const ReplayReport report = Replay(&spade, w.stream, options);
  EXPECT_EQ(report.edges_processed, w.stream.size());
  // Grouping coalesces benign traffic: far fewer flushes than edges.
  EXPECT_LT(report.flushes, w.stream.size());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);  // drained at the end
  testing::ValidateCanonicalSequence(spade.graph(), spade.peel_state());
}

TEST(ReplayerTest, EmptyStream) {
  Spade spade;
  spade.SetSemantics(MakeDG());
  ASSERT_TRUE(spade.BuildGraph(4, std::vector<Edge>{{0, 1, 1.0, 0}}).ok());
  const ReplayReport report = Replay(&spade, LabeledStream{}, {});
  EXPECT_EQ(report.edges_processed, 0u);
  EXPECT_EQ(report.flushes, 0u);
  EXPECT_DOUBLE_EQ(report.prevention_ratio, 0.0);
}

// --- analysis ---

TEST(AnalysisTest, DegreeDistributionCountsAllVertices) {
  DynamicGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  const CountHistogram hist = DegreeDistribution(g);
  EXPECT_EQ(hist.total(), 5u);
  EXPECT_EQ(hist.buckets().at(0), 2u);  // vertices 3, 4
  EXPECT_EQ(hist.buckets().at(1), 2u);  // vertices 1, 2
  EXPECT_EQ(hist.buckets().at(2), 1u);  // vertex 0
}

TEST(AnalysisTest, CommunityStatsMatchDefinition) {
  DynamicGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 7.0).ok());
  Community c;
  c.members = {0, 1, 2};
  c.density = 5.0 / 3.0;
  const CommunityStats stats = AnalyzeCommunity(g, c);
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.internal_edges, 2u);
  EXPECT_DOUBLE_EQ(stats.internal_weight, 5.0);
}

TEST(AnalysisTest, LabelMetricsPrecisionRecall) {
  LabeledStream stream;
  stream.group_vertices = {{1, 2}, {3}};
  Community detected;
  detected.members = {2, 3, 9};  // hits 2 and 3, false-positive 9, misses 1
  const LabelMetrics m = EvaluateAgainstLabels(detected, stream);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(m.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 2.0 / 3.0);
  EXPECT_NEAR(m.F1(), 2.0 / 3.0, 1e-12);
}

TEST(AnalysisTest, EmptyMetricsAreZero) {
  const LabelMetrics m =
      EvaluateAgainstLabels(Community{}, LabeledStream{});
  EXPECT_DOUBLE_EQ(m.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.F1(), 0.0);
}

}  // namespace
}  // namespace spade
