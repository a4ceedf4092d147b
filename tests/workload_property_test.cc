// Cross-cutting property sweep: every (dataset profile x semantics x
// batching policy) combination must leave the detector in a structurally
// valid canonical peeling, with all replay metrics well-formed.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "datagen/workload.h"
#include "peel/static_peeler.h"
#include "stream/replayer.h"
#include "tests/test_util.h"

namespace spade {
namespace {

using Param = std::tuple<std::string, std::string, std::size_t>;

class WorkloadSweepTest : public ::testing::TestWithParam<Param> {};

TEST_P(WorkloadSweepTest, ReplayLeavesValidState) {
  const auto& [profile, semantics, batch] = GetParam();
  FraudMix mix;
  mix.instances_per_pattern = 1;
  mix.transactions_per_instance = 40;
  const bool transaction_profile = profile.rfind("Grab", 0) == 0;
  const Workload w = BuildWorkload(profile, transaction_profile ? 0.0003 : 0.02,
                                   /*seed=*/1234,
                                   transaction_profile ? &mix : nullptr);
  ASSERT_GT(w.stream.size(), 0u);

  Spade spade;
  spade.SetSemantics(MakeSemanticsByName(semantics));
  ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());

  ReplayOptions options;
  if (batch == 0) {
    options.use_edge_grouping = true;
  } else {
    options.batch_size = batch;
  }
  const ReplayReport report = Replay(&spade, w.stream, options);

  // Metrics sanity.
  EXPECT_EQ(report.edges_processed, w.stream.size());
  EXPECT_GE(report.flushes, 1u);
  EXPECT_GE(report.prevention_ratio, 0.0);
  EXPECT_LE(report.prevention_ratio, 1.0);
  EXPECT_GE(report.total_process_micros, 0.0);
  EXPECT_EQ(spade.graph().NumEdges(), w.initial.size() + w.stream.size());

  // The final peeling is canonical, tie order included: admission put
  // every semantics weight on the grid, so every sum is exact.
  testing::ValidateCanonicalSequence(spade.graph(), spade.peel_state());

  // The detected community's density matches the definitional recompute.
  const Community c = spade.Detect();
  if (!c.members.empty()) {
    double f = 0.0;
    std::vector<char> in_set(spade.graph().NumVertices(), 0);
    for (VertexId v : c.members) in_set[v] = 1;
    for (VertexId v : c.members) {
      f += spade.graph().VertexWeight(v);
      for (const auto& e : spade.graph().OutNeighbors(v)) {
        if (in_set[e.vertex]) f += e.weight;
      }
    }
    EXPECT_NEAR(c.density, f / static_cast<double>(c.members.size()), 1e-6);
  }
}

std::string SweepName(const ::testing::TestParamInfo<Param>& info) {
  const std::string profile = std::get<0>(info.param);
  const std::string semantics = std::get<1>(info.param);
  const std::size_t batch = std::get<2>(info.param);
  std::string name = profile + "_" + semantics + "_";
  name += batch == 0 ? "grouping" : "batch" + std::to_string(batch);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesSemanticsBatches, WorkloadSweepTest,
    ::testing::Combine(
        ::testing::Values("Grab1", "Grab4", "Amazon", "Wiki-Vote"),
        ::testing::Values("DG", "DW", "FD"),
        ::testing::Values(std::size_t{1}, std::size_t{64},
                          std::size_t{0} /* edge grouping */)),
    SweepName);

}  // namespace
}  // namespace spade
