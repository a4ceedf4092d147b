// Randomized differential suite for the window-bearing detectors:
// TimeWindowDetector and PeriodDetector are checked step by step against a
// from-scratch rebuild (PeelStatic over the reference window contents), so
// the insert path, the expiry/delete path and their interleavings must all
// agree with the definition. Also pins the two window-detector seam fixes:
// a rejected Offer leaves the detector untouched (no expiry side effects),
// and monotonicity survives the window draining empty. The core-level
// differential drives the window log itself — one Spade configured the way
// a windowed service partition runs it — with late arrivals, random
// horizons and a mid-stream save/restore.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/period_detector.h"
#include "core/spade.h"
#include "core/time_window.h"
#include "graph/dynamic_graph.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

/// Rebuilds the window's graph from the reference edge list (applied
/// semantic weights) and peels it statically.
PeelState ReferenceState(std::size_t n, const std::deque<Edge>& window,
                         DynamicGraph* out) {
  DynamicGraph g(n);
  for (const Edge& e : window) {
    EXPECT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
  }
  if (out != nullptr) *out = g;
  return PeelStatic(g);
}

TEST(TimeWindowSeamTest, RejectedOfferLeavesDetectorUntouched) {
  const std::size_t n = 6;
  TimeWindowDetector detector(n, /*window_span=*/100, MakeDW());
  ASSERT_TRUE(detector.Offer({0, 1, 3.0, 10}).ok());
  ASSERT_TRUE(detector.Offer({1, 2, 2.0, 50}).ok());
  ASSERT_TRUE(detector.Offer({2, 3, 5.0, 90}).ok());
  const std::size_t edges_before = detector.graph().NumEdges();
  const Community before = detector.Detect();

  // Unknown endpoint at a far-future timestamp: the rejection must happen
  // BEFORE time advances, or the failed Offer would still expire the whole
  // window as a side effect.
  EXPECT_FALSE(detector.Offer({99, 0, 1.0, 1000}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 3u);
  EXPECT_EQ(detector.graph().NumEdges(), edges_before);
  const Community after = detector.Detect();
  EXPECT_EQ(after.members, before.members);
  EXPECT_DOUBLE_EQ(after.density, before.density);

  // Out-of-order timestamp: same guarantee.
  EXPECT_FALSE(detector.Offer({0, 2, 1.0, 5}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 3u);
  EXPECT_EQ(detector.graph().NumEdges(), edges_before);

  // A self-loop and a non-positive raw weight are wrong whatever the
  // window holds, so they too must be rejected before time advances.
  EXPECT_FALSE(detector.Offer({4, 4, 1.0, 1000}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 3u);
  EXPECT_EQ(detector.graph().NumEdges(), edges_before);
  EXPECT_FALSE(detector.Offer({2, 3, -1.0, 1000}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 3u);
  EXPECT_EQ(detector.graph().NumEdges(), edges_before);
}

TEST(TimeWindowSeamTest, MonotonicitySurvivesEmptyWindow) {
  TimeWindowDetector detector(4, /*window_span=*/50, MakeDG());
  ASSERT_TRUE(detector.Offer({0, 1, 1.0, 10}).ok());
  // Drain the window completely, then try to reopen the past: with the
  // monotonicity check anchored on window_.back().ts this would be
  // accepted (the window is empty), silently running time backwards.
  ASSERT_TRUE(detector.AdvanceTo(1000).ok());
  ASSERT_EQ(detector.WindowEdgeCount(), 0u);
  EXPECT_FALSE(detector.Offer({1, 2, 1.0, 500}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 0u);
  // Equal-to-high-water timestamps stay allowed (ties arrive together).
  EXPECT_TRUE(detector.Offer({1, 2, 1.0, 1000}).ok());
  EXPECT_EQ(detector.WindowEdgeCount(), 1u);
}

TEST(TimeWindowDifferentialTest, RandomizedStreamMatchesRebuild) {
  Rng rng(2024);
  const std::size_t n = 16;
  const Timestamp span = 200;
  TimeWindowDetector detector(n, span, MakeDW());
  std::deque<Edge> reference;
  Timestamp now = 0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<Timestamp>(rng.NextBounded(30));
    if (rng.NextBounded(10) == 0) {
      // Idle tick: expiry with no insertion.
      ASSERT_TRUE(detector.AdvanceTo(now).ok());
    } else {
      Edge e = testing::RandomEdge(&rng, n);
      e.ts = now;
      ASSERT_TRUE(detector.Offer(e).ok());
      reference.push_back(e);  // DW applies the raw weight unchanged
    }
    while (!reference.empty() && reference.front().ts < now - span) {
      reference.pop_front();
    }
    ASSERT_EQ(detector.WindowEdgeCount(), reference.size());
    if (step % 10 == 9) {
      DynamicGraph want_graph;
      const PeelState want = ReferenceState(n, reference, &want_graph);
      ASSERT_EQ(detector.graph().NumEdges(), want_graph.NumEdges());
      testing::ExpectStateEquals(want, detector.peel_state());
    }
  }
}

TEST(PeriodDifferentialTest, RandomizedRetargetsMatchRebuild) {
  // Same differential discipline for the period detector, sweeping random
  // retargets under both built-in semantics whose weights are pure edge
  // functions (a from-scratch rebuild is exact for those).
  for (const auto& sem : {MakeDW(), MakeDG()}) {
    Rng rng(sem.name == "DW" ? 7001 : 7002);
    const std::size_t n = 14;
    std::vector<Edge> log;
    for (std::size_t i = 0; i < 150; ++i) {
      Edge e = testing::RandomEdge(&rng, n);
      e.ts = static_cast<Timestamp>(10 * (i + 1));
      log.push_back(e);
    }
    PeriodDetector detector(n, log, sem);
    DynamicGraph unused(n);
    for (int step = 0; step < 20; ++step) {
      const Timestamp begin =
          static_cast<Timestamp>(rng.NextBounded(1300));
      const Timestamp end =
          begin + static_cast<Timestamp>(40 + rng.NextBounded(500));
      ASSERT_TRUE(detector.SetPeriod(begin, end).ok());
      std::deque<Edge> window;
      for (const Edge& e : log) {
        if (e.ts >= begin && e.ts <= end) {
          Edge applied = e;
          applied.weight = sem.esusp(e, unused);
          window.push_back(applied);
        }
      }
      const PeelState want = ReferenceState(n, window, nullptr);
      testing::ExpectStateEquals(want, detector.peel_state());
    }
  }
}

/// (src, dst, weight) triples, sorted: a multiset of weighted edges.
using EdgeBag = std::vector<std::tuple<VertexId, VertexId, double>>;

EdgeBag GraphBag(const DynamicGraph& g) {
  EdgeBag bag;
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    for (const NeighborEntry& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      bag.emplace_back(static_cast<VertexId>(v), e.vertex, e.weight);
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

Spade MakeWindowedSpade(const std::string& algo, std::size_t n) {
  Spade spade;
  spade.SetSemantics(MakeSemanticsByName(algo));
  spade.TurnOnEdgeGrouping();
  spade.TurnOnWindowLog();
  EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
  return spade;
}

/// The window-log invariants after one step: the log holds exactly the
/// reference's admitted-not-retired edges in arrival order; the graph holds
/// the log minus its benign-buffered tail (a retire pass or urgent edge
/// flushes the whole buffer, so buffered edges are always the newest log
/// entries), at the logged applied weights; and the peel state equals a
/// static peel of the graph.
void ExpectWindowInvariants(const Spade& spade,
                            const std::deque<Edge>& reference) {
  const std::deque<Edge>& window = spade.window();
  ASSERT_EQ(window.size(), reference.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window[i].src, reference[i].src) << "log entry " << i;
    ASSERT_EQ(window[i].dst, reference[i].dst) << "log entry " << i;
    ASSERT_EQ(window[i].ts, reference[i].ts) << "log entry " << i;
  }
  const std::size_t pending = spade.PendingBenignEdges();
  ASSERT_LE(pending, window.size());
  EdgeBag logged;
  for (std::size_t i = 0; i + pending < window.size(); ++i) {
    logged.emplace_back(window[i].src, window[i].dst, window[i].weight);
  }
  std::sort(logged.begin(), logged.end());
  ASSERT_EQ(GraphBag(spade.graph()), logged);

  // Every applied weight is on the grid, continuous ones included, so the
  // static peel matches tie for tie and bit for bit.
  const PeelState reference_state = PeelStatic(spade.graph());
  testing::ExpectStateEquals(reference_state, spade.peel_state());
  EXPECT_EQ(reference_state.BestStart(), spade.peel_state().BestStart());
  EXPECT_EQ(reference_state.BestDensity(), spade.peel_state().BestDensity());
}

/// Bit-level equality of two detectors that were fed the same history.
void ExpectSameDetector(const Spade& expected, const Spade& actual) {
  testing::ExpectStateEquals(expected.peel_state(), actual.peel_state(), 0.0);
  EXPECT_EQ(GraphBag(expected.graph()), GraphBag(actual.graph()));
  EXPECT_EQ(expected.PendingBenignEdges(), actual.PendingBenignEdges());
  ASSERT_EQ(expected.window().size(), actual.window().size());
  for (std::size_t i = 0; i < expected.window().size(); ++i) {
    EXPECT_EQ(expected.window()[i], actual.window()[i]) << "log entry " << i;
  }
}

// A semantics, and whether raw weights are continuous (1 + 9u) rather
// than small integers. FD weights are continuous either way.
struct WindowedCase {
  const char* algo;
  bool continuous;
};

void PrintTo(const WindowedCase& c, std::ostream* os) {
  *os << c.algo << (c.continuous ? " continuous" : "");
}

class WindowedSpadeDifferentialTest
    : public ::testing::TestWithParam<WindowedCase> {};

// One Spade with the window log and edge grouping on — how the service
// runs every windowed partition — fed a random stream with ~10% late
// arrivals, single and batched admissions, and random RetireOlderThan
// horizons (monotone or not). Halfway, a SaveState/RestoreState copy joins
// and is fed the same history. Admission puts every weight on the grid,
// so every sum is exact: the copy stays bit-identical with the live
// detector to the end under every semantics, and both equal a static peel
// after every step, on every compiled dispatch target.
TEST_P(WindowedSpadeDifferentialTest, LogGraphAndPeelAgreeAfterEveryStep) {
  const std::string algo = GetParam().algo;
  const bool continuous = GetParam().continuous;
  constexpr std::size_t kMaxVertices = 64;
  constexpr Timestamp kSpan = 150;
  constexpr int kSteps = 400;
  const std::string path = ::testing::TempDir() +
                           "/spade_window_differential_" + algo + ".bin";
  for (const auto& target : simd::CompiledSimdTargets()) {
    SCOPED_TRACE(target.name);
    simd::SetSimdTargetForTesting(&target);
    for (int trial = 0; trial < 6; ++trial) {
      Rng rng(4242 + static_cast<std::uint64_t>(algo[0]) * 7 +
              static_cast<std::uint64_t>(algo[1]) + 1000 * trial +
              (continuous ? 500 : 0));
      std::vector<Spade> detectors;
      detectors.push_back(MakeWindowedSpade(algo, 8));
      std::deque<Edge> reference;  // arrival order; weights unused
      Timestamp now = 0;
      const auto next_edge = [&] {
        Edge e = testing::RandomEdge(&rng, kMaxVertices);
        if (continuous) e.weight = 1.0 + 9.0 * rng.NextDouble();
        now += static_cast<Timestamp>(rng.NextBounded(12));
        e.ts = now;
        if (rng.NextBounded(10) == 0) {
          e.ts -= static_cast<Timestamp>(1 + rng.NextBounded(2 * kSpan));
        }
        return e;
      };
      for (int step = 0; step < kSteps; ++step) {
        if (step == kSteps / 2) {
          ASSERT_TRUE(detectors[0].SaveState(path).ok());
          Spade copy = MakeWindowedSpade(algo, 0);
          ASSERT_TRUE(copy.RestoreState(path).ok());
          std::remove(path.c_str());
          detectors.push_back(std::move(copy));
          ExpectSameDetector(detectors[0], detectors[1]);
        }
        const std::uint64_t dice = rng.NextBounded(10);
        if (dice < 5) {
          const std::size_t count = 1 + rng.NextBounded(4);
          for (std::size_t i = 0; i < count; ++i) {
            const Edge e = next_edge();
            for (Spade& spade : detectors) {
              ASSERT_TRUE(spade.ApplyEdge(e).ok());
            }
            reference.push_back(e);
          }
        } else if (dice < 7) {
          std::vector<Edge> batch(1 + rng.NextBounded(6));
          for (Edge& e : batch) e = next_edge();
          for (Spade& spade : detectors) {
            ASSERT_TRUE(spade.ApplyBatchEdges(batch).ok());
          }
          reference.insert(reference.end(), batch.begin(), batch.end());
        } else {
          const Timestamp horizon =
              now - static_cast<Timestamp>(rng.NextBounded(2 * kSpan));
          std::size_t expected = 0;
          while (expected < reference.size() &&
                 reference[expected].ts < horizon) {
            ++expected;
          }
          for (Spade& spade : detectors) {
            const auto retired = spade.RetireOlderThan(horizon);
            ASSERT_TRUE(retired.ok()) << retired.status().ToString();
            ASSERT_EQ(retired.value().size(), expected);
            for (std::size_t i = 0; i < expected; ++i) {
              EXPECT_EQ(retired.value()[i].src, reference[i].src);
              EXPECT_EQ(retired.value()[i].dst, reference[i].dst);
              EXPECT_EQ(retired.value()[i].ts, reference[i].ts);
            }
          }
          reference.erase(reference.begin(),
                          reference.begin() +
                              static_cast<std::ptrdiff_t>(expected));
        }
        for (const Spade& spade : detectors) {
          ExpectWindowInvariants(spade, reference);
          if (::testing::Test::HasFatalFailure()) return;
        }
        if (detectors.size() == 2) {
          ExpectSameDetector(detectors[0], detectors[1]);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
    simd::SetSimdTargetForTesting(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, WindowedSpadeDifferentialTest,
                         ::testing::Values(WindowedCase{"DG", false},
                                           WindowedCase{"DW", false},
                                           WindowedCase{"DW", true},
                                           WindowedCase{"FD", false}));

// While the window log is on, expiry is the only way a logged edge leaves:
// the two unlogged delete paths refuse and change nothing.
TEST(WindowedSpadeTest, UnloggedDeletesRefuseWhileTheLogIsOn) {
  Spade spade = MakeWindowedSpade("DW", 4);
  ASSERT_TRUE(spade.ApplyEdge({0, 1, 2.0, 10}).ok());
  const Status del = spade.DeleteEdge(0, 1);
  EXPECT_EQ(del.code(), StatusCode::kFailedPrecondition) << del.ToString();
  const Edge logged{0, 1, 2.0, 10};
  const Status retire = spade.RetireEdges(std::span<const Edge>(&logged, 1));
  EXPECT_EQ(retire.code(), StatusCode::kFailedPrecondition)
      << retire.ToString();
  EXPECT_EQ(spade.graph().NumEdges() + spade.PendingBenignEdges(), 1u);
  EXPECT_EQ(spade.window().size(), 1u);
}

// Only a pass that retires something flushes the benign buffer: a pass
// that finds nothing old enough keeps grouping's amortization, and the
// buffer stays the window log's tail (which chain replay relies on).
TEST(WindowedSpadeTest, OnlyAPassThatRetiresFlushes) {
  Spade spade = MakeWindowedSpade("DW", 6);
  // A heavy triangle sets the density at 100, so a light edge is benign.
  for (const Edge& e : std::vector<Edge>{
           {0, 1, 100.0, 10}, {1, 2, 100.0, 11}, {2, 0, 100.0, 12}}) {
    ASSERT_TRUE(spade.ApplyEdge(e).ok());
  }
  ASSERT_TRUE(spade.ApplyEdge({3, 4, 1.0, 50}).ok());
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);

  const auto none = spade.RetireOlderThan(10);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
  EXPECT_EQ(spade.PendingBenignEdges(), 1u);

  const auto one = spade.RetireOlderThan(11);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().size(), 1u);
  EXPECT_EQ(one.value()[0], (Edge{0, 1, 100.0, 10}));
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 3u);
}

}  // namespace
}  // namespace spade
