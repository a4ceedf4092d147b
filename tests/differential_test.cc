// Randomized differential tests for the incremental update hot path:
//
//  * mixed InsertEdge / InsertBatchEdges / DeleteEdge streams (with
//    new-vertex edges and parallel edges) driven through the Spade facade
//    under all three built-in semantics, on small graphs and on graphs
//    spanning several 512-slot blocks, asserting the reordered PeelState
//    equals a from-scratch PeelStatic of the final weighted graph exactly,
//  * the O(1) stored-delta gray recovery serving insertion merges,
//  * PeelState's blocked suffix-sum / hull detection against the naive
//    linear suffix scan, under Assign/BumpDelta churn and head insertions,
//  * epoch wrap-around in the engine's stamp arrays.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/incremental_engine.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

using testing::ExpectStateEquals;
using testing::RandomGraph;
using testing::ValidateCanonicalSequence;

// ------------------------------------------------------------------------
// Mixed update streams through the Spade facade, all three semantics.
// ------------------------------------------------------------------------

// One input class: a semantics, the initial vertex-count range
// [min_n, min_n + n_span), the trial count and a seed offset.
struct MixedStreamCase {
  const char* algo;
  std::size_t min_n;
  std::size_t n_span;
  int trials;
  std::uint64_t seed_offset;
};

void PrintTo(const MixedStreamCase& c, std::ostream* os) {
  *os << c.algo << " n=[" << c.min_n << ", " << c.min_n + c.n_span << ")";
}

class MixedStreamTest : public ::testing::TestWithParam<MixedStreamCase> {};

TEST_P(MixedStreamTest, IncrementalMatchesStaticAfterEveryUpdate) {
  const MixedStreamCase param = GetParam();
  const std::string algo = param.algo;
  // Seed off the name's content, not its length, so each semantics replays
  // a distinct stream shape.
  Rng rng(990 + static_cast<std::uint64_t>(algo[0]) * 31 +
          static_cast<std::uint64_t>(algo[1]) + param.seed_offset);
  for (int trial = 0; trial < param.trials; ++trial) {
    std::size_t n = param.min_n + rng.NextBounded(param.n_span);
    Spade spade;
    spade.SetSemantics(MakeSemanticsByName(algo));

    std::vector<Edge> initial;
    for (std::size_t i = 0; i < 2 * n; ++i) {
      auto s = static_cast<VertexId>(rng.NextBounded(n));
      auto d = static_cast<VertexId>(rng.NextBounded(n));
      while (d == s) d = static_cast<VertexId>(rng.NextBounded(n));
      initial.push_back(
          {s, d, static_cast<double>(1 + rng.NextBounded(5)), 0});
    }
    ASSERT_TRUE(spade.BuildGraph(n, initial).ok());
    std::vector<Edge> live = initial;

    for (int step = 0; step < 40; ++step) {
      const std::uint64_t dice = rng.NextBounded(10);
      if (dice < 4) {
        // Single insertion; 1-in-4 of these targets a brand-new vertex id
        // (exercising head insertion), and duplicates of live edges create
        // parallel copies.
        Edge e;
        if (rng.NextBool(0.25)) {
          e.src = static_cast<VertexId>(n + rng.NextBounded(3));
          e.dst = static_cast<VertexId>(rng.NextBounded(n));
          n = std::max<std::size_t>(n, e.src + 1);
        } else if (!live.empty() && rng.NextBool(0.3)) {
          e = live[rng.NextBounded(live.size())];  // parallel edge
        } else {
          e.src = static_cast<VertexId>(rng.NextBounded(n));
          e.dst = static_cast<VertexId>(rng.NextBounded(n));
        }
        while (e.dst == e.src) {
          e.dst = static_cast<VertexId>(rng.NextBounded(n));
        }
        e.weight = static_cast<double>(1 + rng.NextBounded(5));
        ASSERT_TRUE(spade.InsertEdge(e).ok());
        live.push_back(e);
      } else if (dice < 7) {
        // Batch insertion.
        std::vector<Edge> batch;
        const std::size_t batch_size = 1 + rng.NextBounded(8);
        for (std::size_t i = 0; i < batch_size; ++i) {
          auto s = static_cast<VertexId>(rng.NextBounded(n));
          auto d = static_cast<VertexId>(rng.NextBounded(n));
          while (d == s) d = static_cast<VertexId>(rng.NextBounded(n));
          batch.push_back(
              {s, d, static_cast<double>(1 + rng.NextBounded(5)), 0});
        }
        ASSERT_TRUE(spade.InsertBatchEdges(batch).ok());
        live.insert(live.end(), batch.begin(), batch.end());
      } else if (!live.empty()) {
        // Deletion of a random live edge (Spade removes the most recently
        // inserted parallel copy, so drop the last matching entry).
        const std::size_t pick = rng.NextBounded(live.size());
        const Edge victim = live[pick];
        ASSERT_TRUE(spade.DeleteEdge(victim.src, victim.dst).ok());
        for (std::size_t i = live.size(); i-- > 0;) {
          if (live[i].src == victim.src && live[i].dst == victim.dst) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      // The maintained state must equal a from-scratch peel of the final
      // weighted graph. DG/DW weights are integers here, so the comparison
      // is exact, ties included. FD weights are continuous (1/log terms):
      // the incremental and static paths sum them in different orders, so
      // structurally tied vertices can legitimately swap within an ulp —
      // validate canonicality without the tie-break check instead.
      if (algo == "FD") {
        testing::ValidateCanonicalSequence(spade.graph(), spade.peel_state(),
                                           1e-9, /*check_tie_break=*/false);
        const PeelState reference = PeelStatic(spade.graph());
        EXPECT_NEAR(reference.BestDensity(),
                    spade.peel_state().BestDensity(), 1e-9);
      } else {
        const PeelState reference = PeelStatic(spade.graph());
        ExpectStateEquals(reference, spade.peel_state());
        EXPECT_EQ(reference.BestStart(), spade.peel_state().BestStart());
        EXPECT_NEAR(reference.BestDensity(),
                    spade.peel_state().BestDensity(), 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, MixedStreamTest,
    ::testing::Values(MixedStreamCase{"DG", 4, 16, 8, 0},
                      MixedStreamCase{"DW", 4, 16, 8, 0},
                      MixedStreamCase{"FD", 4, 16, 8, 0}));

// 1,536-3,000 vertices: the sequence spans three to six 512-slot blocks, so
// merges, displacement runs and Detect's hulls cross block boundaries. FD
// runs one trial: its O(n^2) canonical validation per step dominates.
INSTANTIATE_TEST_SUITE_P(
    MultiBlock, MixedStreamTest,
    ::testing::Values(MixedStreamCase{"DG", 1536, 1465, 2, 1},
                      MixedStreamCase{"DW", 1536, 1465, 2, 1},
                      MixedStreamCase{"FD", 1536, 1465, 1, 1}));

// ------------------------------------------------------------------------
// Stored-delta recovery.
// ------------------------------------------------------------------------

TEST(RecoveryModeTest, InsertionsUseO1RecoveryNotRescans) {
  Rng rng(7);
  DynamicGraph g = RandomGraph(&rng, 100, 400, 4, 0);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  ReorderStats stats;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    .InsertEdge(&g, &state, testing::RandomEdge(&rng, 100),
                                nullptr, &stats)
                    .ok());
  }
  // Every affected vertex beyond the two endpoints enters the queue through
  // the O(1) recovery, not an incident-list rescan.
  EXPECT_GT(stats.recovery_lookups, 0u);
}

// ------------------------------------------------------------------------
// Blocked detection index vs the naive linear scan.
// ------------------------------------------------------------------------

struct NaiveBest {
  std::size_t start;
  double density;
};

NaiveBest NaiveScan(const PeelState& state) {
  const std::size_t n = state.size();
  double suffix = 0.0;
  double best = 0.0;
  std::size_t best_start = n;
  for (std::size_t i = n; i-- > 0;) {
    suffix += state.DeltaAt(i);
    const double density = suffix / static_cast<double>(n - i);
    if (density >= best) {
      best = density;
      best_start = i;
    }
  }
  return {best_start, best};
}

TEST(BlockedDetectTest, MatchesNaiveScanUnderChurn) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    // Sizes straddling several block widths, including exact multiples.
    const std::size_t n = 1 + rng.NextBounded(700);
    PeelState state(n);
    for (std::size_t v = 0; v < n; ++v) {
      // Small integer deltas force plenty of exact density ties, which must
      // resolve to the smallest start exactly like the linear scan.
      state.Append(static_cast<VertexId>(v),
                   static_cast<double>(rng.NextBounded(4)));
    }
    for (int round = 0; round < 30; ++round) {
      const NaiveBest expect = NaiveScan(state);
      EXPECT_EQ(expect.start, state.BestStart());
      EXPECT_DOUBLE_EQ(expect.density, state.BestDensity());
      const std::size_t k = rng.NextBounded(state.size() + 1);
      double suffix = 0.0;
      for (std::size_t i = k; i < state.size(); ++i) {
        suffix += state.DeltaAt(i);
      }
      EXPECT_NEAR(suffix, state.SuffixWeight(k), 1e-9);
      // Churn: rewrite a span (Assign keeps the vertex/position bijection by
      // swapping two entries), bump a delta, occasionally insert at head.
      const std::size_t i = rng.NextBounded(state.size());
      const std::size_t j = rng.NextBounded(state.size());
      const VertexId vi = state.VertexAt(i);
      const VertexId vj = state.VertexAt(j);
      const double di = state.DeltaAt(i);
      const double dj = state.DeltaAt(j);
      state.Assign(i, vj, dj);
      state.Assign(j, vi, di);
      state.BumpDelta(rng.NextBounded(state.size()),
                      static_cast<double>(rng.NextBounded(3)));
    }
  }
}

TEST(BlockedDetectTest, HeadInsertionStressMatchesNaive) {
  Rng rng(555);
  PeelState state(8);
  for (std::size_t v = 0; v < 8; ++v) {
    state.Append(static_cast<VertexId>(v),
                 static_cast<double>(1 + rng.NextBounded(4)));
  }
  // Hundreds of head insertions cross several front-slack regrowths; every
  // existing position must shift by exactly one each time and detection must
  // stay exact.
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<VertexId>(8 + i);
    const VertexId old_head = state.VertexAt(0);
    state.InsertVertexAtHead(v, static_cast<double>(rng.NextBounded(3)));
    ASSERT_EQ(state.VertexAt(0), v);
    ASSERT_EQ(state.PositionOf(v), 0u);
    ASSERT_EQ(state.PositionOf(old_head), 1u);
    if (i % 37 == 0) {
      const NaiveBest expect = NaiveScan(state);
      ASSERT_EQ(expect.start, state.BestStart());
      ASSERT_DOUBLE_EQ(expect.density, state.BestDensity());
    }
  }
  ASSERT_EQ(state.size(), 508u);
  for (std::size_t i = 0; i < state.size(); ++i) {
    ASSERT_EQ(state.PositionOf(state.VertexAt(i)), i);
  }
}

// Blocked+SIMD detection vs the naive linear scan, exercised on EVERY
// dispatch target compiled into this binary (the sanitizer legs build
// scalar-only; the AVX2 CI leg sweeps scalar/sse2/avx2 here). Integer
// deltas make every density tie exact, so start positions must match the
// reference scan tie-for-tie, while base_ is steered through mid-block
// values by head insertions and across GrowFront arena relocations.
TEST(BlockedDetectTest, DispatchTargetsTieExactAcrossHeadSlackAndGrowth) {
  for (const auto& target : simd::CompiledSimdTargets()) {
    SCOPED_TRACE(target.name);
    simd::SetSimdTargetForTesting(&target);
    Rng rng(808);
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t n0 = 1 + rng.NextBounded(600);
      PeelState state(n0);
      for (std::size_t v = 0; v < n0; ++v) {
        state.Append(static_cast<VertexId>(v),
                     static_cast<double>(rng.NextBounded(4)));
      }
      VertexId next = static_cast<VertexId>(n0);
      for (int round = 0; round < 120; ++round) {
        // A fresh head insertion every round decrements base_ through every
        // offset within its block and forces several GrowFront relocations
        // per trial (the arena copy must land blocks/hulls on the new
        // stride without disturbing tie resolution).
        state.InsertVertexAtHead(next++,
                                 static_cast<double>(rng.NextBounded(3)));
        state.BumpDelta(rng.NextBounded(state.size()),
                        static_cast<double>(rng.NextBounded(3)));
        if (round % 7 == 0) {
          const NaiveBest expect = NaiveScan(state);
          ASSERT_EQ(expect.start, state.BestStart());
          ASSERT_DOUBLE_EQ(expect.density, state.BestDensity());
          double suffix = 0.0;
          const std::size_t k = rng.NextBounded(state.size() + 1);
          for (std::size_t i = k; i < state.size(); ++i) {
            suffix += state.DeltaAt(i);
          }
          EXPECT_DOUBLE_EQ(suffix, state.SuffixWeight(k));
        }
      }
    }
  }
  simd::SetSimdTargetForTesting(nullptr);
}

// The bit-identity contract end to end: with continuous (non-integer)
// deltas, Detect must return the same density BITS on every compiled
// dispatch target — the whole point of the canonical association orders.
TEST(BlockedDetectTest, DetectBitIdenticalAcrossDispatchTargets) {
  const auto targets = simd::CompiledSimdTargets();
  Rng rng(6060);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(1400);
    std::vector<double> deltas(n);
    for (auto& d : deltas) {
      d = static_cast<double>(rng.NextBounded(1 << 20)) / 1048576.0 * 3.7;
    }
    double ref_density = 0.0;
    std::size_t ref_start = 0;
    for (std::size_t ti = 0; ti < targets.size(); ++ti) {
      simd::SetSimdTargetForTesting(&targets[ti]);
      PeelState state(n);
      for (std::size_t v = 0; v < n; ++v) {
        state.Append(static_cast<VertexId>(v), deltas[v]);
      }
      const double density = state.BestDensity();
      const std::size_t start = state.BestStart();
      if (ti == 0) {
        ref_density = density;
        ref_start = start;
      } else {
        EXPECT_EQ(std::memcmp(&density, &ref_density, sizeof density), 0)
            << targets[ti].name << " vs " << targets[0].name
            << " trial " << trial;
        EXPECT_EQ(start, ref_start) << targets[ti].name;
      }
    }
  }
  simd::SetSimdTargetForTesting(nullptr);
}

// ------------------------------------------------------------------------
// Epoch wrap-around.
// ------------------------------------------------------------------------

TEST(EpochWrapTest, StaleStampsDoNotAliasAcrossWrap) {
  Rng rng(99);
  DynamicGraph g = RandomGraph(&rng, 20, 60, 5, 2);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  // First update runs at epoch 1, stamping colors/emitted/recovery slots
  // with 1. Jumping to the max epoch makes the next bump wrap back to 1 —
  // without the wrap fix those ancient stamps read as current and corrupt
  // the merge.
  ASSERT_TRUE(engine
                  .InsertEdge(&g, &state, testing::RandomEdge(&rng, 20),
                              nullptr, nullptr)
                  .ok());
  engine.ForceEpochForTesting(0xFFFFFFFFu);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine
                    .InsertEdge(&g, &state, testing::RandomEdge(&rng, 20),
                                nullptr, nullptr)
                    .ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
}

}  // namespace
}  // namespace spade
