// Randomized differential tests for the incremental update hot path:
//
//  * mixed InsertEdge / InsertBatchEdges / DeleteEdge streams (with
//    new-vertex edges and parallel edges) driven through the Spade facade
//    under all three built-in semantics, integer and continuous weights,
//    on small graphs and on graphs spanning several 512-slot blocks, on
//    every compiled dispatch target, asserting the reordered PeelState
//    equals a from-scratch PeelStatic of the final weighted graph exactly,
//  * the O(1) stored-delta gray recovery serving insertion merges,
//  * PeelState's blocked suffix-sum / hull detection against the naive
//    linear suffix scan, under Assign/BumpDelta churn and head insertions,
//    and its bound-pruned walk on states of up to 80 blocks, planted
//    corner cases and a DG replay,
//  * the merge's bulk scan over untouched slots: a tie-exact insert-heavy
//    differential on 20k vertices, a multi-word deletion stream between
//    inserts, a merge right after an epoch wrap, and bounds on the slots
//    classified one at a time where probes once ran free (inserts into an
//    isolated head), where runs lead (retires back into it) and where
//    equal-delta runs are long (a DG replay), on every dispatch target,
//  * epoch wrap-around in the engine's stamp arrays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/incremental_engine.h"
#include "core/spade.h"
#include "datagen/workload.h"
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

// One input class: a semantics, whether raw weights are continuous (1 + 9u,
// the amount shape of bench_checkpoint) or small integers, the initial
// vertex-count range [min_n, min_n + n_span), the trial count and a seed
// offset. FD weights are continuous either way (1/log terms).
struct MixedStreamCase {
  const char* algo;
  bool continuous;
  std::size_t min_n;
  std::size_t n_span;
  int trials;
  std::uint64_t seed_offset;
};

void PrintTo(const MixedStreamCase& c, std::ostream* os) {
  *os << c.algo << (c.continuous ? " continuous" : "") << " n=[" << c.min_n
      << ", " << c.min_n + c.n_span << ")";
}

class MixedStreamTest : public ::testing::TestWithParam<MixedStreamCase> {};

// Admission rounds every weight onto the 2^-20 grid, so every sum the
// incremental and static paths take is exact: the maintained state equals
// a from-scratch peel of the final weighted graph bit for bit, ties
// included, under every semantics and on every compiled dispatch target.
TEST_P(MixedStreamTest, IncrementalMatchesStaticAfterEveryUpdate) {
  const MixedStreamCase param = GetParam();
  const std::string algo = param.algo;
  for (const auto& target : simd::CompiledSimdTargets()) {
    SCOPED_TRACE(target.name);
    simd::SetSimdTargetForTesting(&target);
    // Seed off the name's content, not its length, so each semantics
    // replays a distinct stream shape.
    Rng rng(990 + static_cast<std::uint64_t>(algo[0]) * 31 +
            static_cast<std::uint64_t>(algo[1]) + param.seed_offset);
    const auto raw_weight = [&] {
      return param.continuous
                 ? 1.0 + 9.0 * rng.NextDouble()
                 : static_cast<double>(1 + rng.NextBounded(5));
    };
    for (int trial = 0; trial < param.trials; ++trial) {
      std::size_t n = param.min_n + rng.NextBounded(param.n_span);
      // The O(n * (n + E)) definitional check runs after every update on
      // small graphs, once per trial on multi-block ones.
      const bool validate_every_step = n < 100;
      Spade spade;
      spade.SetSemantics(MakeSemanticsByName(algo));

      std::vector<Edge> initial;
      for (std::size_t i = 0; i < 2 * n; ++i) {
        auto s = static_cast<VertexId>(rng.NextBounded(n));
        auto d = static_cast<VertexId>(rng.NextBounded(n));
        while (d == s) d = static_cast<VertexId>(rng.NextBounded(n));
        initial.push_back({s, d, raw_weight(), 0});
      }
      ASSERT_TRUE(spade.BuildGraph(n, initial).ok());
      std::vector<Edge> live = initial;

      for (int step = 0; step < 40; ++step) {
        const std::uint64_t dice = rng.NextBounded(10);
        if (dice < 4) {
          // Single insertion; 1-in-4 of these targets a brand-new vertex
          // id (exercising head insertion), and duplicates of live edges
          // create parallel copies.
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
          e.weight = raw_weight();
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
            batch.push_back({s, d, raw_weight(), 0});
          }
          ASSERT_TRUE(spade.InsertBatchEdges(batch).ok());
          live.insert(live.end(), batch.begin(), batch.end());
        } else if (!live.empty()) {
          // Deletion of a random live edge (Spade removes the most
          // recently inserted parallel copy, so drop the last matching
          // entry).
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
        const PeelState reference = PeelStatic(spade.graph());
        ExpectStateEquals(reference, spade.peel_state());
        EXPECT_EQ(reference.BestStart(), spade.peel_state().BestStart());
        EXPECT_EQ(reference.BestDensity(), spade.peel_state().BestDensity());
        if (validate_every_step) {
          ValidateCanonicalSequence(spade.graph(), spade.peel_state());
        }
        if (::testing::Test::HasFatalFailure()) break;
      }
      ValidateCanonicalSequence(spade.graph(), spade.peel_state());
      if (::testing::Test::HasFatalFailure()) break;
    }
    simd::SetSimdTargetForTesting(nullptr);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, MixedStreamTest,
    ::testing::Values(MixedStreamCase{"DG", false, 4, 16, 8, 0},
                      MixedStreamCase{"DW", false, 4, 16, 8, 0},
                      MixedStreamCase{"DW", true, 4, 16, 8, 2},
                      MixedStreamCase{"FD", false, 4, 16, 8, 0}));

// 1,536-3,000 vertices: the sequence spans three to six 512-slot blocks, so
// merges, displacement runs and Detect's hulls cross block boundaries.
INSTANTIATE_TEST_SUITE_P(
    MultiBlock, MixedStreamTest,
    ::testing::Values(MixedStreamCase{"DG", false, 1536, 1465, 2, 1},
                      MixedStreamCase{"DW", false, 1536, 1465, 2, 1},
                      MixedStreamCase{"DW", true, 1536, 1465, 2, 3},
                      MixedStreamCase{"FD", false, 1536, 1465, 1, 1}));

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
    ASSERT_TRUE(
        engine.InsertEdge(&g, &state, testing::RandomEdge(&rng, 100), &stats)
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

// Blocked detection vs the naive linear scan while base_ is steered
// through mid-block values by head insertions and across GrowFront arena
// relocations. Integer deltas make every density tie exact, so start
// positions must match the reference scan tie-for-tie.
TEST(BlockedDetectTest, TieExactAcrossHeadSlackAndGrowth) {
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
      // per trial (the arena copy must land blocks/hulls on the new stride
      // without disturbing tie resolution).
      state.InsertVertexAtHead(next++,
                               static_cast<double>(rng.NextBounded(3)));
      state.BumpDelta(rng.NextBounded(state.size()),
                      static_cast<double>(rng.NextBounded(3)));
      if (round % 7 == 0) {
        const NaiveBest expect = NaiveScan(state);
        ASSERT_EQ(expect.start, state.BestStart());
        ASSERT_DOUBLE_EQ(expect.density, state.BestDensity());
      }
    }
  }
}

// ------------------------------------------------------------------------
// Bound-pruned Detect. The walk skips a block whose largest within-block
// suffix sum cannot reach the incumbent, keeping its stale hull; the answer
// must still equal the linear scan's bit for bit. Integer deltas make every
// tie exact. The case that drives the engine runs on each dispatch target,
// since the merge calls simd::FirstKeyAbove.
// ------------------------------------------------------------------------

constexpr std::size_t kBlock = 512;  // PeelState's block width

/// A state holding `deltas` in order, vertex i at position i.
PeelState StateOf(const std::vector<double>& deltas) {
  PeelState state(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    state.Append(static_cast<VertexId>(i), deltas[i]);
  }
  return state;
}

/// Asserts the blocked walk's answer equals the linear scan's exactly.
void ExpectNaive(const PeelState& state) {
  const NaiveBest expect = NaiveScan(state);
  ASSERT_EQ(expect.start, state.BestStart());
  ASSERT_EQ(expect.density, state.BestDensity());
}

/// Runs `body` once under each compiled dispatch target.
template <typename Body>
void ForEachTarget(Body&& body) {
  for (const auto& target : simd::CompiledSimdTargets()) {
    SCOPED_TRACE(target.name);
    simd::SetSimdTargetForTesting(&target);
    body();
    simd::SetSimdTargetForTesting(nullptr);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Deltas of an n-slot state: zeros before `start`, the `peak` values from
/// `start` on, and `rest` for every later slot.
std::vector<double> Planted(std::size_t n, std::size_t start,
                            const std::vector<double>& peak, double rest) {
  std::vector<double> deltas(n, 0.0);
  std::copy(peak.begin(), peak.end(),
            deltas.begin() + static_cast<std::ptrdiff_t>(start));
  std::fill(deltas.begin() + static_cast<std::ptrdiff_t>(start + peak.size()),
            deltas.end(), rest);
  return deltas;
}

// 24-80 blocks of a dense core over a sparse background, so the winner
// starts anywhere from the head block to the tail block, under the churn
// the engine produces: swaps, displacement runs over several blocks,
// bumps of either sign and head insertions.
TEST(BlockedDetectTest, PrunedWalkMatchesNaiveOnLargeStatesUnderChurn) {
  Rng rng(4242);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 12000 + rng.NextBounded(28001);
    const std::size_t len = n / 8 + rng.NextBounded(3 * n / 8);
    const std::size_t core = rng.NextBounded(n - len + 1);
    std::vector<double> deltas(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool in_core = i >= core && i < core + len;
      deltas[i] = static_cast<double>(in_core ? 3 + rng.NextBounded(3)
                                              : rng.NextBounded(3));
    }
    PeelState state = StateOf(deltas);
    auto next = static_cast<VertexId>(n);
    std::vector<VertexId> run_v;
    std::vector<double> run_d;
    for (int step = 0; step < 40; ++step) {
      ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
      const std::size_t size = state.size();
      const std::size_t i = rng.NextBounded(size);
      switch (rng.NextBounded(5)) {
        case 0: {  // swap two slots
          const std::size_t j = rng.NextBounded(size);
          const VertexId vi = state.VertexAt(i), vj = state.VertexAt(j);
          const double di = state.DeltaAt(i), dj = state.DeltaAt(j);
          state.Assign(i, vj, dj);
          state.Assign(j, vi, di);
          break;
        }
        case 1: {  // a displacement run: rotate [i, i + m) right by one
          const std::size_t m =
              1 + rng.NextBounded(std::min(size - i, 4 * kBlock));
          const auto seq = state.seq().subspan(i, m);
          const auto del = state.delta().subspan(i, m);
          run_v.assign(seq.begin(), seq.end());
          run_d.assign(del.begin(), del.end());
          std::rotate(run_v.begin(), run_v.end() - 1, run_v.end());
          std::rotate(run_d.begin(), run_d.end() - 1, run_d.end());
          state.AssignRange(i, run_v, run_d);
          break;
        }
        case 2:
          state.BumpDelta(i, static_cast<double>(rng.NextBounded(6)) - 2.0);
          break;
        case 3:
          state.InsertVertexAtHead(next++,
                                   static_cast<double>(rng.NextBounded(6)));
          break;
        default:
          state.BumpDelta(i, static_cast<double>(rng.NextBounded(40)));
          break;
      }
    }
  }
}

// Each planted case defeats one way of getting the skip test wrong.
TEST(BlockedDetectTest, PrunedWalkKeepsPlantedWinners) {
  // The only winning suffix starts at slot 1020, four slots before the
  // end of block 1. The bound must pair the block's largest suffix with
  // the x of its LAST slot: measured from its first slot, the bound
  // falls below the incumbent and the block is skipped.
  {
    const std::size_t n = 32 * kBlock;
    const PeelState state = StateOf(Planted(n, 1020, {26, 26, 26, 26}, 1));
    ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
    ASSERT_EQ(state.BestStart(), 1020u);
  }
  // Block 1 is zeros but for a 2 in its last slot, before an all-2s
  // tail: its bound equals the incumbent exactly, and the tying longer
  // suffix from slot 1023 must win, so the skip test must be strict.
  {
    const std::size_t n = 24 * kBlock;
    const PeelState state = StateOf(Planted(n, 1023, {2}, 2));
    ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
    ASSERT_EQ(state.BestStart(), 1023u);
  }
  // A negative delta heads block 1, so the block's largest suffix (from
  // slot 513) exceeds its sum: a bound built from the sum skips the
  // winner.
  {
    const std::size_t n = 24 * kBlock;
    std::vector<double> peak(kBlock, 2.0);
    peak[0] = -2000.0;
    const PeelState state = StateOf(Planted(n, kBlock, peak, 1));
    ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
    ASSERT_EQ(state.BestStart(), kBlock + 1);
  }
  // base_ mid-block: the first head insertion regrows the front and
  // leaves base_ at 9,999, inside block 19. The winner sits at the end
  // of that block, and head insertions walk base_ down into block 18.
  {
    PeelState state = StateOf(Planted(10000, 236, {26, 26, 26, 26}, 1));
    for (int k = 1; k <= 300; ++k) {
      state.InsertVertexAtHead(static_cast<VertexId>(10000 + k), 0.0);
      ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
      ASSERT_EQ(state.BestStart(), 236u + static_cast<unsigned>(k));
    }
  }
  // Block 1 is all zeros, so its bound first skips it; then a bump makes
  // it hold the winner, and its dirty bit must make the bound stale.
  {
    const std::size_t n = 24 * kBlock;
    std::vector<double> deltas(n, 1.0);
    std::fill(deltas.begin() + kBlock, deltas.begin() + 2 * kBlock, 0.0);
    PeelState state = StateOf(deltas);
    ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
    state.BumpDelta(2 * kBlock - 1, 600.0);
    ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
    ASSERT_EQ(state.BestStart(), 2 * kBlock - 1);
  }
}

// The paper's loop on a 20k-vertex DG graph (about 39 blocks) with edge
// grouping: every urgent update leaves a state whose Detect equals the
// linear scan's. DG weights every edge 1, so the comparison is exact.
TEST(BlockedDetectTest, PrunedWalkMatchesNaiveOnGroupedDgReplay) {
  const Workload w = BuildWorkload("Grab1", 0.005, 23);
  ForEachTarget([&] {
    Spade spade;
    spade.TurnOnEdgeGrouping();
    ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
    ASSERT_GE(spade.peel_state().size(), 30 * kBlock);
    const std::size_t edges = std::min<std::size_t>(w.stream.size(), 1500);
    std::size_t urgent = 0;
    for (std::size_t i = 0; i < edges; ++i) {
      ASSERT_TRUE(spade.ApplyEdge(w.stream.edges[i]).ok());
      if (spade.PendingBenignEdges() != 0) continue;
      ++urgent;
      ASSERT_NO_FATAL_FAILURE(ExpectNaive(spade.peel_state()));
    }
    EXPECT_GT(urgent, 100u);
  });
}

// What the bound saves: with every block of a 64-block state dirtied and
// the best suffix in the tail block, one Detect rebuilds at most two hulls
// (the tail block's and its neighbour's, whose bound pairs a whole-block
// suffix with its last slot's x) instead of all 64.
TEST(BlockedDetectTest, PrunedWalkRebuildsOnlyHullsThatCanWin) {
  const std::size_t n = 64 * kBlock;
  std::vector<double> deltas(n, 1.0);
  std::fill(deltas.end() - kBlock, deltas.end(), 4.0);
  PeelState state = StateOf(deltas);
  ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
  for (std::size_t p = 0; p < n; p += kBlock) state.BumpDelta(p, 0.0);
  const std::uint64_t before = state.HullRebuilds();
  EXPECT_EQ(state.BestDensity(), 4.0);
  EXPECT_LE(state.HullRebuilds() - before, 2u);
  ASSERT_NO_FATAL_FAILURE(ExpectNaive(state));
  ASSERT_EQ(state.BestStart(), n - kBlock);
}

// ------------------------------------------------------------------------
// The merge's bulk scan over untouched slots (DESIGN.md §3.4).
// ------------------------------------------------------------------------

// Graphs of many 64-slot bitmap words whose first kHubs vertex ids are hubs:
// an edge with a hub endpoint lifts its other endpoint across a long stretch
// of the sequence. Integer weights keep every comparison exact, and with few
// distinct delta values the sequence holds equal-delta runs hundreds of
// slots long.
class BulkScanTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kHubs = 24;

  static Edge HubEdge(Rng* rng, std::size_t n, int max_weight) {
    auto hub = static_cast<VertexId>(rng->NextBounded(kHubs));
    auto other = static_cast<VertexId>(kHubs + rng->NextBounded(n - kHubs));
    if (rng->NextBool(0.5)) std::swap(hub, other);
    return {hub, other, static_cast<double>(1 + rng->NextBounded(max_weight)),
            0};
  }

  // Whether some run of equal stored deltas crosses a multiple of 64.
  static bool EqualRunCrossesAWord(const PeelState& state) {
    for (std::size_t p = 64; p < state.size(); p += 64) {
      if (state.DeltaAt(p - 1) == state.DeltaAt(p)) return true;
    }
    return false;
  }

  static void ExpectStatic(const DynamicGraph& g, const PeelState& state) {
    const PeelState expected = PeelStatic(g);
    ExpectStateEquals(expected, state, 0.0);
    EXPECT_EQ(expected.BestStart(), state.BestStart());
  }

  // n vertices whose first `isolated` ids have no edge: a static peel puts
  // them at weight 0 at the head of the sequence, in id order. The other
  // ids share 2(n - isolated) edges of weights 1 to 3.
  static DynamicGraph IsolatedHeadGraph(Rng* rng, std::size_t n,
                                        std::size_t isolated) {
    DynamicGraph g(n);
    const std::size_t rest = n - isolated;
    for (std::size_t i = 0; i < 2 * rest; ++i) {
      const auto src = static_cast<VertexId>(isolated + rng->NextBounded(rest));
      auto dst = static_cast<VertexId>(isolated + rng->NextBounded(rest));
      while (dst == src) {
        dst = static_cast<VertexId>(isolated + rng->NextBounded(rest));
      }
      EXPECT_TRUE(
          g.AddEdge(src, dst, static_cast<double>(1 + rng->NextBounded(3)))
              .ok());
    }
    return g;
  }

  // Slots at the head of the sequence with stored delta 0.
  static std::size_t ZeroHead(const PeelState& state) {
    std::size_t p = 0;
    while (p < state.size() && state.DeltaAt(p) == 0.0) ++p;
    return p;
  }

  // The longest run of equal stored deltas.
  static std::size_t LongestEqualRun(const PeelState& state) {
    std::size_t best = 0;
    for (std::size_t p = 0, run = 0; p < state.size(); ++p) {
      run = p > 0 && state.DeltaAt(p) == state.DeltaAt(p - 1) ? run + 1 : 1;
      best = std::max(best, run);
    }
    return best;
  }
};

// Insert-heavy: single edges and batches with hub endpoints on 20k vertices.
// Every shift crosses many bitmap words, and the queue head meets equal-delta
// runs that straddle word boundaries, where the vector key compare decides
// the tied slots by id.
TEST_F(BulkScanTest, InsertHeavyHubStreamMatchesStaticTieExact) {
  constexpr std::size_t kN = 20000;
  Rng rng(4242);
  DynamicGraph g = RandomGraph(&rng, kN, 2 * kN, 3);
  PeelState state = PeelStatic(g);
  ASSERT_TRUE(EqualRunCrossesAWord(state));
  IncrementalEngine engine;
  ReorderStats stats;
  for (int step = 1; step <= 1200; ++step) {
    if (step % 4 == 0) {
      std::vector<Edge> batch;
      const std::size_t size = 1 + rng.NextBounded(8);
      for (std::size_t i = 0; i < size; ++i) {
        batch.push_back(HubEdge(&rng, kN, 4));
      }
      ASSERT_TRUE(engine.InsertBatch(&g, &state, batch, &stats).ok());
    } else {
      ASSERT_TRUE(
          engine.InsertEdge(&g, &state, HubEdge(&rng, kN, 4), &stats).ok());
    }
    if (step % 150 == 0) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      ExpectStatic(g, state);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectStatic(g, state);
  EXPECT_TRUE(EqualRunCrossesAWord(state));
  // The stream rewrote long spans. The scan decides tied slots in bulk;
  // what the general path still reads one at a time is mostly probes that a
  // hub's deferred budget pays for.
  EXPECT_GT(stats.rewritten_span, 1000000u);
  EXPECT_GT(stats.probed_slots, 0u);
  EXPECT_LT(stats.probed_slots, stats.rewritten_span / 2);
}

// Deletion merges move their slots in leading runs: a seed emits ahead of
// its old slot, and the run's vertices are stamped at their old slots. The
// bulk scan extends leading runs as it does trailing ones (DESIGN.md §3.4).
// Trailing runs follow in the insertion merges between the batches, on a
// bitmap the leading runs just marked. Batches of hub-edge copies on 6k
// vertices make both kinds of run span many bitmap words.
TEST_F(BulkScanTest, DeleteStreamBetweenInsertsMatchesStatic) {
  constexpr std::size_t kN = 6000;
  Rng rng(4343);
  DynamicGraph g = RandomGraph(&rng, kN, 2 * kN, 3);
  std::vector<Edge> live;
  for (std::size_t i = 0; i < 3 * kN; ++i) {
    const Edge e = HubEdge(&rng, kN, 4);
    ASSERT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
    live.push_back(e);
  }
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  ReorderStats deleted;
  ReorderStats inserted;
  for (int round = 0; round < 40; ++round) {
    const std::size_t size = std::size_t{1} << (round % 8);
    std::vector<Edge> batch;
    while (batch.size() < size) {
      const std::size_t pick = rng.NextBounded(live.size());
      batch.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    SCOPED_TRACE(::testing::Message() << "round " << round << " batch "
                                      << size);
    ASSERT_TRUE(engine.DeleteBatch(&g, &state, batch, &deleted).ok());
    ExpectStatic(g, state);
    for (int i = 0; i < 3; ++i) {
      const Edge e = HubEdge(&rng, kN, 4);
      ASSERT_TRUE(engine.InsertEdge(&g, &state, e, &inserted).ok());
      live.push_back(e);
      ExpectStatic(g, state);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(deleted.rewritten_span, 100000u);
  EXPECT_GT(inserted.rewritten_span, 50000u);
  // The deletions set no bound: a hub's dip sweeps most of this small graph
  // into the queue, so nearly every slot they rewrite holds an affected
  // vertex, whose push, skip and emit the general path reads one at a time.
  EXPECT_LT(inserted.probed_slots, inserted.rewritten_span / 8);
}

// An edge between two isolated head vertices pushes the first at its slot
// with its credit pass deferred, and the merge then reads the isolated slots
// after it. Probing one costs its slot, so the small budget the push brought
// runs out within a few slots, the credits flush and the bulk scan skips the
// rest of the head. (A probe that cost only its degree would read every
// isolated slot one at a time for free.)
TEST_F(BulkScanTest, InsertsIntoAnIsolatedHeadFlushAndScanInBulk) {
  constexpr std::size_t kN = 9000;
  constexpr std::size_t kIsolated = 7000;
  ForEachTarget([&] {
    Rng rng(4545);
    DynamicGraph g = IsolatedHeadGraph(&rng, kN, kIsolated);
    PeelState state = PeelStatic(g);
    ASSERT_GE(ZeroHead(state), 6000u);
    IncrementalEngine engine;
    ReorderStats stats;
    for (int step = 1; step <= 300; ++step) {
      const auto src = static_cast<VertexId>(rng.NextBounded(kIsolated));
      auto dst = static_cast<VertexId>(rng.NextBounded(kIsolated));
      while (dst == src) {
        dst = static_cast<VertexId>(rng.NextBounded(kIsolated));
      }
      const Edge e{src, dst, static_cast<double>(1 + rng.NextBounded(3)), 0};
      ASSERT_TRUE(engine.InsertEdge(&g, &state, e, &stats).ok());
      if (step % 100 == 0) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        ExpectStatic(g, state);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GE(ZeroHead(state), 6000u);
    EXPECT_GT(stats.rewritten_span, 600000u);
    EXPECT_LT(stats.probed_slots, stats.rewritten_span / 8);
  });
}

// A sliding window over edges between isolated head vertices: each batch
// joins fresh pairs, and retiring it leaves every endpoint isolated again.
// The retire's merge returns the endpoints to the weight-0 head at their ids'
// places, so every slot between there and their old slots moves right in a
// leading run, and the queue head's weight-0 key meets runs of weight-0 ties
// across many bitmap words. The scan decides those ties by id in bulk.
TEST_F(BulkScanTest, RetiresBackIntoAnIsolatedHeadScanLeadingRunsInBulk) {
  constexpr std::size_t kN = 9000;
  constexpr std::size_t kIsolated = 7000;
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kWindow = 4;
  ForEachTarget([&] {
    Rng rng(4646);
    DynamicGraph g = IsolatedHeadGraph(&rng, kN, kIsolated);
    PeelState state = PeelStatic(g);
    IncrementalEngine engine;
    ReorderStats inserted;
    ReorderStats retired;
    std::vector<VertexId> free_ids(kIsolated);
    for (std::size_t v = 0; v < kIsolated; ++v) {
      free_ids[v] = static_cast<VertexId>(v);
    }
    const auto take = [&] {
      const std::size_t pick = rng.NextBounded(free_ids.size());
      const VertexId v = free_ids[pick];
      free_ids[pick] = free_ids.back();
      free_ids.pop_back();
      return v;
    };
    std::deque<std::vector<Edge>> window;
    for (int round = 1; round <= 60; ++round) {
      std::vector<Edge> batch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const VertexId src = take();
        batch.push_back(
            {src, take(), static_cast<double>(1 + rng.NextBounded(3)), 0});
      }
      ASSERT_TRUE(engine.InsertBatch(&g, &state, batch, &inserted).ok());
      window.push_back(std::move(batch));
      if (window.size() > kWindow) {
        ASSERT_TRUE(
            engine.DeleteBatch(&g, &state, window.front(), &retired).ok());
        for (const Edge& e : window.front()) {
          free_ids.push_back(e.src);
          free_ids.push_back(e.dst);
        }
        window.pop_front();
      }
      if (round % 10 == 0) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        ExpectStatic(g, state);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GT(retired.rewritten_span, 200000u);
    EXPECT_LT(retired.probed_slots, retired.rewritten_span / 8);
    EXPECT_LT(inserted.probed_slots, inserted.rewritten_span / 8);
  });
}

// The paper's loop under DG, which weighs every edge 1: on Grab1's 20k
// vertices the stored deltas take a handful of small integer values, so
// equal-delta runs are hundreds of slots long and an edge's span crosses
// them. The scan decides each tie run against the queue head's key by id in
// bulk.
TEST_F(BulkScanTest, DgReplayScansTieRunsByKey) {
  const Workload w = BuildWorkload("Grab1", 0.005, 29);
  ForEachTarget([&] {
    Spade spade;
    ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
    ASSERT_GE(LongestEqualRun(spade.peel_state()), 300u);
    const std::size_t edges = std::min<std::size_t>(w.stream.size(), 2000);
    for (std::size_t i = 1; i <= edges; ++i) {
      ASSERT_TRUE(spade.ApplyEdge(w.stream.edges[i - 1]).ok());
      if (i % 500 == 0) {
        SCOPED_TRACE(::testing::Message() << "edge " << i);
        ExpectStatic(spade.graph(), spade.peel_state());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    const ReorderStats& stats = spade.cumulative_stats();
    EXPECT_GT(stats.rewritten_span, 1000000u);
    EXPECT_LT(stats.probed_slots, stats.rewritten_span / 8);
  });
}

// The touched-slot bitmap is cleared with the stamps on every epoch bump,
// the wrap included: a merge right after the wrap, on a state of many
// words, must still see every slot its stamps touch.
TEST_F(BulkScanTest, MergeRightAfterEpochWrapMatchesStatic) {
  constexpr std::size_t kN = 3000;
  Rng rng(4444);
  DynamicGraph g = RandomGraph(&rng, kN, 2 * kN, 3);
  PeelState state = PeelStatic(g);
  IncrementalEngine engine;
  for (int wrap = 0; wrap < 3; ++wrap) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          engine.InsertEdge(&g, &state, HubEdge(&rng, kN, 4), nullptr).ok());
    }
    engine.ForceEpochForTesting(0xFFFFFFFFu);
    const Edge e = HubEdge(&rng, kN, 4);
    ASSERT_TRUE(engine.InsertEdge(&g, &state, e, nullptr).ok());
    SCOPED_TRACE(::testing::Message() << "wrap " << wrap);
    ExpectStatic(g, state);
    ASSERT_TRUE(engine.DeleteBatch(&g, &state, std::span<const Edge>(&e, 1),
                                   nullptr)
                    .ok());
    ExpectStatic(g, state);
    if (::testing::Test::HasFatalFailure()) return;
  }
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
  ASSERT_TRUE(
      engine.InsertEdge(&g, &state, testing::RandomEdge(&rng, 20), nullptr)
          .ok());
  engine.ForceEpochForTesting(0xFFFFFFFFu);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        engine.InsertEdge(&g, &state, testing::RandomEdge(&rng, 20), nullptr)
            .ok());
    ExpectStateEquals(PeelStatic(g), state);
  }
}

}  // namespace
}  // namespace spade
