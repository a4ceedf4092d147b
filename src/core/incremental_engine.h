// IncrementalEngine: peeling-sequence reordering under graph updates.
//
// Implements the paper's three incremental techniques:
//   * single edge insertion (§4.1) — a batch of size one,
//   * peeling sequence reordering in batch (Algorithm 2, §4.2) with the
//     black/gray/white affected-vertex coloring,
//   * edge deletion (Appendix C.1) via backward splice + forward merge.
//
// The engine rewrites the affected slice of the PeelState in place; the
// unaffected prefix (Lemma 4.1) and the suffix beyond the affected area are
// never touched. All scratch structures are engine members so steady-state
// updates allocate nothing.
//
// Correctness invariant of the merge loop (DESIGN.md §2.4): every vertex in
// the pending queue T and every vertex already emitted has an original
// position before the scan cursor, so the stored peeling weight of any
// unscanned vertex counts exactly its edges into the unscanned region; gray
// recovery adds back the edges into T.
//
// Gray recovery is O(1) per push (DESIGN.md §3.1): instead of recomputing a
// vertex's pending weight from the graph on every push, the engine
// maintains an epoch-stamped per-vertex accumulator `recov_` holding the
// exact correction between the stored peeling weight and the true pending
// weight. The accumulator is updated as neighbors enter T (+c for the
// later-positioned endpoint), leave T by emission (-c for every unscanned
// neighbor), and as inserted edges arrive (+c mirroring what the stored
// weight would have counted). Each affected vertex then pays exactly one
// incident pass per state transition (push, emit) — never one per
// relaxation or per queue examination.
//
// Untouched slots move in displacement runs (DESIGN.md §3.4): consecutive
// case-2(b) slots share one (source, destination, length) run that is
// written with a single PeelState::AssignRange when the next non-2(b) event
// ends it.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "metrics/semantics.h"
#include "peel/indexed_heap.h"
#include "peel/peel_state.h"

namespace spade {

/// Cost accounting for one reorder invocation — the paper's affected area
/// G_T = (V_T, E_T).
struct ReorderStats {
  /// Vertices that entered the pending queue T (|V_T|).
  std::size_t affected_vertices = 0;
  /// Incident-edge entries scanned while recovering/updating weights (|E_T|).
  std::size_t touched_edges = 0;
  /// Width of the rewritten window of the peeling sequence.
  std::size_t rewritten_span = 0;
  /// Pending weights served O(1) from the stored-delta recovery accumulator
  /// (each one an incident-list rescan the legacy path would have paid).
  std::size_t recovery_lookups = 0;

  void Reset() { *this = ReorderStats(); }
  void Accumulate(const ReorderStats& other) {
    affected_vertices += other.affected_vertices;
    touched_edges += other.touched_edges;
    rewritten_span += other.rewritten_span;
    recovery_lookups += other.recovery_lookups;
  }
};

/// Tuning knobs for the incremental engine.
struct IncrementalOptions {
  /// When true (default), pending weights come from the paper's Algorithm 2
  /// stored-delta gray recovery in O(1) per push. When false, every push
  /// recomputes the weight from the graph in O(deg) — the pre-optimization
  /// behavior, kept as a differential baseline for tests and benchmarks.
  bool stored_delta_recovery = true;
};

/// Stateful incremental reorderer bound to one (graph, peel state) pair.
class IncrementalEngine {
 public:
  IncrementalEngine() = default;
  explicit IncrementalEngine(IncrementalOptions options)
      : options_(options) {}

  /// Inserts a batch of weighted edges (weight = final suspiciousness c_ij)
  /// into `g` and reorders `state` so it equals a from-scratch peel of the
  /// updated graph. Unknown endpoints are created as new vertices whose
  /// prior comes from `vsusp` (may be null => prior 0).
  ///
  /// Preconditions: `state` is a valid peeling of `g`; every edge weight is
  /// positive.
  Status InsertBatch(DynamicGraph* g, PeelState* state,
                     std::span<const Edge> edges, const VertexSuspFn& vsusp,
                     ReorderStats* stats);

  /// Single-edge convenience wrapper (|ΔE| = 1).
  Status InsertEdge(DynamicGraph* g, PeelState* state, const Edge& edge,
                    const VertexSuspFn& vsusp, ReorderStats* stats);

  /// Removes one (src, dst) edge from `g` and restores `state` to a valid
  /// canonical peeling of the shrunken graph (Appendix C.1 extension).
  /// `weight_filter`, when non-null, selects which parallel copy to remove.
  Status DeleteEdge(DynamicGraph* g, PeelState* state, VertexId src,
                    VertexId dst, ReorderStats* stats,
                    const double* weight_filter = nullptr);

  /// Test-only: jumps the epoch counter (exercises wrap-around handling).
  void ForceEpochForTesting(std::uint32_t epoch) { epoch_ = epoch; }

 private:
  enum class Color : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };

  /// All epoch-stamped per-vertex merge scratch, packed into one struct
  /// behind a single stamp, so a neighbor touch during the hot incident
  /// passes costs one cache line and one stamp branch instead of one per
  /// array (high-degree vertices make these passes memory-bound).
  struct VertexScratch {
    std::uint32_t stamp = 0;
    std::uint8_t color = 0;  // Color
    bool emitted = false;
    bool deferred = false;  // in uncredited_ with its credit pass pending
    double recov = 0.0;
  };

  void EnsureScratch(VertexId v) {
    if (v >= scratch_vertex_.size()) scratch_vertex_.resize(v + 1);
  }

  /// Canonicalized scratch access: the first touch in an epoch resets every
  /// field, so callers read and write fields directly afterwards.
  VertexScratch& Scratch(VertexId v) {
    VertexScratch& s = scratch_vertex_[v];
    if (s.stamp != epoch_) {
      s.stamp = epoch_;
      s.color = static_cast<std::uint8_t>(Color::kWhite);
      s.emitted = false;
      s.deferred = false;
      s.recov = 0.0;
    }
    return s;
  }

  /// Read-only lookups: stale-stamped entries read as the epoch defaults
  /// without canonicalizing (no store, no dirtied line).
  Color ColorOf(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ ? static_cast<Color>(s.color) : Color::kWhite;
  }
  void SetColor(VertexId v, Color c) {
    Scratch(v).color = static_cast<std::uint8_t>(c);
  }

  /// Starts a fresh update: invalidates all colors, emitted flags and
  /// recovery accumulators. When the 32-bit epoch wraps, stale stamps from
  /// ~4 billion updates ago could alias the restarted counter, so every
  /// stamp is cleared to the never-current value 0 first.
  void BumpEpoch() {
    uncredited_.clear();
    deferred_count_ = 0;
    credit_budget_ = 0;
    if (++epoch_ == 0) {
      std::fill(scratch_vertex_.begin(), scratch_vertex_.end(),
                VertexScratch{});
      epoch_ = 1;
    }
  }

  /// Emitted-this-merge flag (distinguishes peeled vertices from unscanned
  /// ones whose rewritten position may exceed the scan cursor).
  bool IsEmitted(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ && s.emitted;
  }
  void MarkEmitted(VertexId v) { Scratch(v).emitted = true; }

  /// White, not emitted and not pending: with no deferred credits
  /// outstanding, exactly the case-2(b) test. Coloring, emission and
  /// pushing all stamp the vertex, so an unstamped one answers with a
  /// single load.
  bool IsUntouched(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    if (s.stamp != epoch_) return true;
    return s.color == static_cast<std::uint8_t>(Color::kWhite) &&
           !s.emitted && !pending_.Contains(v);
  }

  /// Stored-delta recovery accumulator (DESIGN.md §3.1): the running
  /// correction between an unscanned vertex's stored peeling weight and its
  /// true pending weight. Epoch-stamped, so reset is free.
  double RecovOf(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ ? s.recov : 0.0;
  }
  void AddRecov(VertexId v, double amount) { Scratch(v).recov += amount; }

  /// Runs the three-case merge loop from `start`. `black_positions` must be
  /// sorted ascending; the queue may be pre-seeded (deletion path).
  void MergeLoop(const DynamicGraph& g, PeelState* state,
                 const std::vector<std::size_t>& black_positions,
                 std::size_t start, ReorderStats* stats);

  /// Pops the head of T into position `w` and relaxes its T-neighbors.
  /// Vertices peeling ahead of their old schedule sweep their unscanned
  /// neighbors into the queue.
  void EmitFromQueue(const DynamicGraph& g, PeelState* state, std::size_t w,
                     std::size_t k, ReorderStats* stats);

  /// Pushes u — whose pre-merge position is `old_pos` — into the pending
  /// queue at `weight`. In recovery mode the graying/crediting incident
  /// pass is deferred: colors and accumulators are only consulted when the
  /// merge classifies a slot (case 2), so a vertex that pops back out of T
  /// before the next classification never pays its incident pass at all —
  /// FlushCredits() settles the books lazily. Legacy mode grays eagerly.
  void PushPending(const DynamicGraph& g, VertexId u, std::size_t old_pos,
                   double weight, ReorderStats* stats);

  /// Applies the deferred gray+credit incident pass of every pending queue
  /// member that has not had one yet (u's edge counts toward the pending
  /// weight of every later-positioned unscanned neighbor even though their
  /// stored weight missed it). Must run before any slot classification or
  /// recovered-weight read.
  void FlushCredits(const DynamicGraph& g, const PeelState& state,
                    ReorderStats* stats);

  /// Exact current peeling weight of u over the true pending set (queue
  /// members plus unscanned vertices), recomputed from the graph in
  /// O(deg(u)). Used by the legacy (non-recovery) mode and by the deletion
  /// path's splice seeding, where the weight is taken at an arbitrary
  /// cursor rather than at u's own slot.
  double ExactPendingWeight(const DynamicGraph& g, VertexId u, std::size_t k,
                            const PeelState& state,
                            ReorderStats* stats) const;

  /// Pending weight of the unscanned vertex u read at its own pre-merge
  /// slot `k` (the only place the stored-delta identity holds): the stored
  /// peeling weight plus the recovery accumulator, O(1). Falls back to the
  /// from-graph recomputation when stored-delta recovery is disabled.
  double RecoveredWeight(const DynamicGraph& g, const PeelState& state,
                         VertexId u, double stored_delta, std::size_t k,
                         ReorderStats* stats) const;

  /// Refills the merge loop's read-ahead window with the pre-update entries
  /// at positions [k, min(k + kLookahead, n)). Pre-update values at
  /// positions at or beyond the scan cursor are immutable for the rest of
  /// the merge (every write at or ahead of the scan cursor first preserves
  /// the old entry into the scratch window), so the fill resolves the
  /// scratch-vs-live split ONCE per window instead of branching per slot,
  /// and the classification that follows starts from an already-prefetched
  /// packed-scratch line for every incumbent in the window.
  void FillLookahead(const PeelState& state, std::size_t k, std::size_t n);

  /// Drops the read-ahead window (required whenever the scan cursor jumps
  /// over a gap).
  void InvalidateLookahead() { lookahead_count_ = 0; }

  /// ForEachIncident with a software-prefetch hook: `prefetch(v)` fires for
  /// the neighbor kProbeDistance entries ahead of the one `fn` visits, so
  /// the slot_/pos_/scratch indirections of the hot credit and relaxation
  /// probes stream in behind the adjacency walk instead of stalling it (the
  /// neighbor ids are effectively random, one demand miss per edge
  /// otherwise).
  template <typename Prefetch, typename Fn>
  void ForEachIncidentPrefetched(const DynamicGraph& g, VertexId u,
                                 Prefetch&& prefetch, Fn&& fn) const {
    const auto walk = [&](const std::vector<NeighborEntry>& list) {
      const std::size_t n = list.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kProbeDistance < n) prefetch(list[i + kProbeDistance].vertex);
        fn(list[i].vertex, list[i].weight);
      }
    };
    walk(g.OutNeighbors(u));
    walk(g.InNeighbors(u));
  }

  /// Writes a displacement run: the pre-update entries of positions
  /// [src, src + len) land at [dst, dst + len) in one block move. A
  /// trailing run (dst < src, every insertion merge) shifts the live
  /// arrays down in place; a leading run (dst > src, deletion merges)
  /// first preserves its destination into the window, copies from there
  /// and marks its vertices emitted. An in-place run (dst == src) rewrites
  /// nothing.
  void MoveRun(PeelState* state, std::size_t src, std::size_t dst,
               std::size_t len);

  /// Extends the scratch window so it holds the pre-update entries of
  /// [lo, hi) before a write there, where lo is the scan cursor. Positions
  /// below the scan cursor are never read again, so a window that ends at
  /// or before lo restarts at lo.
  void Preserve(const PeelState& state, std::size_t lo, std::size_t hi);

  std::size_t ScratchEnd() const {
    return scratch_base_ + scratch_seq_.size();
  }

  /// Drops the scratch window and restarts it at `base` (at the start of a
  /// merge, and in Preserve once every held entry is behind the scan
  /// cursor).
  void RebaseScratch(std::size_t base) {
    scratch_base_ = base;
    scratch_seq_.clear();
    scratch_delta_.clear();
  }

  IncrementalOptions options_;

  IndexedMinHeap pending_;  // the paper's T
  std::vector<VertexScratch> scratch_vertex_;
  std::uint32_t epoch_ = 0;

  std::vector<std::size_t> black_positions_;
  std::vector<VertexId> new_vertices_;
  std::vector<VertexId> batch_endpoints_;  // sorted, for gap-fill exclusion
  std::vector<std::pair<std::size_t, double>> neighbor_weight_by_pos_;

  // Queue members whose gray+credit incident pass is still deferred
  // (vertex, pre-merge position). Settled by FlushCredits or cancelled
  // O(1) when the member pops unread (the scratch `deferred` flag is the
  // source of truth; popped members leave stale list entries that the
  // flush skips). The budget is the summed degree of the deferred members,
  // spent on white-slot adjacency probes so probing never exceeds the cost
  // of the deferred passes themselves.
  std::vector<std::pair<VertexId, std::size_t>> uncredited_;
  std::size_t deferred_count_ = 0;
  std::ptrdiff_t credit_budget_ = 0;

  // Sliding preservation window: old entries of positions the write cursor
  // overwrote at or ahead of the scan cursor, so reads at the scan cursor
  // stay pre-update. Trailing writes need no preservation.
  std::size_t scratch_base_ = 0;
  std::vector<VertexId> scratch_seq_;
  std::vector<double> scratch_delta_;

  // Batched read-ahead over the scan cursor (see FillLookahead): SoA copies
  // of the next few pre-update entries, refilled in branch-light batches.
  static constexpr std::size_t kLookahead = 16;
  // Prefetch distance (in neighbor-list entries) for the adjacency probes.
  static constexpr std::size_t kProbeDistance = 8;
  std::array<VertexId, kLookahead> lookahead_vertex_;
  std::array<double, kLookahead> lookahead_delta_;
  std::size_t lookahead_base_ = 0;   // position of lookahead_*[0]
  std::size_t lookahead_count_ = 0;  // valid entries (0 = invalid)
};

}  // namespace spade
