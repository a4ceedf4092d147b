// IncrementalEngine: peeling-sequence reordering under graph updates.
//
// Implements the paper's three incremental techniques:
//   * single edge insertion (§4.1) — a batch of size one,
//   * peeling sequence reordering in batch (Algorithm 2, §4.2) with the
//     black/gray/white affected-vertex coloring,
//   * edge deletion (Appendix C.1), batched like Algorithm 3's edge
//     grouping: one splice walk over every endpoint of the batch, then one
//     forward merge (DESIGN.md §2.6). A single deletion is a batch of one.
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
// relaxation or per queue examination. It is the engine's one recovery
// mode; tests check the engine against a from-scratch PeelStatic.
//
// Untouched slots move in displacement runs (DESIGN.md §3.4): consecutive
// case-2(b) slots share one (source, destination, length) run that is
// written with a single PeelState::AssignRange when the next non-2(b) event
// ends it. A touched-slot bitmap lets the merge extend a run of either
// direction over untouched slots in bulk: it reads a bitmap word per 64
// slots and runs one vector compare of the stored (delta, id) keys against
// the queue head's, instead of classifying every slot.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  /// (each one an incident-list rescan a from-graph recount would pay).
  std::size_t recovery_lookups = 0;
  /// Incumbents the merge classified one at a time. The rest of the
  /// rewritten span was proven untouched in bulk (DESIGN.md §3.4).
  std::size_t probed_slots = 0;
  /// Merge passes run: one per InsertBatch or DeleteBatch that changed the
  /// graph. Chain replay reads it to prove a range cost at most two.
  std::size_t merges = 0;

  void Reset() { *this = ReorderStats(); }
  void Accumulate(const ReorderStats& other) {
    affected_vertices += other.affected_vertices;
    touched_edges += other.touched_edges;
    rewritten_span += other.rewritten_span;
    recovery_lookups += other.recovery_lookups;
    probed_slots += other.probed_slots;
    merges += other.merges;
  }
};

/// Stateful incremental reorderer bound to one (graph, peel state) pair.
class IncrementalEngine {
 public:
  /// Inserts a batch of weighted edges (weight = final suspiciousness c_ij)
  /// into `g` and reorders `state` so it equals a from-scratch peel of the
  /// updated graph. The graph grows to cover every endpoint, and every id
  /// it covers but the state does not joins at its stored vertex weight:
  /// a caller gives a new vertex its prior by growing the graph and
  /// setting that weight first (an id it never weighed joins at 0). An
  /// empty batch over a grown graph registers its new vertices in one
  /// merge.
  ///
  /// Preconditions: `state` is a valid peeling of `g` but for ids past its
  /// coverage; every edge weight is positive.
  Status InsertBatch(DynamicGraph* g, PeelState* state,
                     std::span<const Edge> edges, ReorderStats* stats);

  /// Single-edge convenience wrapper (|ΔE| = 1).
  Status InsertEdge(DynamicGraph* g, PeelState* state, const Edge& edge,
                    ReorderStats* stats);

  /// Removes a batch of edges from `g` and restores `state` to the
  /// canonical peeling of the shrunken graph (Appendix C.1 extension). Each
  /// edge removes one stored (src, dst) copy carrying exactly its weight.
  /// The batch is atomic: every edge is checked first — endpoints in range,
  /// and enough stored copies counted by multiplicity, so two requests for
  /// one copy fail — and on failure the call returns kInvalidArgument or
  /// kNotFound naming the edge, leaving `g` and `state` untouched.
  Status DeleteBatch(DynamicGraph* g, PeelState* state,
                     std::span<const Edge> edges, ReorderStats* stats);

  /// Single-edge DeleteBatch of the most recently inserted (src, dst) copy.
  /// To remove a copy by its weight, pass that edge to DeleteBatch.
  Status DeleteEdge(DynamicGraph* g, PeelState* state, VertexId src,
                    VertexId dst, ReorderStats* stats);

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
  /// field and marks `pos`, the slot v holds at that moment, in the
  /// touched-slot bitmap. Callers read and write fields directly afterwards.
  VertexScratch& Scratch(VertexId v, std::size_t pos) {
    VertexScratch& s = scratch_vertex_[v];
    if (s.stamp != epoch_) {
      s.stamp = epoch_;
      s.color = static_cast<std::uint8_t>(Color::kWhite);
      s.emitted = false;
      s.deferred = false;
      s.recov = 0.0;
      MarkTouched(pos);
    }
    return s;
  }

  /// Scratch of a vertex already stamped this epoch: a queue member, or a
  /// neighbor of one whose credit pass ran.
  VertexScratch& Stamped(VertexId v) {
    VertexScratch& s = scratch_vertex_[v];
    SPADE_DCHECK(s.stamp == epoch_);
    return s;
  }

  /// Sets bit `pos` of the touched-slot bitmap and the summary bit of its
  /// word, without a branch.
  void MarkTouched(std::size_t pos) {
    touched_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    touched_summary_[pos >> 12] |= std::uint64_t{1} << ((pos >> 6) & 63);
  }

  /// First slot in [i, n) whose touched bit is set, or n; i < n, and no
  /// bit at or beyond n is set (every stamped slot lies below n).
  std::size_t NextTouched(std::size_t i, std::size_t n) const {
    std::size_t word = i >> 6;
    std::uint64_t bits = touched_[word] & (~std::uint64_t{0} << (i & 63));
    const std::size_t words = (n + 63) >> 6;
    while (bits == 0) {
      if (++word == words) return n;
      bits = touched_[word];
    }
    return (word << 6) + std::countr_zero(bits);
  }

  /// Read-only lookups: stale-stamped entries read as the epoch defaults
  /// without canonicalizing (no store, no dirtied line).
  Color ColorOf(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ ? static_cast<Color>(s.color) : Color::kWhite;
  }

  /// Starts a fresh update over a state of `n` slots: invalidates all
  /// colors, emitted flags and recovery accumulators, and clears the
  /// touched-slot bitmap word by word through its summary. When the 32-bit
  /// epoch wraps, stale stamps from ~4 billion updates ago could alias the
  /// restarted counter, so every stamp is cleared to the never-current
  /// value 0 first.
  void BumpEpoch(std::size_t n) {
    uncredited_.clear();
    deferred_count_ = 0;
    credit_budget_ = 0;
    if (++epoch_ == 0) {
      std::fill(scratch_vertex_.begin(), scratch_vertex_.end(),
                VertexScratch{});
      epoch_ = 1;
    }
    for (std::size_t s = 0; s < touched_summary_.size(); ++s) {
      for (std::uint64_t bits = touched_summary_[s]; bits != 0;
           bits &= bits - 1) {
        touched_[(s << 6) + std::countr_zero(bits)] = 0;
      }
      touched_summary_[s] = 0;
    }
    const std::size_t words = (n + 63) >> 6;
    if (words > touched_.size()) {
      touched_.resize(words);
      touched_summary_.resize((words + 63) >> 6);
    }
  }

  /// Emitted-this-merge flag (distinguishes peeled vertices from unscanned
  /// ones whose rewritten position may exceed the scan cursor).
  bool IsEmitted(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ && s.emitted;
  }

  /// Stored-delta recovery accumulator (DESIGN.md §3.1): the running
  /// correction between an unscanned vertex's stored peeling weight and its
  /// true pending weight. Epoch-stamped, so reset is free.
  double RecovOf(VertexId v) const {
    const VertexScratch& s = scratch_vertex_[v];
    return s.stamp == epoch_ ? s.recov : 0.0;
  }

  /// Checks a DeleteBatch request against `g` without changing anything.
  Status CheckDeleteBatch(const DynamicGraph& g, std::span<const Edge> edges);

  /// The deletion splice walk: the earliest slot where some endpoint in
  /// `batch_endpoints_` undercuts the incumbent, or the earliest endpoint
  /// slot, over the already-shrunken graph. Leaves `pending_` empty.
  std::size_t FindSplice(const DynamicGraph& g, const PeelState& state,
                         ReorderStats* stats);

  /// Runs the three-case merge loop from `start`. `black_positions` must be
  /// sorted ascending; the queue may be pre-seeded (deletion path).
  void MergeLoop(const DynamicGraph& g, PeelState* state,
                 const std::vector<std::size_t>& black_positions,
                 std::size_t start, ReorderStats* stats);

  /// The first slot in [k, n) that the open run cannot absorb in bulk: the
  /// next touched slot, or an earlier one where the queue head sorts before
  /// the incumbent. Requires no deferred credits, so every slot in between
  /// is case 2(b) (DESIGN.md §3.4).
  std::size_t ScanUntouched(const PeelState& state, std::size_t k,
                            std::size_t n) const;

  /// Pops the head of T into position `w` and relaxes its T-neighbors.
  /// Vertices peeling ahead of their old schedule sweep their unscanned
  /// neighbors into the queue.
  void EmitFromQueue(const DynamicGraph& g, PeelState* state, std::size_t w,
                     std::size_t k, ReorderStats* stats);

  /// Pushes u — whose pre-merge position is `old_pos` — into the pending
  /// queue at `weight`. The graying/crediting incident pass is deferred:
  /// colors and accumulators are only consulted when the merge classifies a
  /// slot (case 2), so a vertex that pops back out of T before the next
  /// classification never pays its incident pass at all — FlushCredits()
  /// settles the books lazily.
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
  /// O(deg(u)). Used by the deletion path's splice seeding and early-emit
  /// sweep, where the weight is taken at an arbitrary cursor rather than at
  /// u's own slot.
  double ExactPendingWeight(const DynamicGraph& g, VertexId u, std::size_t k,
                            const PeelState& state,
                            ReorderStats* stats) const;

  /// Pending weight of the unscanned vertex u read at its own pre-merge
  /// slot (the only place the stored-delta identity holds): the stored
  /// peeling weight plus the recovery accumulator, O(1).
  double RecoveredWeight(VertexId u, double stored_delta,
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
  /// and marks its vertices emitted, stamped at their old slots. An
  /// in-place run (dst == src) rewrites nothing.
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

  IndexedMinHeap pending_;  // the paper's T
  std::vector<VertexScratch> scratch_vertex_;
  std::uint32_t epoch_ = 0;

  // Touched-slot bitmap: bit p is set when a vertex is first stamped this
  // epoch while it holds slot p (Scratch). The summary holds one bit per
  // 64-slot word, so clearing costs O(touched words), not O(n).
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint64_t> touched_summary_;

  std::vector<std::size_t> black_positions_;
  std::vector<VertexId> new_vertices_;
  std::vector<VertexId> batch_endpoints_;  // DeleteBatch's, sorted, unique
  std::vector<Edge> delete_keys_;          // CheckDeleteBatch scratch

  // A splice-walk event: at slot `pos` the endpoint loses `weight`.
  struct SpliceEvent {
    std::size_t pos;
    VertexId endpoint;
    double weight;
  };
  std::vector<SpliceEvent> splice_events_;

  // Queue members whose gray+credit incident pass is still deferred
  // (vertex, pre-merge position). Settled by FlushCredits or cancelled
  // O(1) when the member pops unread (the scratch `deferred` flag is the
  // source of truth; popped members leave stale list entries that the
  // flush skips). The budget is the summed degree of the deferred members,
  // spent on white-slot adjacency probes at degree + 1 each, so probing
  // never exceeds the cost of the deferred passes themselves.
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
