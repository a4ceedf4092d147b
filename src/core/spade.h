// Spade: the user-facing framework class (paper Listing 1).
//
// Developers plug in their fraud semantics through VSusp/ESusp (or a
// prebuilt FraudSemantics), load or build a transaction graph, and then
// stream edge insertions; Spade auto-incrementalizes the peeling algorithm
// and returns the up-to-date fraudulent community after every update.
//
// Edge grouping (Algorithm 3) is optional: when enabled, provably benign
// edges (Definition 4.1) are buffered and folded in lazily by the batch
// reorderer, while urgent edges flush the buffer and reorder immediately.
//
// Time-window detection (Appendix C.3) rides on an optional window log:
// admitted edges are logged in arrival order, and RetireOlderThan expires
// the old prefix — the one expiry mechanism of the codebase. Deletion is
// batched the way edge grouping batches insertion: every delete, from one
// DeleteEdge to a whole retire pass, is one IncrementalEngine::DeleteBatch.

#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/incremental_engine.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "metrics/semantics.h"
#include "peel/peel_state.h"

namespace spade {

/// Tuning knobs for the framework.
struct SpadeOptions {
  /// Enables Algorithm 3: benign edges buffer until an urgent edge (or the
  /// buffer cap, or an explicit Detect/Flush) triggers a batch reorder.
  bool enable_edge_grouping = false;

  /// Hard cap on the benign buffer; reaching it forces a flush so latency
  /// stays bounded even on fully benign streams.
  std::size_t max_benign_buffer = 100000;
};

/// The real-time fraud detection framework.
class Spade {
 public:
  explicit Spade(SpadeOptions options = {});

  /// Movable but not copyable: detectors are moved into service shards
  /// (ShardWorker takes one by value), and the graph plus peeling state can
  /// be hundreds of megabytes — an accidental copy is always a bug. All
  /// members are value types with no cross-references, so the defaulted
  /// moves leave the detector fully functional at its new address.
  Spade(Spade&&) = default;
  Spade& operator=(Spade&&) = default;
  Spade(const Spade&) = delete;
  Spade& operator=(const Spade&) = delete;

  /// Plugs in the vertex suspiciousness function (a_u).
  void VSusp(VertexSuspFn vsusp) { vsusp_ = std::move(vsusp); }
  /// Plugs in the edge suspiciousness function (c_ij).
  void ESusp(EdgeSuspFn esusp) { esusp_ = std::move(esusp); }
  /// Installs both functions of a named semantics (DG / DW / FD / custom).
  void SetSemantics(const FraudSemantics& semantics) {
    vsusp_ = semantics.vsusp;
    esusp_ = semantics.esusp;
    semantics_name_ = semantics.name;
  }
  const std::string& semantics_name() const { return semantics_name_; }

  /// Enables/disables edge grouping at runtime (paper: TurnOnEdgeGrouping).
  void TurnOnEdgeGrouping() { options_.enable_edge_grouping = true; }
  void TurnOffEdgeGrouping() { options_.enable_edge_grouping = false; }

  /// Logs every edge admitted from now on (initial-graph edges never
  /// expire). One-way: while the log is on, edges leave only through
  /// RetireOlderThan, and DeleteEdge / RetireEdges refuse.
  void TurnOnWindowLog() { window_on_ = true; }

  /// Loads an edge-list file as the initial graph and runs the static
  /// peeling once. Raw edge weights pass through ESusp.
  Status LoadGraph(const std::string& path);

  /// Builds the initial graph from `num_vertices` and raw edges, applying
  /// the installed semantics, then runs the static peeling once.
  Status BuildGraph(std::size_t num_vertices, std::span<const Edge> raw_edges);

  /// Current fraudulent community S_P. Flushes any buffered benign edges
  /// first so the answer reflects every inserted edge.
  Community Detect();

  /// Inserts one raw transaction edge and returns the updated community.
  /// With edge grouping on, a benign edge is buffered and the cached
  /// community is returned untouched (Lemma 4.4 guarantees it cannot have
  /// improved).
  Result<Community> InsertEdge(const Edge& raw_edge);

  /// Inserts a batch of raw edges (|ΔE| >= 1) through the batch reorderer.
  Result<Community> InsertBatchEdges(std::span<const Edge> raw_edges);

  /// Apply-only variants: identical reordering without materializing the
  /// community (Detect() stays O(sequence) and is paid per call, so
  /// high-throughput ingestion applies edges and detects per flush).
  /// `applied_weight` (optional) receives the post-ESusp weight the edge
  /// entered (or will enter, if benign-buffered) the graph with — the
  /// weight a later RetireEdges must subtract. An edge whose post-ESusp
  /// weight is not finite and positive fails with kInvalidArgument before
  /// anything is buffered (ApplyBatchEdges then applies none of the batch).
  /// With the window log on, each admitted edge is logged at that weight.
  Status ApplyEdge(const Edge& raw_edge, double* applied_weight = nullptr);
  Status ApplyBatchEdges(std::span<const Edge> raw_edges);

  /// Deletes one (src, dst) edge (Appendix C.1 extension). Buffered benign
  /// edges are flushed first so deletion sees a consistent state. Fails
  /// with kFailedPrecondition while the window log is on.
  Status DeleteEdge(VertexId src, VertexId dst);

  /// Deletes `edges` as one batch, each the copy carrying exactly its
  /// `weight` (the applied weight ApplyEdge reported) — PeriodDetector's
  /// delete path. Same flush and refusal as DeleteEdge. Atomic: when any
  /// edge has no stored copy left, nothing is deleted.
  Status RetireEdges(std::span<const Edge> edges);

  /// Window expiry: pops the window log's arrival-ordered prefix with
  /// ts < `horizon`, deleting it as one batch at the logged applied
  /// weights, and returns those edges oldest first (a late arrival shields
  /// the entries behind it: conservative, never over-retires). A pass that
  /// retires anything flushes the benign buffer first, so replaying the
  /// same admissions and horizons reproduces it bit for bit; the log keeps
  /// its prefix when the batch fails.
  Result<std::vector<Edge>> RetireOlderThan(Timestamp horizon);

  /// Definition 4.1 on an already-weighted edge: true iff neither endpoint
  /// can reach the current community density even with this edge added.
  /// Edges introducing unseen vertices are treated as urgent.
  bool IsBenign(const Edge& weighted_edge) const;

  /// Forces a batch reorder of all buffered benign edges.
  Status Flush();

  /// Persists the weighted graph, peeling state and window log so a
  /// restarted detector resumes incremental updates (and expiry) without a
  /// from-scratch peel. Flushes the benign buffer first.
  Status SaveState(const std::string& path);

  /// Restores a detector persisted by SaveState. Semantics and the window
  /// log switch are NOT serialized — install the same VSusp/ESusp (and
  /// TurnOnWindowLog, for a windowed detector) before restoring.
  Status RestoreState(const std::string& path);

  /// A parsed snapshot: what SaveState writes and RestoreFromParts adopts.
  struct Parts {
    DynamicGraph graph;
    PeelState state;
    bool state_present = false;  // false: recompute the state by a peel
    std::vector<Edge> window;    // window log, oldest first
  };

  /// In-memory counterpart of RestoreState: adopts an already-validated
  /// snapshot. Used by the two-phase chain restore, which must parse and
  /// CRC-check every file before mutating any detector. Fails with
  /// kFailedPrecondition, touching nothing, when `parts` carries a window
  /// log and this detector's window log is off.
  Status RestoreFromParts(Parts parts);

  /// Number of buffered (grouped) benign edges awaiting a flush.
  std::size_t PendingBenignEdges() const { return benign_buffer_.size(); }
  /// The buffered benign edges themselves, at their applied weights: edges
  /// admitted but not yet in graph().
  std::span<const Edge> benign_buffer() const { return benign_buffer_; }

  /// Read-only views for analysis and tests.
  const DynamicGraph& graph() const { return graph_; }
  const PeelState& peel_state() const { return state_; }
  /// Window log: logged, not yet retired edges (applied weight, event ts).
  const std::deque<Edge>& window() const { return window_; }

  /// Accumulated affected-area accounting across all reorders.
  const ReorderStats& cumulative_stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  /// Applies ESusp to a raw edge against the current graph.
  Edge Weight(const Edge& raw) const;

  /// Registers unseen endpoints (prior from VSusp) before weighting.
  void EnsureEndpoints(const Edge& raw);

  Status InsertWeightedBatch(std::span<const Edge> weighted);

  /// ApplyEdge after validation: buffer a benign edge or reorder.
  Status Admit(const Edge& weighted);

  SpadeOptions options_;
  VertexSuspFn vsusp_;
  EdgeSuspFn esusp_;
  std::string semantics_name_ = "DG";

  DynamicGraph graph_;
  PeelState state_;
  IncrementalEngine engine_;
  ReorderStats stats_;

  // Edge-grouping state: buffered weighted edges plus the suspiciousness
  // mass each vertex has pending in the buffer (so IsBenign accounts for
  // not-yet-applied edges).
  std::vector<Edge> benign_buffer_;
  std::unordered_map<VertexId, double> pending_wdeg_;

  // Window log (TurnOnWindowLog): see window().
  bool window_on_ = false;
  std::deque<Edge> window_;
};

}  // namespace spade
