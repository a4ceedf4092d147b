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
//
// Exact weights (DESIGN.md §2.2): every post-ESusp edge weight and every
// VSusp prior is rounded onto the 2^-20 grid at admission
// (graph/weight_grid.h), and an edge that would lift the detector's mass —
// graph plus benign buffer — past 2^32 is refused, as is one whose weight
// rounds to 0. Every sum the peeling code takes is then exact, so the peel
// state is a function of the weighted graph alone: ReplayDelta applies a
// checkpoint range as one DeleteBatch and one InsertBatch and still equals
// the detector that lived through it, bit for bit.

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
#include "storage/delta_segment.h"

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
  /// the installed semantics (weights and priors rounded onto the grid),
  /// then runs the static peeling once. Fails with kInvalidArgument, the
  /// detector untouched, on an endpoint out of range, a weight that is not
  /// finite and positive, a prior that is not finite and >= 0, or a mass
  /// past kMaxPartitionMass.
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
  /// `applied_weight` (optional) receives the post-ESusp weight, rounded
  /// onto the grid, that the edge entered (or will enter, if
  /// benign-buffered) the graph with — the weight a later RetireEdges must
  /// subtract. A new endpoint's VSusp prior is rounded the same way. An
  /// edge whose applied weight is not finite and positive (it rounds to 0,
  /// say), whose new endpoint's prior is not finite and >= 0, or that
  /// would lift the mass past kMaxPartitionMass, fails with
  /// kInvalidArgument before the graph grows and before anything is
  /// buffered or logged (ApplyBatchEdges then applies none of the batch).
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

  /// Chain replay (DESIGN.md §5.3): advances a detector holding the state
  /// sealed just before `segments[0]` to the state sealed at the end of the
  /// last segment. Insert records carry applied weights, so ESusp never
  /// runs again. The window log is rebuilt from the records: each retire
  /// record pops its horizon with RetireOlderThan's prefix pop, and a pass
  /// that pops a different count than recorded fails with kInternal naming
  /// its epoch, before anything changes. Every vertex an insert record
  /// names joins the graph first, each new one at the prior VSusp gives it
  /// here; a prior that is not finite and >= 0 fails with kInvalidArgument,
  /// the detector untouched. The logged edges the range retired then leave
  /// the graph in one DeleteBatch, and the inserts no pass popped enter it
  /// in one InsertBatch. The benign buffer must be empty, as every save and
  /// seal leaves it (else kFailedPrecondition). Returns the merges run: at
  /// most 2.
  Result<std::size_t> ReplayDelta(std::span<const DeltaSegment> segments);

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
  /// TurnOnWindowLog, for a windowed detector) before restoring. A snapshot
  /// holding an off-grid weight or a mass past the bound fails to load.
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
  /// Applies ESusp to a raw edge against `g` and rounds the result onto
  /// the grid.
  Edge Weight(const Edge& raw, const DynamicGraph& g) const;

  /// VSusp's prior for `v` against the current graph, on the grid.
  double Prior(VertexId v) const;

  /// Grows the graph to cover both endpoints (new ids weigh 0 until
  /// AdmitWeighted gives the endpoints their priors).
  void EnsureEndpoints(const Edge& raw);

  /// Admission of `weighted`, whose endpoints EnsureEndpoints grew the
  /// graph for from id `num_vertices` on: each weight must be finite and
  /// positive, and the mass after the batch, new endpoints' priors
  /// included, within kMaxPartitionMass. On success every new endpoint
  /// carries its prior, read in arrival order; on failure the graph shrinks
  /// back to `num_vertices` and the call returns kInvalidArgument.
  Status AdmitWeighted(std::span<const Edge> weighted,
                       std::size_t num_vertices, const char* caller);

  /// Graph mass plus the benign buffer's: what kMaxPartitionMass bounds.
  double Mass() const { return graph_.TotalWeight() + buffered_mass_; }

  /// Appends a weighted edge to the benign buffer and its pending sums.
  void Buffer(const Edge& weighted);

  /// Empties the benign buffer into a batch for the engine.
  std::vector<Edge> TakeBuffer();

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
  // not-yet-applied edges), and the buffer's total.
  std::vector<Edge> benign_buffer_;
  std::unordered_map<VertexId, double> pending_wdeg_;
  double buffered_mass_ = 0.0;

  // Window log (TurnOnWindowLog): see window().
  bool window_on_ = false;
  std::deque<Edge> window_;
};

}  // namespace spade
