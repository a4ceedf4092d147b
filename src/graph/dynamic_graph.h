// DynamicGraph: the evolving transaction graph G = (V, E).
//
// A directed, weighted multigraph stored as paired out/in adjacency lists,
// optimized for append-style edge insertion (the dominant operation in
// Spade's workloads) while still supporting targeted deletion for the
// appendix C.1 extension. Vertex weights carry the per-user prior
// suspiciousness a_i; edge weights carry the per-transaction suspiciousness
// c_ij.

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/types.h"

namespace spade {

/// Directed weighted multigraph with O(1) amortized edge insertion.
///
/// Invariants maintained at all times:
///  * out_[u] and in_[v] stay mirror images of each other,
///  * weighted_degree(u) == a_u + sum of weights of all incident edges
///    (both directions), which is exactly the paper's w_u(S_0),
///  * total_edge_weight() == sum of all edge weights.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Creates a graph with `n` vertices of weight 0 and no edges.
  explicit DynamicGraph(std::size_t n) { EnsureVertices(n); }

  /// Number of vertices (dense id space).
  std::size_t NumVertices() const { return vertex_weight_.size(); }

  /// Number of edges, counting parallel edges individually.
  std::size_t NumEdges() const { return num_edges_; }

  /// Grows the vertex set so ids [0, n) are valid; new weights are 0.
  void EnsureVertices(std::size_t n) {
    if (n <= NumVertices()) return;
    vertex_weight_.resize(n, 0.0);
    weighted_degree_.resize(n, 0.0);
    out_.resize(n);
    in_.resize(n);
    // Previously absent vertices contribute weight 0, so weighted_degree_
    // needs no fixup.
  }

  /// Drops ids [n, NumVertices()): undoes an EnsureVertices whose edge was
  /// then refused. The dropped vertices must hold no edges and no weight.
  void TruncateVertices(std::size_t n) {
    if (n >= NumVertices()) return;
    for (std::size_t v = n; v < NumVertices(); ++v) {
      SPADE_DCHECK(out_[v].empty() && in_[v].empty() &&
                   vertex_weight_[v] == 0.0);
    }
    vertex_weight_.resize(n);
    weighted_degree_.resize(n);
    out_.resize(n);
    in_.resize(n);
  }

  /// Adds a fresh vertex with prior suspiciousness `weight`; returns its id.
  VertexId AddVertex(double weight = 0.0) {
    const auto id = static_cast<VertexId>(NumVertices());
    vertex_weight_.push_back(weight);
    weighted_degree_.push_back(weight);
    out_.emplace_back();
    in_.emplace_back();
    total_vertex_weight_ += weight;
    return id;
  }

  /// Sets the prior suspiciousness a_u of an existing vertex.
  void SetVertexWeight(VertexId u, double weight) {
    SPADE_DCHECK(u < NumVertices());
    const double old = vertex_weight_[u];
    vertex_weight_[u] = weight;
    weighted_degree_[u] += weight - old;
    total_vertex_weight_ += weight - old;
  }

  double VertexWeight(VertexId u) const { return vertex_weight_[u]; }

  /// Inserts a directed edge; endpoints must already exist, must differ
  /// (transaction graphs have no self-loops, and peeling weights would
  /// double-count them), and the weight must be positive (Property 3.1
  /// requires c_ij > 0).
  Status AddEdge(VertexId src, VertexId dst, double weight) {
    if (src >= NumVertices() || dst >= NumVertices()) {
      return Status::InvalidArgument("AddEdge: endpoint out of range");
    }
    if (src == dst) {
      return Status::InvalidArgument("AddEdge: self-loops are not supported");
    }
    if (!(weight > 0.0)) {
      return Status::InvalidArgument("AddEdge: edge weight must be > 0");
    }
    out_[src].push_back({dst, weight});
    in_[dst].push_back({src, weight});
    weighted_degree_[src] += weight;
    weighted_degree_[dst] += weight;
    total_edge_weight_ += weight;
    ++num_edges_;
    return Status::OK();
  }

  /// Removes one parallel edge (src, dst); if several exist, the most
  /// recently inserted one is removed. Returns its weight. When
  /// `weight_filter` is non-null, only a copy with exactly that weight is
  /// eligible (sliding-window expiry must remove the copy it inserted, since
  /// degree-dependent semantics give parallel edges distinct weights).
  Result<double> RemoveEdge(VertexId src, VertexId dst,
                            const double* weight_filter = nullptr) {
    if (src >= NumVertices() || dst >= NumVertices()) {
      return Status::InvalidArgument("RemoveEdge: endpoint out of range");
    }
    double weight = 0.0;
    if (!EraseLast(&out_[src], dst, weight_filter, &weight)) {
      return Status::NotFound("RemoveEdge: edge not present");
    }
    double in_weight = 0.0;
    const bool erased = EraseLast(&in_[dst], src, &weight, &in_weight);
    SPADE_CHECK(erased);
    weighted_degree_[src] -= weight;
    weighted_degree_[dst] -= weight;
    total_edge_weight_ -= weight;
    --num_edges_;
    return weight;
  }

  const std::vector<NeighborEntry>& OutNeighbors(VertexId u) const {
    return out_[u];
  }
  const std::vector<NeighborEntry>& InNeighbors(VertexId u) const {
    return in_[u];
  }

  std::size_t OutDegree(VertexId u) const { return out_[u].size(); }
  std::size_t InDegree(VertexId u) const { return in_[u].size(); }

  /// Total incident edge count (both directions).
  std::size_t Degree(VertexId u) const {
    return out_[u].size() + in_[u].size();
  }

  /// w_u(S_0): a_u plus the weights of all incident edges. This is the
  /// quantity Definition 4.1's benign-edge test compares against g(S_P).
  double WeightedDegree(VertexId u) const { return weighted_degree_[u]; }

  /// Sum of all vertex weights (f_V(V)).
  double TotalVertexWeight() const { return total_vertex_weight_; }

  /// Sum of all edge weights (f_E(V)).
  double TotalEdgeWeight() const { return total_edge_weight_; }

  /// f(S_0) = f_V(V) + f_E(V): total suspiciousness of the whole graph.
  double TotalWeight() const {
    return total_vertex_weight_ + total_edge_weight_;
  }

  /// Applies `fn(v, w)` for every incident edge of u in either direction
  /// (out-edges first). Parallel edges are visited individually.
  template <typename Fn>
  void ForEachIncident(VertexId u, Fn&& fn) const {
    for (const auto& e : out_[u]) fn(e.vertex, e.weight);
    for (const auto& e : in_[u]) fn(e.vertex, e.weight);
  }

  /// Returns true if at least one edge (u, v) or (v, u) exists.
  bool HasEdgeEitherDirection(VertexId u, VertexId v) const {
    // Scan the smaller endpoint's lists.
    const VertexId a = Degree(u) <= Degree(v) ? u : v;
    const VertexId b = a == u ? v : u;
    for (const auto& e : out_[a]) {
      if (e.vertex == b) return true;
    }
    for (const auto& e : in_[a]) {
      if (e.vertex == b) return true;
    }
    return false;
  }

 private:
  static bool EraseLast(std::vector<NeighborEntry>* list, VertexId target,
                        const double* weight_filter, double* weight_out) {
    for (auto it = list->rbegin(); it != list->rend(); ++it) {
      if (it->vertex == target &&
          (weight_filter == nullptr || it->weight == *weight_filter)) {
        *weight_out = it->weight;
        list->erase(std::next(it).base());
        return true;
      }
    }
    return false;
  }

  std::vector<double> vertex_weight_;
  std::vector<double> weighted_degree_;
  std::vector<std::vector<NeighborEntry>> out_;
  std::vector<std::vector<NeighborEntry>> in_;
  std::size_t num_edges_ = 0;
  double total_edge_weight_ = 0.0;
  double total_vertex_weight_ = 0.0;
};

}  // namespace spade
