// Fraud-detection semantics: the user-pluggable suspiciousness functions
// (the paper's VSusp / ESusp APIs) plus the three built-in instances DG [6],
// DW [18] and FD [19] from Appendix F.
//
// A semantics maps raw transactions onto the weighted graph on which the
// arithmetic density g(S) = f(S)/|S| is peeled:
//   * vsusp(u, g)  -> prior suspiciousness a_u of a vertex (>= 0),
//   * esusp(e, g)  -> suspiciousness c_ij of a transaction edge (> 0).
// Spade's admission refuses, with kInvalidArgument, a value outside its
// range or not finite (after rounding onto the weight grid).
//
// Edge suspiciousness is evaluated once, when the edge is inserted, against
// the graph state at that moment (degrees already include the new edge's
// endpoints). The weight then stays fixed; static-vs-incremental equivalence
// is defined over the resulting weighted graph.

#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "graph/dynamic_graph.h"
#include "graph/types.h"

namespace spade {

/// Vertex suspiciousness callback: a_u for a (new) vertex u.
using VertexSuspFn = std::function<double(VertexId, const DynamicGraph&)>;

/// Edge suspiciousness callback: c_ij for a raw transaction edge. The raw
/// edge's `weight` field carries application data (e.g. transaction amount).
using EdgeSuspFn = std::function<double(const Edge&, const DynamicGraph&)>;

/// A named pair of suspiciousness functions defining a peeling algorithm's
/// density metric (Property 3.1 instances).
struct FraudSemantics {
  std::string name;
  VertexSuspFn vsusp;
  EdgeSuspFn esusp;
};

/// DG (Charikar's greedy densest subgraph): unweighted edges, no priors.
/// g(S) = |E[S]| / |S|.
inline FraudSemantics MakeDG() {
  return {
      "DG",
      [](VertexId, const DynamicGraph&) { return 0.0; },
      [](const Edge&, const DynamicGraph&) { return 1.0; },
  };
}

/// DW (dense weighted subgraph): the raw transaction amount is the edge
/// suspiciousness. g(S) = sum of edge weights / |S|.
inline FraudSemantics MakeDW() {
  return {
      "DW",
      [](VertexId, const DynamicGraph&) { return 0.0; },
      [](const Edge& e, const DynamicGraph&) { return e.weight; },
  };
}

/// FD (Fraudar): camouflage-resistant hybrid weighting. Edge suspiciousness
/// is 1/log(x + c) with x the current degree of the object (destination)
/// vertex; vertex priors come from side information already stored on the
/// graph (DynamicGraph::VertexWeight).
///
/// `log_offset` is the paper's small positive constant c (default 5).
inline FraudSemantics MakeFD(double log_offset = 5.0) {
  return {
      "FD",
      [](VertexId u, const DynamicGraph& g) { return g.VertexWeight(u); },
      [log_offset](const Edge& e, const DynamicGraph& g) {
        const double x = static_cast<double>(g.Degree(e.dst));
        return 1.0 / std::log(x + log_offset);
      },
  };
}

/// Looks up a built-in semantics by name ("DG", "DW", "FD").
/// Returns DG for unknown names.
inline FraudSemantics MakeSemanticsByName(const std::string& name) {
  if (name == "DW") return MakeDW();
  if (name == "FD") return MakeFD();
  return MakeDG();
}

}  // namespace spade
