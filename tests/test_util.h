// Shared helpers for the Spade test suites: random graph construction with
// exactly-representable weights, and reference validators for peeling
// sequences.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/spade.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "peel/indexed_heap.h"
#include "peel/peel_state.h"

namespace spade::testing {

/// Builds a random multigraph with `n` vertices and `m` edges. Integer
/// weights in [1, max_weight] keep all peeling arithmetic exact in doubles,
/// so incremental and static runs must agree bit-for-bit.
inline DynamicGraph RandomGraph(Rng* rng, std::size_t n, std::size_t m,
                                int max_weight = 8,
                                int max_vertex_weight = 0) {
  DynamicGraph g(n);
  if (max_vertex_weight > 0) {
    for (std::size_t v = 0; v < n; ++v) {
      g.SetVertexWeight(
          static_cast<VertexId>(v),
          static_cast<double>(rng->NextBounded(max_vertex_weight + 1)));
    }
  }
  for (std::size_t i = 0; i < m && n >= 2; ++i) {
    auto src = static_cast<VertexId>(rng->NextBounded(n));
    auto dst = static_cast<VertexId>(rng->NextBounded(n));
    while (dst == src) dst = static_cast<VertexId>(rng->NextBounded(n));
    const auto w =
        static_cast<double>(1 + rng->NextBounded(max_weight));
    EXPECT_TRUE(g.AddEdge(src, dst, w).ok());
  }
  return g;
}

/// Draws a random non-self-loop edge with an integer weight.
inline Edge RandomEdge(Rng* rng, std::size_t n, int max_weight = 8) {
  auto src = static_cast<VertexId>(rng->NextBounded(n));
  auto dst = static_cast<VertexId>(rng->NextBounded(n));
  while (dst == src) dst = static_cast<VertexId>(rng->NextBounded(n));
  return {src, dst, static_cast<double>(1 + rng->NextBounded(max_weight)), 0};
}

/// Asserts two peel states are identical (same sequence, deltas within eps;
/// exact by default, as every weight on the 2^-20 grid makes them).
inline void ExpectStateEquals(const PeelState& expected,
                              const PeelState& actual, double eps = 0.0) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.VertexAt(i), actual.VertexAt(i))
        << "sequence diverges at position " << i;
    ASSERT_NEAR(expected.DeltaAt(i), actual.DeltaAt(i), eps)
        << "delta diverges at position " << i;
  }
}

/// Reference validator: replays the sequence against the graph from
/// definition, checking that (a) each step removes a minimal-weight pending
/// vertex within `eps` (with the canonical smaller-id tie-break when
/// `check_tie_break` is set — disable it only for weights off the 2^-20
/// grid, where ulp noise legitimately reorders exact ties), and (b) the
/// stored delta matches the recomputed peeling weight. O(n * (n + E)).
inline void ValidateCanonicalSequence(const DynamicGraph& g,
                                      const PeelState& state,
                                      double eps = 0.0,
                                      bool check_tie_break = true) {
  const std::size_t n = g.NumVertices();
  ASSERT_EQ(state.size(), n);
  std::vector<char> pending(n, 1);
  std::vector<double> weight(n);
  for (std::size_t v = 0; v < n; ++v) {
    weight[v] = g.WeightedDegree(static_cast<VertexId>(v));
  }
  for (std::size_t step = 0; step < n; ++step) {
    const VertexId u = state.VertexAt(step);
    ASSERT_TRUE(pending[u]) << "vertex repeated at step " << step;
    ASSERT_NEAR(weight[u], state.DeltaAt(step), eps)
        << "stored delta wrong at step " << step;
    // u must be canonical-minimal among pending (within eps slack on ties).
    for (std::size_t v = 0; v < n; ++v) {
      if (!pending[v] || v == u) continue;
      const bool strictly_smaller = weight[v] < weight[u] - eps;
      const bool tie_smaller_id = check_tie_break &&
                                  std::abs(weight[v] - weight[u]) <= eps &&
                                  v < u;
      ASSERT_FALSE(strictly_smaller || tie_smaller_id)
          << "step " << step << ": peeled " << u << " (w=" << weight[u]
          << ") but " << v << " (w=" << weight[v] << ") is smaller";
    }
    pending[u] = 0;
    g.ForEachIncident(u, [&](VertexId v, double w) {
      if (pending[v]) weight[v] -= w;
    });
  }
}

/// Induced density of `members` in the graph made of `edges`, for
/// semantics without vertex priors (DG/DW): the summed weight of the edges
/// with both endpoints in the set, over the set's size; 0 for no members.
/// A published community can never be denser than this in the graph it was
/// drawn from, so it is the upper bound the no-overstatement checks use.
inline double InducedDensity(std::span<const Edge> edges,
                             std::span<const VertexId> members) {
  if (members.empty()) return 0.0;
  const std::unordered_set<VertexId> in(members.begin(), members.end());
  double weight = 0.0;
  for (const Edge& e : edges) {
    if (in.contains(e.src) && in.contains(e.dst)) weight += e.weight;
  }
  return weight / static_cast<double>(in.size());
}

/// (src, dst, weight) triples, sorted: a graph's multiset of weighted edges
/// (adjacency order is not part of a detector's state).
inline std::vector<std::tuple<VertexId, VertexId, double>> EdgeBag(
    const DynamicGraph& g) {
  std::vector<std::tuple<VertexId, VertexId, double>> bag;
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    for (const NeighborEntry& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      bag.emplace_back(static_cast<VertexId>(v), e.vertex, e.weight);
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

/// Bit-level capture of one detector: peel state, graph (vertex weights
/// and edge multiset), benign buffer and window log. The recovery,
/// corruption and failover suites compare restored fleets against captures
/// of the live fleet at each checkpoint epoch.
struct ShardCapture {
  PeelState state;
  std::vector<double> vertex_weights;
  std::vector<std::tuple<VertexId, VertexId, double>> edges;
  std::vector<Edge> buffer;
  std::vector<Edge> window;
};

inline ShardCapture Capture(const Spade& spade) {
  ShardCapture c;
  c.state = spade.peel_state();
  for (std::size_t v = 0; v < spade.graph().NumVertices(); ++v) {
    c.vertex_weights.push_back(
        spade.graph().VertexWeight(static_cast<VertexId>(v)));
  }
  c.edges = EdgeBag(spade.graph());
  c.buffer.assign(spade.benign_buffer().begin(), spade.benign_buffer().end());
  c.window.assign(spade.window().begin(), spade.window().end());
  return c;
}

/// Asserts a restored detector equals a capture exactly: same peeling
/// sequence and deltas, same graph, same benign buffer, same window log.
inline void ExpectShardEqualsCapture(const ShardCapture& expected,
                                     const ShardCapture& actual) {
  ExpectStateEquals(expected.state, actual.state);
  EXPECT_EQ(expected.vertex_weights, actual.vertex_weights);
  EXPECT_EQ(expected.edges, actual.edges);
  EXPECT_EQ(expected.buffer, actual.buffer);
  EXPECT_EQ(expected.window, actual.window);
}

}  // namespace spade::testing
