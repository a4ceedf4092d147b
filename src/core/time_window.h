// Sliding time-window fraud detection (paper Appendix C.3): maintain the
// peeling sequence of the graph induced by transactions inside a moving
// window [now - span, now], combining the batch insertion path (new edges
// entering the window) with the deletion path (outdated edges leaving it).
//
// A thin adapter over one Spade with its window log on — the expiry
// mechanism a windowed service partition runs — adding a fixed vertex set
// and nondecreasing timestamps, both validated before time advances.

#pragma once

#include <limits>

#include "common/status.h"
#include "core/spade.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "metrics/semantics.h"
#include "peel/peel_state.h"

namespace spade {

/// Detector over the most recent `window_span` of a timestamped edge stream.
///
/// Edges must be offered in nondecreasing timestamp order. Vertices persist
/// after their edges expire (with their prior weight only), matching the
/// paper's formulation where V evolves by insertion.
class TimeWindowDetector {
 public:
  /// `window_span` is in the same microsecond unit as Edge::ts.
  TimeWindowDetector(std::size_t num_vertices, Timestamp window_span,
                     const FraudSemantics& semantics);

  /// Feeds one timestamped raw edge; expires everything older than
  /// ts - window_span, then applies the new edge incrementally. An edge
  /// rejected for its own sake (out of order, unknown endpoint, self-loop,
  /// raw weight not finite and > 0) leaves the detector untouched.
  Status Offer(const Edge& raw_edge);

  /// Advances time without inserting (expires old edges only).
  Status AdvanceTo(Timestamp now);

  /// Community of the current window.
  Community Detect() const { return spade_.peel_state().DetectCommunity(); }

  std::size_t WindowEdgeCount() const { return spade_.window().size(); }
  const DynamicGraph& graph() const { return spade_.graph(); }
  const PeelState& peel_state() const { return spade_.peel_state(); }

 private:
  Timestamp window_span_;
  Spade spade_;
  // Highest timestamp ever observed (Offer or AdvanceTo). Monotonicity is
  // enforced against this, not the newest logged edge, so draining the
  // window empty cannot let time silently run backwards.
  Timestamp high_water_ts_ = std::numeric_limits<Timestamp>::min();
};

}  // namespace spade
