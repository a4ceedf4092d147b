#include "core/time_window.h"

#include <cmath>

#include "common/logging.h"

namespace spade {

TimeWindowDetector::TimeWindowDetector(std::size_t num_vertices,
                                       Timestamp window_span,
                                       const FraudSemantics& semantics)
    : window_span_(window_span) {
  spade_.SetSemantics(semantics);
  spade_.TurnOnWindowLog();
  // No edges: only the vertex priors and the trivial peel.
  SPADE_CHECK(spade_.BuildGraph(num_vertices, {}).ok());
}

Status TimeWindowDetector::AdvanceTo(Timestamp now) {
  if (now > high_water_ts_) high_water_ts_ = now;
  return spade_.RetireOlderThan(now - window_span_).status();
}

Status TimeWindowDetector::Offer(const Edge& raw_edge) {
  // Validate everything that does not depend on the post-expiry graph
  // BEFORE advancing time: a rejected Offer must leave the detector
  // untouched (no expiry side effects), and monotonicity is checked against
  // the persistent high-water mark so an empty window does not reopen the
  // past. Only the post-ESusp weight check, inside ApplyEdge, runs after
  // expiry — that weight is computed against the expired graph.
  if (raw_edge.ts < high_water_ts_) {
    return Status::InvalidArgument(
        "TimeWindowDetector: edges must arrive in timestamp order");
  }
  if (raw_edge.src >= graph().NumVertices() ||
      raw_edge.dst >= graph().NumVertices()) {
    return Status::InvalidArgument("TimeWindowDetector: unknown endpoint");
  }
  if (raw_edge.src == raw_edge.dst) {
    return Status::InvalidArgument(
        "TimeWindowDetector: self-loops not supported");
  }
  if (!std::isfinite(raw_edge.weight) || raw_edge.weight <= 0.0) {
    return Status::InvalidArgument(
        "TimeWindowDetector: weight must be finite and > 0");
  }
  SPADE_RETURN_NOT_OK(AdvanceTo(raw_edge.ts));
  return spade_.ApplyEdge(raw_edge);
}

}  // namespace spade
