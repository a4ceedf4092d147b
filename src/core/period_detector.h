// Fraud detection during an arbitrary time period (paper Appendix C.3).
//
// Given the full timestamped transaction log, maintains the peeling state of
// the graph induced by one period [τs, τe] and *retargets* it to any other
// period [τs', τe'] by incrementally inserting the edges that enter and
// deleting the edges that leave — covering all five overlap cases of the
// paper's Figure 17 (disjoint, containment either way, and both partial
// overlaps) with one uniform diff computation.
//
// A thin adapter over one Spade (without a window log: a period moves both
// ends) adding the period diffing; a retarget's leaving edges go through
// one RetireEdges batch at their recorded applied weights.

#pragma once

#include <utility>
#include <vector>

#include "common/status.h"
#include "core/spade.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "metrics/semantics.h"
#include "peel/peel_state.h"

namespace spade {

/// Detector over arbitrary periods of a fixed transaction log.
class PeriodDetector {
 public:
  /// `log` must be sorted by timestamp ascending; all endpoints must be
  /// below `num_vertices`. The detector starts with an empty period.
  PeriodDetector(std::size_t num_vertices, std::vector<Edge> log,
                 const FraudSemantics& semantics);

  /// Moves the materialized period to [begin, end] (inclusive bounds).
  /// Cost is proportional to the symmetric difference between the old and
  /// new periods, not to the period length.
  Status SetPeriod(Timestamp begin, Timestamp end);

  /// Community of the current period's graph.
  Community Detect() const { return spade_.peel_state().DetectCommunity(); }

  std::pair<Timestamp, Timestamp> period() const { return {begin_, end_}; }
  std::size_t EdgesInPeriod() const { return hi_ - lo_; }
  const DynamicGraph& graph() const { return spade_.graph(); }
  const PeelState& peel_state() const { return spade_.peel_state(); }

 private:
  /// First log index with ts >= t.
  std::size_t LowerBound(Timestamp t) const;

  /// Inserts log[i] into the graph/state, recording its applied weight.
  Status ApplyInsert(std::size_t i);

  std::vector<Edge> log_;
  Spade spade_;

  // Materialized half-open log range [lo_, hi_) and its period bounds.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  Timestamp begin_ = 0;
  Timestamp end_ = -1;

  // Weight each materialized edge carried when inserted (degree-dependent
  // semantics give different weights on re-insertion, so deletion must
  // target the recorded copy).
  std::vector<double> applied_weight_;
};

}  // namespace spade
