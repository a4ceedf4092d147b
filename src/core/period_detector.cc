#include "core/period_detector.h"

#include <algorithm>

#include "common/logging.h"

namespace spade {

PeriodDetector::PeriodDetector(std::size_t num_vertices, std::vector<Edge> log,
                               const FraudSemantics& semantics)
    : log_(std::move(log)), applied_weight_(log_.size(), 0.0) {
  SPADE_CHECK(std::is_sorted(
      log_.begin(), log_.end(),
      [](const Edge& a, const Edge& b) { return a.ts < b.ts; }));
  spade_.SetSemantics(semantics);
  // No edges: only the vertex priors and the trivial peel.
  SPADE_CHECK(spade_.BuildGraph(num_vertices, {}).ok());
}

std::size_t PeriodDetector::LowerBound(Timestamp t) const {
  return static_cast<std::size_t>(
      std::lower_bound(log_.begin(), log_.end(), t,
                       [](const Edge& e, Timestamp ts) { return e.ts < ts; }) -
      log_.begin());
}

Status PeriodDetector::ApplyInsert(std::size_t i) {
  const Edge& raw = log_[i];
  if (raw.src >= graph().NumVertices() || raw.dst >= graph().NumVertices()) {
    return Status::InvalidArgument("PeriodDetector: endpoint out of range");
  }
  return spade_.ApplyEdge(raw, &applied_weight_[i]);
}

Status PeriodDetector::SetPeriod(Timestamp begin, Timestamp end) {
  if (begin > end) {
    return Status::InvalidArgument("SetPeriod: begin > end");
  }
  // New materialized range [new_lo, new_hi): log entries with
  // begin <= ts <= end.
  const std::size_t new_lo = LowerBound(begin);
  const std::size_t new_hi = LowerBound(end + 1);

  // Figure 17's five cases reduce to two interval differences:
  // delete [lo_, hi_) \ [new_lo, new_hi), insert [new_lo, new_hi) \ [lo_, hi_).
  // Deletions run first, as one batch at the recorded applied weights, so
  // degree-dependent semantics weigh entering edges against the closest
  // approximation of the target period's graph.
  std::vector<Edge> leaving;
  for (std::size_t i = lo_; i < hi_; ++i) {
    if (i < new_lo || i >= new_hi) {
      leaving.push_back(log_[i]);
      leaving.back().weight = applied_weight_[i];
    }
  }
  SPADE_RETURN_NOT_OK(spade_.RetireEdges(leaving));
  for (std::size_t i = new_lo; i < new_hi; ++i) {
    if (i < lo_ || i >= hi_) {
      SPADE_RETURN_NOT_OK(ApplyInsert(i));
    }
  }
  lo_ = new_lo;
  hi_ = new_hi;
  begin_ = begin;
  end_ = end;
  return Status::OK();
}

}  // namespace spade
