#include "core/spade.h"

#include <algorithm>
#include <cmath>

#include "graph/graph_io.h"
#include "peel/static_peeler.h"
#include "storage/snapshot.h"

namespace spade {
namespace {

/// Admission test on a post-ESusp weight: finite and positive.
bool IsAdmissibleWeight(double weight) {
  return std::isfinite(weight) && weight > 0.0;
}

}  // namespace

Spade::Spade(SpadeOptions options) : options_(options) {
  const FraudSemantics dg = MakeDG();
  vsusp_ = dg.vsusp;
  esusp_ = dg.esusp;
}

Edge Spade::Weight(const Edge& raw) const {
  Edge weighted = raw;
  weighted.weight = esusp_ ? esusp_(raw, graph_) : raw.weight;
  return weighted;
}

void Spade::EnsureEndpoints(const Edge& raw) {
  for (VertexId v : {raw.src, raw.dst}) {
    if (v >= graph_.NumVertices()) {
      graph_.EnsureVertices(v + 1);
    }
  }
}

Status Spade::LoadGraph(const std::string& path) {
  auto edges = LoadEdgeList(path);
  if (!edges.ok()) return edges.status();
  std::size_t max_vertex = 0;
  for (const Edge& e : edges.value()) {
    max_vertex = std::max<std::size_t>(max_vertex, std::max(e.src, e.dst));
  }
  return BuildGraph(edges.value().empty() ? 0 : max_vertex + 1,
                    edges.value());
}

Status Spade::BuildGraph(std::size_t num_vertices,
                         std::span<const Edge> raw_edges) {
  graph_ = DynamicGraph(num_vertices);
  benign_buffer_.clear();
  pending_wdeg_.clear();
  window_.clear();
  stats_.Reset();

  // Vertex priors first (FD reads them back through VSusp side info), then
  // edges in stream order so degree-dependent ESusp instances see the graph
  // grow exactly as the replayed history did.
  if (vsusp_) {
    for (std::size_t v = 0; v < num_vertices; ++v) {
      graph_.SetVertexWeight(static_cast<VertexId>(v),
                             vsusp_(static_cast<VertexId>(v), graph_));
    }
  }
  for (const Edge& raw : raw_edges) {
    if (raw.src >= num_vertices || raw.dst >= num_vertices) {
      return Status::InvalidArgument("BuildGraph: endpoint out of range");
    }
    SPADE_RETURN_NOT_OK(
        graph_.AddEdge(raw.src, raw.dst, Weight(raw).weight));
  }
  state_ = PeelStatic(graph_);
  return Status::OK();
}

Community Spade::Detect() {
  const Status s = Flush();
  SPADE_CHECK(s.ok());
  return state_.DetectCommunity();
}

bool Spade::IsBenign(const Edge& weighted_edge) const {
  if (!options_.enable_edge_grouping) return false;
  if (weighted_edge.src >= graph_.NumVertices() ||
      weighted_edge.dst >= graph_.NumVertices() ||
      !state_.ContainsVertex(weighted_edge.src) ||
      !state_.ContainsVertex(weighted_edge.dst)) {
    // A brand-new account transacting is treated as urgent.
    return false;
  }
  const double threshold = state_.BestDensity();
  for (VertexId v : {weighted_edge.src, weighted_edge.dst}) {
    double w0 = graph_.WeightedDegree(v) + weighted_edge.weight;
    if (auto it = pending_wdeg_.find(v); it != pending_wdeg_.end()) {
      w0 += it->second;
    }
    if (w0 >= threshold) return false;
  }
  return true;
}

Status Spade::Flush() {
  if (benign_buffer_.empty()) return Status::OK();
  std::vector<Edge> batch;
  batch.swap(benign_buffer_);
  pending_wdeg_.clear();
  return InsertWeightedBatch(batch);
}

Status Spade::InsertWeightedBatch(std::span<const Edge> weighted) {
  return engine_.InsertBatch(&graph_, &state_, weighted, vsusp_, &stats_);
}

Status Spade::ApplyEdge(const Edge& raw_edge, double* applied_weight) {
  // A failed insert must not leave vertices the peel state does not cover:
  // a self-loop fails before the graph grows, a bad weight shrinks it back.
  if (raw_edge.src == raw_edge.dst) {
    return Status::InvalidArgument("ApplyEdge: self-loops not supported");
  }
  const std::size_t num_vertices = graph_.NumVertices();
  EnsureEndpoints(raw_edge);
  const Edge weighted = Weight(raw_edge);
  // Reject before buffering: a buffered bad edge would fail the whole batch
  // at the next flush, taking the valid edges grouped with it down too.
  if (!IsAdmissibleWeight(weighted.weight)) {
    graph_.TruncateVertices(num_vertices);
    return Status::InvalidArgument(
        "ApplyEdge: weight must be finite and > 0");
  }
  // The weight is fixed here, at admission — a benign-buffered edge still
  // enters the graph with this value when the buffer flushes, so it is the
  // weight the window log records and a later deletion must subtract.
  if (applied_weight != nullptr) *applied_weight = weighted.weight;
  SPADE_RETURN_NOT_OK(Admit(weighted));
  if (window_on_) window_.push_back(weighted);
  return Status::OK();
}

Status Spade::Admit(const Edge& weighted) {
  if (options_.enable_edge_grouping) {
    if (IsBenign(weighted) &&
        benign_buffer_.size() < options_.max_benign_buffer) {
      benign_buffer_.push_back(weighted);
      pending_wdeg_[weighted.src] += weighted.weight;
      pending_wdeg_[weighted.dst] += weighted.weight;
      return Status::OK();
    }
    // Urgent edge: reorder the whole buffer together with it (Algorithm 3).
    benign_buffer_.push_back(weighted);
    std::vector<Edge> batch;
    batch.swap(benign_buffer_);
    pending_wdeg_.clear();
    return InsertWeightedBatch(batch);
  }
  return InsertWeightedBatch(std::span<const Edge>(&weighted, 1));
}

Status Spade::ApplyBatchEdges(std::span<const Edge> raw_edges) {
  SPADE_RETURN_NOT_OK(Flush());
  for (const Edge& raw : raw_edges) {
    // A failed insert must not leave vertices the peel state does not
    // cover: self-loops fail before the graph grows, a bad weight shrinks
    // it back (no edge of the batch has entered it yet).
    if (raw.src == raw.dst) {
      return Status::InvalidArgument(
          "ApplyBatchEdges: self-loops not supported");
    }
  }
  const std::size_t num_vertices = graph_.NumVertices();
  std::vector<Edge> weighted;
  weighted.reserve(raw_edges.size());
  for (const Edge& raw : raw_edges) {
    EnsureEndpoints(raw);
    weighted.push_back(Weight(raw));
    if (!IsAdmissibleWeight(weighted.back().weight)) {
      graph_.TruncateVertices(num_vertices);
      return Status::InvalidArgument(
          "ApplyBatchEdges: weight must be finite and > 0");
    }
  }
  SPADE_RETURN_NOT_OK(InsertWeightedBatch(weighted));
  if (window_on_) {
    window_.insert(window_.end(), weighted.begin(), weighted.end());
  }
  return Status::OK();
}

Result<Community> Spade::InsertEdge(const Edge& raw_edge) {
  SPADE_RETURN_NOT_OK(ApplyEdge(raw_edge));
  return state_.DetectCommunity();
}

Result<Community> Spade::InsertBatchEdges(std::span<const Edge> raw_edges) {
  SPADE_RETURN_NOT_OK(ApplyBatchEdges(raw_edges));
  return state_.DetectCommunity();
}

Status Spade::DeleteEdge(VertexId src, VertexId dst) {
  if (window_on_) {
    return Status::FailedPrecondition("DeleteEdge: the window log is on");
  }
  SPADE_RETURN_NOT_OK(Flush());
  return engine_.DeleteEdge(&graph_, &state_, src, dst, &stats_);
}

Status Spade::RetireEdges(std::span<const Edge> edges) {
  if (window_on_) {
    return Status::FailedPrecondition("RetireEdges: the window log is on");
  }
  SPADE_RETURN_NOT_OK(Flush());
  return engine_.DeleteBatch(&graph_, &state_, edges, &stats_);
}

Result<std::vector<Edge>> Spade::RetireOlderThan(Timestamp horizon) {
  std::vector<Edge> retired;
  if (window_.empty() || window_.front().ts >= horizon) return retired;
  // Only a pass that retires anything flushes, so a replayed pass record
  // flushes the same buffered prefix and needs no flush marker before it.
  SPADE_RETURN_NOT_OK(Flush());
  const auto expired = std::find_if(
      window_.begin(), window_.end(),
      [&](const Edge& e) { return e.ts >= horizon; });
  // One batch at the logged weights (FD's degree term has moved on since
  // admission); the log keeps its prefix unless the whole batch applies.
  retired.assign(window_.begin(), expired);
  SPADE_RETURN_NOT_OK(
      engine_.DeleteBatch(&graph_, &state_, retired, &stats_));
  window_.erase(window_.begin(), expired);
  return retired;
}

Status Spade::SaveState(const std::string& path) {
  SPADE_RETURN_NOT_OK(Flush());
  const std::vector<Edge> window(window_.begin(), window_.end());
  return SaveSnapshot(path, graph_, &state_, window);
}

Status Spade::RestoreState(const std::string& path) {
  Parts parts;
  SPADE_RETURN_NOT_OK(LoadSnapshot(path, &parts.graph, &parts.state,
                                   &parts.state_present, &parts.window));
  return RestoreFromParts(std::move(parts));
}

Status Spade::RestoreFromParts(Parts parts) {
  if (!window_on_ && !parts.window.empty()) {
    return Status::FailedPrecondition(
        "RestoreFromParts: snapshot has a window log, this detector none");
  }
  graph_ = std::move(parts.graph);
  state_ = parts.state_present ? std::move(parts.state) : PeelStatic(graph_);
  window_.assign(parts.window.begin(), parts.window.end());
  benign_buffer_.clear();
  pending_wdeg_.clear();
  stats_.Reset();
  return Status::OK();
}

}  // namespace spade
