#include "core/spade.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/graph_io.h"
#include "graph/weight_grid.h"
#include "peel/static_peeler.h"
#include "storage/snapshot.h"

namespace spade {
namespace {

/// Admission test on an applied (grid-rounded) weight: finite and positive.
bool IsAdmissibleWeight(double weight) {
  return std::isfinite(weight) && weight > 0.0;
}

/// Admission test on a rounded prior a_u: finite and >= 0. A negative
/// prior would let a partial sum exceed the mass the bound counts
/// (DESIGN.md §2.2).
bool IsAdmissiblePrior(double prior) {
  return std::isfinite(prior) && prior >= 0.0;
}

/// The window log's expired prefix ends at the first entry at or past the
/// horizon: a late arrival shields the entries behind it. The one prefix
/// pop of RetireOlderThan and ReplayDelta.
template <typename It>
It ExpiredEnd(It first, It last, Timestamp horizon) {
  return std::find_if(first, last,
                      [horizon](const Edge& e) { return e.ts >= horizon; });
}

std::string MassRefusal(const char* caller, double mass) {
  std::ostringstream os;
  os << caller << ": mass " << mass << " would exceed the bound "
     << kMaxPartitionMass;
  return os.str();
}

std::string PriorRefusal(const char* caller, VertexId v, double prior) {
  std::ostringstream os;
  os << caller << ": prior " << prior << " of vertex " << v
     << " must be finite and >= 0";
  return os.str();
}

}  // namespace

Spade::Spade(SpadeOptions options) : options_(options) {
  const FraudSemantics dg = MakeDG();
  vsusp_ = dg.vsusp;
  esusp_ = dg.esusp;
}

Edge Spade::Weight(const Edge& raw, const DynamicGraph& g) const {
  Edge weighted = raw;
  weighted.weight = QuantizeWeight(esusp_ ? esusp_(raw, g) : raw.weight);
  return weighted;
}

double Spade::Prior(VertexId v) const {
  return QuantizeWeight(vsusp_ ? vsusp_(v, graph_) : 0.0);
}

void Spade::EnsureEndpoints(const Edge& raw) {
  for (VertexId v : {raw.src, raw.dst}) {
    if (v >= graph_.NumVertices()) {
      graph_.EnsureVertices(v + 1);
    }
  }
}

Status Spade::AdmitWeighted(std::span<const Edge> weighted,
                            std::size_t num_vertices, const char* caller) {
  double mass = Mass();
  for (const Edge& e : weighted) {
    if (!IsAdmissibleWeight(e.weight)) {
      graph_.TruncateVertices(num_vertices);
      return Status::InvalidArgument(
          std::string(caller) +
          ": weight must be finite and > 0 on the 2^-20 grid");
    }
    mass += e.weight;
  }
  // Priors in the order the endpoints first appear, each read against the
  // graph with the earlier ones set. The new ids are exactly
  // [num_vertices, NumVertices()). A refused prior is never set, so the
  // rollback below subtracts only finite weights.
  std::vector<char> fresh(graph_.NumVertices() - num_vertices, 0);
  const auto set_priors = [&]() -> Status {
    for (const Edge& e : weighted) {
      for (VertexId v : {e.src, e.dst}) {
        if (v < num_vertices || fresh[v - num_vertices]) continue;
        fresh[v - num_vertices] = 1;
        const double prior = Prior(v);
        if (!IsAdmissiblePrior(prior)) {
          return Status::InvalidArgument(PriorRefusal(caller, v, prior));
        }
        graph_.SetVertexWeight(v, prior);
        mass += prior;
      }
    }
    if (!(mass <= kMaxPartitionMass)) {
      return Status::InvalidArgument(MassRefusal(caller, mass));
    }
    return Status::OK();
  };
  const Status status = set_priors();
  if (!status.ok()) {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const auto v = static_cast<VertexId>(num_vertices + i);
      graph_.SetVertexWeight(v, 0.0);
    }
    graph_.TruncateVertices(num_vertices);
  }
  return status;
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
  // Built aside: a refused edge leaves the detector as it was.
  DynamicGraph graph(num_vertices);
  // Vertex priors first (FD reads them back through VSusp side info), then
  // edges in stream order so degree-dependent ESusp instances see the graph
  // grow exactly as the replayed history did.
  if (vsusp_) {
    for (std::size_t v = 0; v < num_vertices; ++v) {
      const auto id = static_cast<VertexId>(v);
      const double prior = QuantizeWeight(vsusp_(id, graph));
      if (!IsAdmissiblePrior(prior)) {
        return Status::InvalidArgument(PriorRefusal("BuildGraph", id, prior));
      }
      graph.SetVertexWeight(id, prior);
    }
  }
  for (const Edge& raw : raw_edges) {
    if (raw.src >= num_vertices || raw.dst >= num_vertices) {
      return Status::InvalidArgument("BuildGraph: endpoint out of range");
    }
    const double weight = Weight(raw, graph).weight;
    if (!IsAdmissibleWeight(weight)) {
      return Status::InvalidArgument(
          "BuildGraph: weight must be finite and > 0 on the 2^-20 grid");
    }
    SPADE_RETURN_NOT_OK(graph.AddEdge(raw.src, raw.dst, weight));
  }
  if (!(graph.TotalWeight() <= kMaxPartitionMass)) {
    return Status::InvalidArgument(
        MassRefusal("BuildGraph", graph.TotalWeight()));
  }
  graph_ = std::move(graph);
  benign_buffer_.clear();
  pending_wdeg_.clear();
  buffered_mass_ = 0.0;
  window_.clear();
  stats_.Reset();
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

void Spade::Buffer(const Edge& weighted) {
  benign_buffer_.push_back(weighted);
  pending_wdeg_[weighted.src] += weighted.weight;
  pending_wdeg_[weighted.dst] += weighted.weight;
  buffered_mass_ += weighted.weight;
}

std::vector<Edge> Spade::TakeBuffer() {
  std::vector<Edge> batch;
  batch.swap(benign_buffer_);
  pending_wdeg_.clear();
  buffered_mass_ = 0.0;
  return batch;
}

Status Spade::Flush() {
  if (benign_buffer_.empty()) return Status::OK();
  return InsertWeightedBatch(TakeBuffer());
}

Status Spade::InsertWeightedBatch(std::span<const Edge> weighted) {
  return engine_.InsertBatch(&graph_, &state_, weighted, &stats_);
}

Status Spade::ApplyEdge(const Edge& raw_edge, double* applied_weight) {
  // A failed insert must not leave vertices the peel state does not cover:
  // a self-loop fails before the graph grows, a refused one shrinks it
  // back.
  if (raw_edge.src == raw_edge.dst) {
    return Status::InvalidArgument("ApplyEdge: self-loops not supported");
  }
  const std::size_t num_vertices = graph_.NumVertices();
  EnsureEndpoints(raw_edge);
  const Edge weighted = Weight(raw_edge, graph_);
  // Reject before buffering: a buffered bad edge would fail the whole batch
  // at the next flush, taking the valid edges grouped with it down too.
  SPADE_RETURN_NOT_OK(AdmitWeighted(std::span<const Edge>(&weighted, 1),
                                    num_vertices, "ApplyEdge"));
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
      Buffer(weighted);
      return Status::OK();
    }
    // Urgent edge: reorder the whole buffer together with it (Algorithm 3).
    std::vector<Edge> batch = TakeBuffer();
    batch.push_back(weighted);
    return InsertWeightedBatch(batch);
  }
  return InsertWeightedBatch(std::span<const Edge>(&weighted, 1));
}

Status Spade::ApplyBatchEdges(std::span<const Edge> raw_edges) {
  SPADE_RETURN_NOT_OK(Flush());
  for (const Edge& raw : raw_edges) {
    // A failed insert must not leave vertices the peel state does not
    // cover: self-loops fail before the graph grows, a refused batch
    // shrinks it back (no edge of the batch has entered it yet).
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
    weighted.push_back(Weight(raw, graph_));
  }
  SPADE_RETURN_NOT_OK(
      AdmitWeighted(weighted, num_vertices, "ApplyBatchEdges"));
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
  const auto expired = ExpiredEnd(window_.begin(), window_.end(), horizon);
  if (expired == window_.begin()) return retired;
  // An expired entry may still sit in the benign buffer, not yet in the
  // graph the batch deletes from.
  SPADE_RETURN_NOT_OK(Flush());
  // One batch at the logged weights (FD's degree term has moved on since
  // admission); the log keeps its prefix unless the whole batch applies.
  retired.assign(window_.begin(), expired);
  SPADE_RETURN_NOT_OK(
      engine_.DeleteBatch(&graph_, &state_, retired, &stats_));
  window_.erase(window_.begin(), expired);
  return retired;
}

Result<std::size_t> Spade::ReplayDelta(
    std::span<const DeltaSegment> segments) {
  if (segments.empty()) return std::size_t{0};
  // A base or a sealed epoch holds no buffered edge: saves and seals flush.
  if (!benign_buffer_.empty()) {
    return Status::FailedPrecondition(
        "ReplayDelta: the benign buffer is not empty");
  }
  std::size_t inserts = 0;
  for (const DeltaSegment& segment : segments) {
    for (const DeltaRecord& record : segment.records) {
      inserts += record.retire ? 0 : 1;
    }
  }
  std::vector<Edge> arrivals;  // the range's inserts, in arrival order
  arrivals.reserve(inserts);
  // The log followed by `arrivals` is the window the live detector popped
  // from (with the log off, no pass retires anything).
  const std::size_t logged = window_.size();

  // Pass 1, nothing changes: rebuild the window's pops. `front` counts the
  // popped entries of the log followed by the arrivals so far.
  std::size_t front = 0;
  const auto pop = [&](Timestamp horizon) {
    const std::size_t start = front;
    if (front < logged) {
      front = static_cast<std::size_t>(
          ExpiredEnd(window_.begin() + static_cast<std::ptrdiff_t>(front),
                     window_.end(), horizon) -
          window_.begin());
      if (front < logged) return front - start;
    }
    front = logged + static_cast<std::size_t>(
                         ExpiredEnd(arrivals.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            front - logged),
                                    arrivals.end(), horizon) -
                         arrivals.begin());
    return front - start;
  };
  for (const DeltaSegment& segment : segments) {
    for (const DeltaRecord& record : segment.records) {
      if (!record.retire) {
        arrivals.push_back(record.edge);
        continue;
      }
      const std::size_t popped = window_on_ ? pop(record.horizon) : 0;
      if (popped != record.retired) {
        return Status::Internal(
            "epoch " + std::to_string(segment.epoch) +
            ": retire pass retired " + std::to_string(popped) +
            " edges, recorded " + std::to_string(record.retired));
      }
    }
  }
  const std::size_t retired = std::min(front, logged);

  // Every vertex an insert record names, as live admission created it: an
  // endpoint past the graph takes its prior, an id skipped over weighs 0.
  // Read before anything leaves the graph, so a refused prior shrinks the
  // graph back, as admission does, and nothing else has changed.
  const std::size_t num_vertices = graph_.NumVertices();
  const auto shrink = [&] {
    for (std::size_t v = num_vertices; v < graph_.NumVertices(); ++v) {
      graph_.SetVertexWeight(static_cast<VertexId>(v), 0.0);
    }
    graph_.TruncateVertices(num_vertices);
  };
  for (const Edge& e : arrivals) {
    const std::size_t grown = graph_.NumVertices();
    EnsureEndpoints(e);
    for (VertexId v : {e.src, e.dst}) {
      if (v < grown) continue;
      const double prior = Prior(v);
      if (!IsAdmissiblePrior(prior)) {
        shrink();
        return Status::InvalidArgument(PriorRefusal("ReplayDelta", v, prior));
      }
      graph_.SetVertexWeight(v, prior);
    }
  }

  // Pass 2: the logged edges the range retired leave in one batch (atomic:
  // on failure only the vertices above were added, and they go again).
  const std::size_t merges = stats_.merges;
  if (retired > 0) {
    const std::vector<Edge> batch(
        window_.begin(), window_.begin() + static_cast<std::ptrdiff_t>(retired));
    const Status deleted =
        engine_.DeleteBatch(&graph_, &state_, batch, &stats_);
    if (!deleted.ok()) {
      shrink();
      return deleted;
    }
  }
  // The arrivals no pass popped enter in one batch.
  const auto survivors =
      std::span<const Edge>(arrivals).subspan(front - retired);
  SPADE_RETURN_NOT_OK(InsertWeightedBatch(survivors));
  if (window_on_) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(retired));
    window_.insert(window_.end(), survivors.begin(), survivors.end());
  }
  return stats_.merges - merges;
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
  TakeBuffer();
  stats_.Reset();
  return Status::OK();
}

}  // namespace spade
