#include "storage/snapshot.h"

#include <cmath>
#include <cstdint>

#include "graph/weight_grid.h"
#include "storage/checked_io.h"

namespace spade {

namespace {

constexpr std::uint64_t kMagic = 0x53504144455F5631ULL;  // "SPADE_V1"
constexpr std::uint32_t kVersion = 2;

}  // namespace

Status SaveSnapshot(const std::string& path, const DynamicGraph& g,
                    const PeelState* state, std::span<const Edge> window) {
  if (state != nullptr && state->size() != g.NumVertices()) {
    return Status::InvalidArgument(
        "SaveSnapshot: peel state does not cover the graph");
  }
  storage::ChecksummedFileWriter writer(path);

  writer.Write(kMagic);
  writer.Write(kVersion);
  writer.Write(static_cast<std::uint64_t>(g.NumVertices()));
  writer.Write(static_cast<std::uint64_t>(g.NumEdges()));
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    writer.Write(g.VertexWeight(static_cast<VertexId>(v)));
  }
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    for (const auto& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      writer.Write(static_cast<std::uint32_t>(v));
      writer.Write(static_cast<std::uint32_t>(e.vertex));
      writer.Write(e.weight);
    }
  }
  const std::uint8_t has_state = state != nullptr ? 1 : 0;
  writer.Write(has_state);
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->size(); ++i) {
      writer.Write(static_cast<std::uint32_t>(state->VertexAt(i)));
      writer.Write(state->DeltaAt(i));
    }
  }
  writer.Write(static_cast<std::uint64_t>(window.size()));
  for (const Edge& e : window) {
    writer.Write(static_cast<std::uint32_t>(e.src));
    writer.Write(static_cast<std::uint32_t>(e.dst));
    writer.Write(e.weight);
    writer.Write(static_cast<std::int64_t>(e.ts));
  }
  return writer.Finish();
}

Status LoadSnapshot(const std::string& path, DynamicGraph* g,
                    PeelState* state, bool* state_present,
                    std::vector<Edge>* window) {
  storage::ChecksummedFileReader reader(path);
  if (!reader.ok()) return Status::IOError("cannot open " + path);

  SPADE_RETURN_NOT_OK(reader.ReadHeader(kMagic, kVersion, "snapshot"));
  std::uint64_t num_vertices = 0, num_edges = 0;
  if (!reader.Read(&num_vertices) || !reader.Read(&num_edges)) {
    return Status::IOError(path + ": truncated header");
  }
  // Plausibility gate before allocating: the CRC only vouches for these
  // counts at the end of the file, and a flipped high byte here would
  // otherwise size the graph in the terabytes. Every vertex costs >= 8
  // payload bytes (its weight) and every edge >= 16 (src, dst, weight).
  if (reader.CountExceedsFile(num_vertices, 8) ||
      reader.CountExceedsFile(num_edges, 16)) {
    return Status::IOError(path + ": header counts exceed the file size");
  }

  // Every weight a detector admits is on the 2^-20 grid and not negative,
  // with the mass bounded (graph/weight_grid.h): a snapshot breaking any of
  // these would restore a detector whose sums are inexact.
  DynamicGraph graph(num_vertices);
  double mass = 0.0;
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    double w = 0;
    if (!reader.Read(&w)) return Status::IOError(path + ": truncated weights");
    if (!std::isfinite(w)) {
      return Status::IOError(path + ": non-finite weight of vertex " +
                             std::to_string(v));
    }
    if (!IsOnWeightGrid(w)) {
      return Status::IOError(path + ": off-grid weight of vertex " +
                             std::to_string(v));
    }
    if (w < 0.0) {
      return Status::IOError(path + ": negative weight of vertex " +
                             std::to_string(v));
    }
    graph.SetVertexWeight(static_cast<VertexId>(v), w);
    mass += w;
  }
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    std::uint32_t src = 0, dst = 0;
    double w = 0;
    if (!reader.Read(&src) || !reader.Read(&dst) || !reader.Read(&w)) {
      return Status::IOError(path + ": truncated edges");
    }
    if (!IsOnWeightGrid(w)) {
      return Status::IOError(path + ": off-grid or non-finite weight of edge " +
                             std::to_string(i));
    }
    SPADE_RETURN_NOT_OK(graph.AddEdge(src, dst, w));
    mass += w;
  }
  if (!(mass <= kMaxPartitionMass)) {
    return Status::IOError(path + ": mass exceeds the bound 2^32");
  }

  std::uint8_t has_state = 0;
  if (!reader.Read(&has_state)) {
    return Status::IOError(path + ": truncated state flag");
  }
  PeelState loaded_state(num_vertices);
  if (has_state != 0) {
    for (std::uint64_t i = 0; i < num_vertices; ++i) {
      std::uint32_t v = 0;
      double delta = 0;
      if (!reader.Read(&v) || !reader.Read(&delta)) {
        return Status::IOError(path + ": truncated peel state");
      }
      if (v >= num_vertices) {
        return Status::IOError(path + ": peel state vertex out of range");
      }
      // num_vertices distinct in-range entries make a permutation: a
      // repeat would leave another vertex out of the peeling sequence.
      if (loaded_state.ContainsVertex(v)) {
        return Status::IOError(path + ": peel state repeats vertex " +
                               std::to_string(v));
      }
      if (!IsOnWeightGrid(delta)) {
        return Status::IOError(path + ": non-finite or off-grid peel state "
                               "delta of vertex " + std::to_string(v));
      }
      loaded_state.Append(static_cast<VertexId>(v), delta);
    }
  }

  std::uint64_t num_window = 0;
  if (!reader.Read(&num_window)) {
    return Status::IOError(path + ": truncated window count");
  }
  if (reader.CountExceedsFile(num_window, 24)) {
    return Status::IOError(path + ": window count exceeds the file size");
  }
  std::vector<Edge> loaded_window;
  loaded_window.reserve(num_window);
  for (std::uint64_t i = 0; i < num_window; ++i) {
    std::uint32_t src = 0, dst = 0;
    double w = 0;
    std::int64_t ts = 0;
    if (!reader.Read(&src) || !reader.Read(&dst) || !reader.Read(&w) ||
        !reader.Read(&ts)) {
      return Status::IOError(path + ": truncated window log");
    }
    if (src >= num_vertices || dst >= num_vertices) {
      return Status::IOError(path + ": window edge endpoint out of range");
    }
    if (!IsOnWeightGrid(w)) {
      return Status::IOError(path + ": off-grid window edge weight");
    }
    loaded_window.push_back(Edge{static_cast<VertexId>(src),
                                 static_cast<VertexId>(dst), w,
                                 static_cast<Timestamp>(ts)});
  }

  SPADE_RETURN_NOT_OK(reader.VerifyTrailer());

  *g = std::move(graph);
  if (state_present != nullptr) *state_present = has_state != 0;
  if (state != nullptr && has_state != 0) *state = std::move(loaded_state);
  if (window != nullptr) *window = std::move(loaded_window);
  return Status::OK();
}

}  // namespace spade
