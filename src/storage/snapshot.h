// Binary snapshot persistence for the detector state.
//
// A from-scratch peel of a million-scale graph takes tens of seconds
// (Table 4's static column) — exactly what Spade exists to avoid — so a
// restarted detector must not pay it either. A snapshot captures the
// weighted graph plus the peeling sequence/weights; restoring yields a
// detector that resumes incremental updates immediately.
//
// Format (little-endian, version 2, CRC-protected):
//   [magic u64][version u32]
//   [num_vertices u64][num_edges u64]
//   vertex weights: num_vertices x f64
//   edges: num_edges x { src u32, dst u32, weight f64 }
//   [has_state u8]
//   state: num_vertices x { vertex u32, delta f64 }   (peeling order)
//   [num_window u64]
//   window: num_window x { src u32, dst u32, weight f64, ts i64 }
//   [crc64 of everything above]
//
// The window section holds the detector's window log (Spade::window():
// applied weight + event time per live edge, oldest first): it must survive
// a restart or the restored detector cannot retire what the live one
// would. It is always present; with the log off it holds a count of 0. A
// reader accepts version 2 only and names any other version it finds.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "peel/peel_state.h"
#include "storage/checked_io.h"  // Crc64 + the shared framing discipline

namespace spade {

/// Writes graph (+ optional peel state) and the window log (live in-window
/// edges, oldest first, each carrying its applied weight and event
/// timestamp; empty for insert-only detectors) to `path` atomically (temp
/// file + rename). When `state` is non-null it must cover exactly the
/// graph's vertices.
Status SaveSnapshot(const std::string& path, const DynamicGraph& g,
                    const PeelState* state, std::span<const Edge> window);

/// Reads a snapshot back. `state` may be null to restore only the graph;
/// if the snapshot carries no state, `*state_present` is false and `state`
/// is left untouched. `window` may be null (the section is validated and
/// skipped).
Status LoadSnapshot(const std::string& path, DynamicGraph* g,
                    PeelState* state, bool* state_present,
                    std::vector<Edge>* window);

}  // namespace spade
