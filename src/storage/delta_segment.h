// Delta segments: the per-shard unit of incremental checkpointing.
//
// A full snapshot (storage/snapshot.h) costs O(graph); a delta segment
// costs O(edges since the last checkpoint), which is what makes the
// checkpoint cadence proportional to traffic instead of state — the same
// affected-area principle the incremental peeler applies to updates
// (DESIGN.md §5).
//
// A segment records the shard's *applied history* since the previous
// checkpoint epoch: the raw edges in application order, interleaved with
// flush markers at every point where the live detector flushed its benign
// buffer and retire records at every window-expiry pass. Restoring replays
// that history through the normal Spade::ApplyEdge / Flush /
// RetireOlderThan path, so the restored detector makes byte-for-
// byte the same decisions (benign classification, batch boundaries,
// state-dependent edge weights) the live one made — replay(base + chain)
// is bit-identical to the detector that never restarted. Markers are what
// buy exactness for state-dependent semantics (FD weighs an edge against
// the graph *at application time*, which depends on how much of the benign
// buffer had been folded in).
//
// Chain integrity: each segment names the epoch it advances FROM
// (`prev_epoch`) and TO (`epoch`); restore refuses a segment that does not
// extend the epoch it has reconstructed so far. Framing is the shared
// CRC-64 trailer discipline (storage/checked_io.h): any torn or mutated
// segment is detected before a single record is replayed.
//
// Format (little-endian, version 3):
//   [magic u64 "SPADE_DS"][version u32]
//   [shard u32][prev_epoch u64][epoch u64]
//   [num_records u64]
//   records: [tag u8 = 0][src u32][dst u32][weight f64][ts i64]  (edge)
//          | [tag u8 = 1]                                        (flush)
//          | [tag u8 = 2][horizon i64][retired u64]              (retire)
//   [crc64 trailer]
//
// A retire record (tag 2) marks one window-expiry pass: the detector ran
// Spade::RetireOlderThan(horizon) here and it retired `retired` edges.
// Replay re-runs that call on the window log the replay itself rebuilt,
// and fails if it retires a different count. Every segment is version 3;
// the reader accepts version 3 only and names any other version it finds
// (version 2 used tag 2 for a per-edge layout).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace spade {

/// One entry of a shard's applied history: an edge insertion, a benign-
/// buffer flush boundary, or a window-expiry pass.
struct DeltaRecord {
  Edge edge;                  // valid for an insertion
  bool flush = false;         // true: the detector flushed here
  bool retire = false;        // true: the detector ran a retire pass here
  Timestamp horizon = 0;      // retire: the pass's expiry horizon
  std::uint64_t retired = 0;  // retire: edges the pass removed

  static DeltaRecord Flush() { return {.edge = {}, .flush = true}; }
  static DeltaRecord Insert(const Edge& e) { return {.edge = e}; }
  static DeltaRecord RetirePass(Timestamp horizon, std::uint64_t retired) {
    return {.edge = {}, .retire = true, .horizon = horizon, .retired = retired};
  }
};

/// A parsed (or to-be-written) delta segment.
struct DeltaSegment {
  std::uint32_t shard = 0;
  std::uint64_t prev_epoch = 0;  // checkpoint epoch this segment extends
  std::uint64_t epoch = 0;       // checkpoint epoch it advances to
  std::vector<DeltaRecord> records;

  /// Edges the segment inserts or retires (flush markers count 0).
  std::size_t NumEdges() const {
    std::size_t n = 0;
    for (const DeltaRecord& r : records) {
      n += r.retire ? r.retired : (r.flush ? 0 : 1);
    }
    return n;
  }
};

/// Atomically writes `segment` to `path` (CRC-64 trailer, temp + rename).
/// `bytes_written` (optional) receives the payload + trailer size.
Status WriteDeltaSegment(const std::string& path, const DeltaSegment& segment,
                         std::uint64_t* bytes_written = nullptr);

/// Reads a segment back, verifying magic, version and the CRC trailer.
/// A truncated, mutated or non-segment file yields kIOError and leaves
/// `*segment` untouched.
Status ReadDeltaSegment(const std::string& path, DeltaSegment* segment);

}  // namespace spade
