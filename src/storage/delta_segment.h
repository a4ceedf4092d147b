// Delta segments: the per-shard unit of incremental checkpointing.
//
// A full snapshot (storage/snapshot.h) costs O(graph); a delta segment
// costs O(edges since the last checkpoint), which is what makes the
// checkpoint cadence proportional to traffic instead of state — the same
// affected-area principle the incremental peeler applies to updates
// (DESIGN.md §5).
//
// A segment records the shard's *applied history* since the previous
// checkpoint epoch: the inserted edges in application order, each at the
// weight it was admitted with (ESusp already applied, on the 2^-20 grid),
// interleaved with retire records at every window-expiry pass. The seal
// flushes the benign buffer, so every logged insert is in the graph it
// describes. Because admission puts every weight on the grid and bounds
// the mass, the peel state is a function of the weighted graph alone
// (DESIGN.md §2.2), so restore does not re-run the history record by
// record: Spade::ReplayDelta applies a whole range as one DeleteBatch and
// one InsertBatch per shard and is still bit-identical to the detector that
// never restarted. Replay never runs ESusp, so state-dependent weights (FD
// weighs an edge against the degree at admission) need no flush markers.
//
// Chain integrity: each segment names the epoch it advances FROM
// (`prev_epoch`) and TO (`epoch`); restore refuses a segment that does not
// extend the epoch it has reconstructed so far. Framing is the shared
// CRC-64 trailer discipline (storage/checked_io.h): any torn or mutated
// segment is detected before a single record is replayed.
//
// Format (little-endian, version 4):
//   [magic u64 "SPADE_DS"][version u32]
//   [shard u32][prev_epoch u64][epoch u64]
//   [num_records u64]
//   records: [tag u8 = 0][src u32][dst u32][weight f64][ts i64]  (insert)
//          | [tag u8 = 2][horizon i64][retired u64]              (retire)
//   [crc64 trailer]
//
// A retire record (tag 2) marks one window-expiry pass: the detector ran
// Spade::RetireOlderThan(horizon) here and it retired `retired` edges.
// Replay pops the same horizon off the window log it rebuilds from the
// records, and fails if it pops a different count. An insert's weight must
// be positive and on the grid. Every segment is version 4; the reader
// accepts version 4 only and names any other version it finds (version 3
// logged raw weights and a flush record, tag 1, at every buffer flush).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace spade {

/// One entry of a shard's applied history: an edge insertion at its
/// applied weight, or a window-expiry pass.
struct DeltaRecord {
  Edge edge;                  // valid for an insertion
  bool retire = false;        // true: the detector ran a retire pass here
  Timestamp horizon = 0;      // retire: the pass's expiry horizon
  std::uint64_t retired = 0;  // retire: edges the pass removed

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

  /// Edges the segment inserts or retires.
  std::size_t NumEdges() const {
    std::size_t n = 0;
    for (const DeltaRecord& r : records) n += r.retire ? r.retired : 1;
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
