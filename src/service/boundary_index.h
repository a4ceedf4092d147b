// BoundaryEdgeIndex: the per-shard-pair record of cross-shard edges.
//
// A sharded service applies every edge in exactly one shard's detector, so
// a community whose vertices live on different home shards is invisible to
// any single shard (DESIGN.md §4.4). Shard workers close that gap by
// appending every APPLIED edge whose endpoints have different home shards
// to this index (tagged with the applied semantic weight) from inside the
// apply critical section; the stitch pass later uses the per-vertex
// boundary weight it accumulates to decide which vertices are worth
// pulling into the seam graph. The index is a discovery structure, not a
// second copy of the graph: seam edges are gathered from the shard
// detectors themselves, so nothing here is ever double-counted into a
// density.
//
// Layout: one append-only bucket per ordered shard pair (src_home,
// dst_home), each with its own mutex, so workers recording into different
// pairs never contend. The buckets double as the stitcher's message
// queues: a fold through a Cursor consumes exactly the suffix appended
// since its last visit. Buckets are epoch-stamped: a restore's
// AdoptBuckets() bumps the epoch, and a consumer folding through a Cursor
// detects the bump and rebuilds from scratch instead of silently mixing
// generations.
//
// Compaction: once the stitcher has consumed a bucket's prefix (and a
// checkpoint chain, if one is active, has persisted it — see the persist
// floor below), CompactConsumed() collapses that raw prefix into a
// CompactedBlock of per-vertex weight sums, cutting resident memory from
// O(cross-shard edges) to O(boundary vertices). Raw edges are retained
// only for the unconsumed suffix (the live message-queue tail) and for
// anything a checkpoint chain still needs verbatim. Blocks keep a
// conservative max-timestamp so EvictOlderThan can still drop them whole
// once the window passes them, and full saves persist them so save/restore
// stays exact.
//
// Persistence: Save writes a little-endian, CRC-64-protected binary file
// (storage/checked_io.h trailer discipline) holding the shard count and,
// per bucket, a block section (count 0 when the bucket has no blocks) and
// the raw edges; the sharded snapshot manifest references it so a restored
// fleet resumes stitching without replaying the stream. Base files are
// version 2 and tails version 1; each reader accepts its one version only
// and names any other version it finds.
//
// Incremental persistence: because buckets are append-only within an
// epoch, a checkpoint does not need to rewrite them — SaveTail persists
// only the per-bucket raw suffix appended since a persist Cursor's last
// visit, so the boundary index's checkpoint cost is O(cross-shard edges
// since the last save). Compaction never eats an edge an active chain
// still needs: each bucket tracks a persist floor (the logical position
// its last anchored Save/SaveTail made durable) and CompactConsumed stops
// below it, so SaveTail always finds its suffix verbatim.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace spade {

/// Append-only, shard-pair-bucketed store of cross-shard edges with
/// consumed-prefix compaction.
class BoundaryEdgeIndex {
 public:
  /// A fold-consumed, checkpoint-covered run of raw edges collapsed to its
  /// per-vertex weight sums. `weight` is sorted by vertex (each endpoint of
  /// every member edge accumulated its weight); `max_ts` bounds every
  /// member edge's timestamp so window eviction can drop the block whole;
  /// `edge_count` keeps TotalEdges() and restore counts exact.
  struct CompactedBlock {
    std::vector<std::pair<VertexId, double>> weight;
    Timestamp max_ts = 0;
    std::uint64_t edge_count = 0;
  };

  explicit BoundaryEdgeIndex(std::size_t num_shards);

  BoundaryEdgeIndex(const BoundaryEdgeIndex&) = delete;
  BoundaryEdgeIndex& operator=(const BoundaryEdgeIndex&) = delete;

  std::size_t num_shards() const { return num_shards_; }

  /// Appends one cross-shard edge to the (src_home, dst_home) bucket.
  /// Thread-safe; callable from any worker or producer.
  void Record(std::size_t src_home, std::size_t dst_home, const Edge& edge);

  /// One ordered shard pair's worth of a batch: every edge in `edges` has
  /// home shards (src_home, dst_home).
  struct PairGroup {
    std::size_t src_home = 0;
    std::size_t dst_home = 0;
    std::span<const Edge> edges;
  };

  /// Appends every group's edges to its bucket — one lock acquisition and
  /// one bulk insert per group, one counter update per call. Thread-safe
  /// against concurrent Record/RecordBatch producers.
  void RecordBatch(std::span<const PairGroup> groups);

  /// Edges currently resident across all buckets, compacted edges included
  /// (relaxed; never locks). Eviction subtracts, so this tracks the live
  /// window, not all history.
  std::uint64_t TotalEdges() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Monotone count of edges ever recorded live (Record/RecordBatch only —
  /// restore-time Adopt/Append are excluded). The service differences this
  /// against a snapshot taken at each stitch fold to expose the stitched
  /// read's freshness in edges, lock-free.
  std::uint64_t RecordedEdges() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Edges currently resident inside compacted blocks (relaxed).
  std::uint64_t CompactedEdges() const {
    return compacted_edges_.load(std::memory_order_relaxed);
  }

  /// Approximate resident payload bytes: raw edges at sizeof(Edge) plus
  /// compacted per-vertex entries at their pair size (relaxed atomics;
  /// never locks). The bench's O(boundary vertices) memory gate reads this.
  std::size_t ResidentBytes() const {
    const std::uint64_t raw =
        total_.load(std::memory_order_relaxed) -
        compacted_edges_.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(raw) * sizeof(Edge) +
           static_cast<std::size_t>(
               block_entries_.load(std::memory_order_relaxed)) *
               sizeof(std::pair<VertexId, double>);
  }

  /// A consumer's incremental position: per-bucket (epoch, consumed-prefix).
  /// Value-initialized cursors start before everything. `consumed` counts
  /// LOGICAL positions — the index of an edge in the bucket's full append
  /// history, which neither EvictOlderThan nor CompactConsumed ever
  /// renumbers (each bucket tracks the logical offset of its first resident
  /// raw edge) — so neither invalidates a cursor.
  struct Cursor {
    std::vector<std::uint64_t> epoch;
    std::vector<std::size_t> consumed;
  };

  /// Folds every edge appended since `cursor` into `weight` (each endpoint
  /// accumulates the edge weight — the vertex's total cross-shard
  /// suspiciousness mass). If any bucket's epoch changed since the cursor
  /// last visited (AdoptBuckets), the aggregate is cleared and rebuilt from
  /// the full index (compacted blocks contribute their stored sums);
  /// returns true in that case. Concurrent Record() calls are safe;
  /// concurrent AdoptBuckets()/CompactConsumed() must be serialized by the
  /// caller (the service's stitch lock does this). Compaction is driven by
  /// this same cursor, so a block never splits a fold: any block past the
  /// cursor is folded whole.
  bool FoldNewEdges(Cursor* cursor,
                    std::unordered_map<VertexId, double>* weight) const;

  /// Collapses each bucket's fold-consumed, persist-covered raw prefix into
  /// a CompactedBlock (skipping runs shorter than `min_batch` — tiny blocks
  /// cost more than they save). Caller must pass the SAME cursor that
  /// drives FoldNewEdges and serialize against AdoptBuckets (the stitch
  /// lock). Logical positions, TotalEdges and all cursors are unaffected.
  /// Returns the number of raw edges compacted.
  std::size_t CompactConsumed(const Cursor& fold_cursor,
                              std::size_t min_batch = 64);

  /// Copies out every RESIDENT RAW edge (tests; O(raw edges)). Compacted
  /// edges are no longer individually available — callers that need exact
  /// multisets run before any stitch-driven compaction.
  std::vector<Edge> SnapshotEdges() const;

  /// Window expiry: drops each bucket's expired prefix, keeping the index
  /// O(window) instead of O(history). Compacted blocks go first — a block
  /// is dropped whole once `max_ts` < horizon (its stored sums are
  /// subtracted from `weight`; every compacted edge was fold-consumed by
  /// construction) — then the raw prefix with ts < `horizon`. Only a
  /// PREFIX is scanned — buckets are arrival-ordered, so like the shard
  /// window log an out-of-order entry shields everything behind it
  /// (conservative at block granularity: one live edge keeps its whole
  /// block, and any live block shields the raw suffix). Evicted raw edges
  /// the fold cursor had already consumed are subtracted from `weight` so
  /// the seam aggregate stays the live window's mass; near-zero residue is
  /// pruned. No epoch bump and no cursor invalidation. Returns the number
  /// of edges evicted (compacted edges included).
  std::size_t EvictOlderThan(Timestamp horizon, const Cursor& fold_cursor,
                             std::unordered_map<VertexId, double>* weight);

  /// Atomically persists the index (temp file + rename, CRC-64 trailer).
  /// When `sync` is non-null it is advanced, bucket by bucket under the
  /// bucket lock, to exactly the prefix this file contains — the anchor for
  /// subsequent SaveTail calls — and each bucket's persist floor moves up
  /// to that prefix (committed only after the file is durable).
  Status Save(const std::string& path, Cursor* sync = nullptr) const;

  /// Parsed contents of a base or tail file: per bucket, compacted blocks
  /// (base files only) plus raw edges.
  struct FileData {
    std::vector<std::vector<Edge>> buckets;
    std::vector<std::vector<CompactedBlock>> blocks;  // empty for tails
    std::uint64_t epoch = 0;  // tail files only: the checkpoint epoch
    std::size_t NumEdges() const {
      std::size_t n = 0;
      for (const auto& b : buckets) n += b.size();
      for (const auto& bb : blocks) {
        for (const auto& blk : bb) n += blk.edge_count;
      }
      return n;
    }
  };

  /// Incremental save: writes only the per-bucket raw suffix appended
  /// since `cursor` and advances it (plus the persist floor, after the
  /// file is durable). Fails with kFailedPrecondition (writing nothing)
  /// when any bucket's epoch changed since the cursor last visited
  /// (AdoptBuckets happened), or when the cursor's suffix was compacted
  /// away (cannot happen through the service flow — the floor forbids it —
  /// but a full Save is the sound fallback either way). `checkpoint_epoch` is
  /// stamped into the file for chain validation.
  Status SaveTail(const std::string& path, std::uint64_t checkpoint_epoch,
                  Cursor* cursor, std::uint64_t* bytes_written = nullptr) const;

  /// Reads + validates a base file without touching the index (the
  /// two-phase restore validates every file before any side effect).
  static Status ReadFile(const std::string& path, std::size_t expected_shards,
                         FileData* out);

  /// Reads + validates a tail file; `expected_epoch` must match the stamp.
  static Status ReadTailFile(const std::string& path,
                             std::size_t expected_shards,
                             std::uint64_t expected_epoch, FileData* out);

  /// Replaces the contents with a base file's `data`, epoch-bumping every
  /// bucket so fold cursors rebuild. Restored blocks sit below the raw
  /// edges: each bucket's logical start becomes the sum of its block
  /// counts. `sync` (optional) is positioned at the adopted prefix (blocks
  /// included), and the persist floor anchors there — the adopted content
  /// is durable in the file the restore chain resumes from.
  void AdoptBuckets(FileData&& data, Cursor* sync = nullptr);

  /// Appends a validated tail to the buckets — no epoch bump, so fold
  /// cursors pick the edges up incrementally. `sync` (optional) advances
  /// past the appended suffix (persist floor follows: tail contents are
  /// durable by definition).
  void AppendBuckets(const FileData& data, Cursor* sync = nullptr);

 private:
  struct Bucket {
    mutable std::mutex mutex;
    std::vector<Edge> edges;
    // Fold-consumed, persist-covered history compacted to per-vertex sums,
    // oldest first; covers logical [start - sum(edge_count), start).
    std::vector<CompactedBlock> blocks;
    std::uint64_t epoch = 1;
    // Logical append-history index of edges[0]: EvictOlderThan and
    // CompactConsumed erase/absorb a prefix and advance this, so cursor
    // positions (logical) stay valid. physical index = logical - start.
    std::size_t start = 0;
    // Highest logical position an anchored Save/SaveTail has made durable;
    // CompactConsumed never crosses it, so an active checkpoint chain can
    // always emit its raw suffix. SIZE_MAX = no anchored chain, compaction
    // unrestricted (the next full Save persists blocks verbatim). Mutable
    // like the mutex: the const save paths advance it post-Finish.
    mutable std::size_t persist_floor =
        std::numeric_limits<std::size_t>::max();
  };

  std::size_t BucketOf(std::size_t src_home, std::size_t dst_home) const {
    return src_home * num_shards_ + dst_home;
  }

  // Logical position of the oldest compacted (non-evicted) entry.
  static std::size_t CompactedBase(const Bucket& bucket);

  std::size_t num_shards_;
  // Fixed-size at construction (Bucket is immovable); never resized.
  std::vector<Bucket> buckets_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> compacted_edges_{0};
  std::atomic<std::uint64_t> block_entries_{0};
};

}  // namespace spade
