#include "service/boundary_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "storage/checked_io.h"

namespace spade {

namespace {

constexpr std::uint64_t kBoundaryMagic = 0x53504144455F4249ULL;  // "SPADE_BI"
constexpr std::uint32_t kBoundaryVersion = 2;
constexpr std::uint64_t kTailMagic = 0x53504144455F4254ULL;  // "SPADE_BT"
constexpr std::uint32_t kTailVersion = 1;

// Beyond this many blocks per bucket, the two oldest merge — bounds the
// per-bucket block walk while keeping eviction granularity useful.
constexpr std::size_t kMaxBlocksPerBucket = 16;

void WriteEdge(storage::ChecksummedFileWriter* writer, const Edge& e) {
  writer->Write(e.src);
  writer->Write(e.dst);
  writer->Write(e.weight);
  writer->Write(e.ts);
}

bool ReadEdge(storage::ChecksummedFileReader* reader, Edge* e) {
  return reader->Read(&e->src) && reader->Read(&e->dst) &&
         reader->Read(&e->weight) && reader->Read(&e->ts);
}

Status Truncated(const storage::ChecksummedFileReader& reader) {
  return Status::IOError("truncated boundary file: " + reader.path());
}

/// One bucket's raw edges, in base and tail files alike: count + records.
Status ReadBucketEdges(storage::ChecksummedFileReader* reader,
                       std::vector<Edge>* edges) {
  std::uint64_t count = 0;
  if (!reader->Read(&count)) return Truncated(*reader);
  // Pre-allocation plausibility gate (see checked_io.h): 24 payload bytes
  // per edge record.
  if (reader->CountExceedsFile(count, 24)) {
    return Status::IOError("boundary bucket count exceeds the file size: " +
                           reader->path());
  }
  edges->resize(count);
  for (Edge& e : *edges) {
    if (!ReadEdge(reader, &e)) return Truncated(*reader);
  }
  return Status::OK();
}

/// One bucket's block section, base files only: count; per block max_ts,
/// edge_count, entry count, sorted (vertex, weight) entries.
Status ReadBucketBlocks(
    storage::ChecksummedFileReader* reader,
    std::vector<BoundaryEdgeIndex::CompactedBlock>* blocks) {
  std::uint64_t count = 0;
  if (!reader->Read(&count)) return Truncated(*reader);
  // A block is at least 24 header bytes on disk.
  if (reader->CountExceedsFile(count, 24)) {
    return Status::IOError("boundary block count exceeds the file size: " +
                           reader->path());
  }
  blocks->resize(count);
  for (auto& block : *blocks) {
    std::uint64_t entries = 0;
    if (!reader->Read(&block.max_ts) || !reader->Read(&block.edge_count) ||
        !reader->Read(&entries)) {
      return Truncated(*reader);
    }
    // 12 payload bytes per (vertex u32, weight f64) entry.
    if (reader->CountExceedsFile(entries, 12)) {
      return Status::IOError(
          "boundary block entry count exceeds the file size: " +
          reader->path());
    }
    block.weight.resize(entries);
    for (auto& [v, w] : block.weight) {
      if (!reader->Read(&v) || !reader->Read(&w)) return Truncated(*reader);
    }
  }
  return Status::OK();
}

std::size_t BlockEdgeTotal(
    const std::vector<BoundaryEdgeIndex::CompactedBlock>& blocks) {
  std::size_t n = 0;
  for (const auto& block : blocks) n += block.edge_count;
  return n;
}

std::size_t BlockEntryTotal(
    const std::vector<BoundaryEdgeIndex::CompactedBlock>& blocks) {
  std::size_t n = 0;
  for (const auto& block : blocks) n += block.weight.size();
  return n;
}

/// Merges two sorted per-vertex sum lists (block coalescing).
std::vector<std::pair<VertexId, double>> MergeWeights(
    const std::vector<std::pair<VertexId, double>>& a,
    const std::vector<std::pair<VertexId, double>>& b) {
  std::vector<std::pair<VertexId, double>> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      out.push_back(a[i++]);
    } else if (b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, a[i].second + b[j].second);
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out.push_back(a[i++]);
  while (j < b.size()) out.push_back(b[j++]);
  return out;
}

}  // namespace

BoundaryEdgeIndex::BoundaryEdgeIndex(std::size_t num_shards)
    : num_shards_(num_shards), buckets_(num_shards * num_shards) {
  SPADE_CHECK(num_shards > 0);
}

std::size_t BoundaryEdgeIndex::CompactedBase(const Bucket& bucket) {
  return bucket.start - BlockEdgeTotal(bucket.blocks);
}

void BoundaryEdgeIndex::Record(std::size_t src_home, std::size_t dst_home,
                               const Edge& edge) {
  SPADE_DCHECK(src_home < num_shards_ && dst_home < num_shards_);
  Bucket& bucket = buckets_[BucketOf(src_home, dst_home)];
  {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    bucket.edges.push_back(edge);
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void BoundaryEdgeIndex::RecordBatch(std::span<const PairGroup> groups) {
  std::uint64_t appended = 0;
  for (const PairGroup& group : groups) {
    if (group.edges.empty()) continue;
    SPADE_DCHECK(group.src_home < num_shards_ &&
                 group.dst_home < num_shards_);
    Bucket& bucket = buckets_[BucketOf(group.src_home, group.dst_home)];
    {
      std::lock_guard<std::mutex> lock(bucket.mutex);
      bucket.edges.insert(bucket.edges.end(), group.edges.begin(),
                          group.edges.end());
    }
    appended += group.edges.size();
  }
  if (appended > 0) {
    total_.fetch_add(appended, std::memory_order_relaxed);
    recorded_.fetch_add(appended, std::memory_order_relaxed);
  }
}

bool BoundaryEdgeIndex::FoldNewEdges(
    Cursor* cursor, std::unordered_map<VertexId, double>* weight) const {
  if (cursor->epoch.size() != buckets_.size()) {
    cursor->epoch.assign(buckets_.size(), 0);
    cursor->consumed.assign(buckets_.size(), 0);
  }
  // Pass 1: a bumped epoch anywhere (AdoptBuckets) invalidates the whole
  // aggregate — per-bucket contributions are not tracked separately, so the
  // only sound recovery is a full rebuild.
  bool rebuilt = false;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::lock_guard<std::mutex> lock(buckets_[b].mutex);
    if (cursor->epoch[b] != buckets_[b].epoch) {
      rebuilt = true;
      break;
    }
  }
  if (rebuilt) {
    weight->clear();
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      std::lock_guard<std::mutex> lock(buckets_[b].mutex);
      cursor->epoch[b] = buckets_[b].epoch;
      cursor->consumed[b] = 0;
    }
  }
  // Pass 2: fold only the suffix appended since the cursor's last visit.
  // Edges recorded between the passes are picked up here or next time;
  // either way exactly once, because buckets are append-only within an
  // epoch. Positions are logical (append-history) indices: an evicted-
  // before-fold prefix was never folded and never will be — it expired
  // unseen, which is exactly the eviction contract. A cursor behind the
  // bucket's raw start first folds any compacted block past its position
  // whole (blocks hold exactly the sums a fold would have produced;
  // compaction is driven by this cursor, so a block never straddles it).
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::lock_guard<std::mutex> lock(buckets_[b].mutex);
    const Bucket& bucket = buckets_[b];
    const std::vector<Edge>& edges = bucket.edges;
    if (cursor->consumed[b] < bucket.start) {
      std::size_t base = CompactedBase(bucket);
      for (const CompactedBlock& block : bucket.blocks) {
        const std::size_t end = base + block.edge_count;
        if (end > cursor->consumed[b]) {
          for (const auto& [v, w] : block.weight) (*weight)[v] += w;
        }
        base = end;
      }
    }
    const std::size_t from_logical =
        std::max(cursor->consumed[b], bucket.start);
    for (std::size_t i = from_logical - bucket.start; i < edges.size(); ++i) {
      (*weight)[edges[i].src] += edges[i].weight;
      (*weight)[edges[i].dst] += edges[i].weight;
    }
    cursor->consumed[b] = bucket.start + edges.size();
  }
  return rebuilt;
}

std::size_t BoundaryEdgeIndex::CompactConsumed(const Cursor& fold_cursor,
                                               std::size_t min_batch) {
  if (fold_cursor.epoch.size() != buckets_.size()) return 0;
  std::size_t compacted = 0;
  std::uint64_t new_entries = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bucket = buckets_[b];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    if (fold_cursor.epoch[b] != bucket.epoch) continue;
    // Only the prefix the fold already consumed AND the checkpoint chain
    // (if anchored) already persisted may leave raw form.
    const std::size_t limit =
        std::min(fold_cursor.consumed[b], bucket.persist_floor);
    if (limit <= bucket.start) continue;
    const std::size_t n =
        std::min(limit, bucket.start + bucket.edges.size()) - bucket.start;
    if (n < min_batch) continue;

    CompactedBlock block;
    block.edge_count = n;
    std::unordered_map<VertexId, double> sums;
    for (std::size_t i = 0; i < n; ++i) {
      const Edge& e = bucket.edges[i];
      sums[e.src] += e.weight;
      sums[e.dst] += e.weight;
      block.max_ts = std::max(block.max_ts, e.ts);
    }
    block.weight.assign(sums.begin(), sums.end());
    std::sort(block.weight.begin(), block.weight.end());
    bucket.edges.erase(bucket.edges.begin(),
                       bucket.edges.begin() + static_cast<std::ptrdiff_t>(n));
    bucket.start += n;
    new_entries += block.weight.size();
    bucket.blocks.push_back(std::move(block));
    while (bucket.blocks.size() > kMaxBlocksPerBucket) {
      CompactedBlock merged;
      merged.max_ts =
          std::max(bucket.blocks[0].max_ts, bucket.blocks[1].max_ts);
      merged.edge_count =
          bucket.blocks[0].edge_count + bucket.blocks[1].edge_count;
      const std::size_t before =
          bucket.blocks[0].weight.size() + bucket.blocks[1].weight.size();
      merged.weight =
          MergeWeights(bucket.blocks[0].weight, bucket.blocks[1].weight);
      new_entries -= before - merged.weight.size();
      bucket.blocks.erase(bucket.blocks.begin());
      bucket.blocks[0] = std::move(merged);
    }
    compacted += n;
  }
  if (compacted > 0) {
    compacted_edges_.fetch_add(compacted, std::memory_order_relaxed);
    block_entries_.fetch_add(new_entries, std::memory_order_relaxed);
  }
  return compacted;
}

std::size_t BoundaryEdgeIndex::EvictOlderThan(
    Timestamp horizon, const Cursor& fold_cursor,
    std::unordered_map<VertexId, double>* weight) {
  std::size_t evicted = 0;
  std::uint64_t evicted_compacted = 0;
  std::uint64_t evicted_entries = 0;
  const bool cursor_sized = fold_cursor.epoch.size() == buckets_.size();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bucket = buckets_[b];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    const bool cursor_live =
        cursor_sized && fold_cursor.epoch[b] == bucket.epoch;
    // Compacted blocks sit in front of the raw edges; drop whole expired
    // ones. Every compacted edge was fold-consumed by construction, so the
    // block's stored sums are exactly its aggregate contribution. A live
    // block shields everything behind it, raw suffix included.
    while (!bucket.blocks.empty() && bucket.blocks.front().max_ts < horizon) {
      const CompactedBlock& block = bucket.blocks.front();
      if (weight != nullptr && cursor_live) {
        for (const auto& [v, w] : block.weight) (*weight)[v] -= w;
      }
      evicted += block.edge_count;
      evicted_compacted += block.edge_count;
      evicted_entries += block.weight.size();
      bucket.blocks.erase(bucket.blocks.begin());
    }
    if (!bucket.blocks.empty()) continue;
    std::size_t k = 0;
    while (k < bucket.edges.size() && bucket.edges[k].ts < horizon) ++k;
    if (k == 0) continue;
    // Subtract only contributions the fold cursor has actually consumed
    // (logical position < consumed); an epoch mismatch means the aggregate
    // is about to be rebuilt from scratch anyway, so nothing to subtract.
    if (weight != nullptr && cursor_live) {
      for (std::size_t i = 0; i < k; ++i) {
        if (bucket.start + i >= fold_cursor.consumed[b]) break;
        (*weight)[bucket.edges[i].src] -= bucket.edges[i].weight;
        (*weight)[bucket.edges[i].dst] -= bucket.edges[i].weight;
      }
    }
    bucket.edges.erase(bucket.edges.begin(),
                       bucket.edges.begin() + static_cast<std::ptrdiff_t>(k));
    bucket.start += k;
    evicted += k;
  }
  if (evicted > 0) {
    total_.fetch_sub(evicted, std::memory_order_relaxed);
    if (evicted_compacted > 0) {
      compacted_edges_.fetch_sub(evicted_compacted, std::memory_order_relaxed);
      block_entries_.fetch_sub(evicted_entries, std::memory_order_relaxed);
    }
    if (weight != nullptr) {
      // Prune near-zero residue so the aggregate's footprint follows the
      // window too (subtraction leaves float dust, never exact zeros).
      for (auto it = weight->begin(); it != weight->end();) {
        if (std::abs(it->second) < 1e-9) {
          it = weight->erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return evicted;
}

std::vector<Edge> BoundaryEdgeIndex::SnapshotEdges() const {
  std::vector<Edge> out;
  out.reserve(TotalEdges());
  for (const Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    out.insert(out.end(), bucket.edges.begin(), bucket.edges.end());
  }
  return out;
}

Status BoundaryEdgeIndex::Save(const std::string& path, Cursor* sync) const {
  // Capture every bucket under its lock first, so a bucket lock is held
  // for a copy rather than for the file write: workers record into these
  // buckets from their apply critical sections.
  struct Captured {
    std::vector<Edge> edges;
    std::vector<CompactedBlock> blocks;
    std::uint64_t epoch = 0;
    std::size_t end = 0;  // logical end = the staged cursor position
  };
  std::vector<Captured> captured(buckets_.size());
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    captured[b].edges = bucket.edges;
    captured[b].blocks = bucket.blocks;
    captured[b].epoch = bucket.epoch;
    // The durable prefix is exactly what the capture holds; an edge
    // recorded after this point lands in the next tail, never in limbo.
    // Logical position: the capture holds only resident edges, and the
    // cursor anchors past everything ever appended before it.
    captured[b].end = bucket.start + bucket.edges.size();
  }

  storage::ChecksummedFileWriter writer(path);
  writer.Write(kBoundaryMagic);
  writer.Write(kBoundaryVersion);
  writer.Write(static_cast<std::uint64_t>(num_shards_));
  for (const Captured& cap : captured) {
    writer.Write(static_cast<std::uint64_t>(cap.blocks.size()));
    for (const CompactedBlock& block : cap.blocks) {
      writer.Write(block.max_ts);
      writer.Write(block.edge_count);
      writer.Write(static_cast<std::uint64_t>(block.weight.size()));
      for (const auto& [v, w] : block.weight) {
        writer.Write(v);
        writer.Write(w);
      }
    }
    writer.Write(static_cast<std::uint64_t>(cap.edges.size()));
    for (const Edge& e : cap.edges) WriteEdge(&writer, e);
  }
  SPADE_RETURN_NOT_OK(writer.Finish());
  // Cursor + persist floor commit only after Finish() publishes the file:
  // a floor advanced past a write that never hit disk would let compaction
  // eat edges every future tail still owes the chain.
  if (sync != nullptr) {
    sync->epoch.resize(buckets_.size());
    sync->consumed.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      std::lock_guard<std::mutex> lock(bucket.mutex);
      sync->epoch[b] = captured[b].epoch;
      sync->consumed[b] = captured[b].end;
      if (bucket.epoch == captured[b].epoch) {
        bucket.persist_floor = captured[b].end;
      }
    }
  }
  return Status::OK();
}

Status BoundaryEdgeIndex::SaveTail(const std::string& path,
                                   std::uint64_t checkpoint_epoch,
                                   Cursor* cursor,
                                   std::uint64_t* bytes_written) const {
  SPADE_CHECK(cursor != nullptr);
  if (cursor->epoch.size() != buckets_.size()) {
    return Status::FailedPrecondition(
        "boundary tail cursor was never anchored by a full Save");
  }
  // An epoch bump (AdoptBuckets) since the cursor's anchor means the
  // prefix the cursor describes no longer exists; only a full Save is
  // sound.
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::lock_guard<std::mutex> lock(buckets_[b].mutex);
    if (cursor->epoch[b] != buckets_[b].epoch) {
      return Status::FailedPrecondition(
          "boundary index epoch changed under the persist cursor");
    }
  }
  storage::ChecksummedFileWriter writer(path);
  writer.Write(kTailMagic);
  writer.Write(kTailVersion);
  writer.Write(static_cast<std::uint64_t>(num_shards_));
  writer.Write(checkpoint_epoch);
  // Staged like Save(): the cursor only advances once the file is
  // durable, so a failed Finish() (disk full, rename error) leaves the
  // unsaved edges claimable by a retry instead of silently dropping them
  // from every future tail.
  std::vector<std::size_t> staged_consumed(buckets_.size(), 0);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    // Re-check under the lock (a concurrent AdoptBuckets between the
    // validation pass and here would silently rewind the bucket).
    if (cursor->epoch[b] != bucket.epoch) {
      return Status::FailedPrecondition(
          "boundary index epoch changed under the persist cursor");
    }
    // Logical -> physical: an evicted-but-never-persisted prefix
    // (consumed below the compacted base) is skipped on purpose — those
    // edges expired before any checkpoint needed them, and a restore must
    // not resurrect an edge the live index no longer holds. A cursor
    // pointing INTO the compacted range, though, means the raw suffix it
    // owes the chain no longer exists verbatim — the persist floor forbids
    // that through the service flow, so treat it as a precondition failure
    // and let the caller fall back to a full save.
    if (cursor->consumed[b] < bucket.start &&
        cursor->consumed[b] > CompactedBase(bucket)) {
      return Status::FailedPrecondition(
          "boundary persist cursor points into a compacted range");
    }
    const std::size_t from_logical =
        std::max(cursor->consumed[b], bucket.start);
    const std::size_t from = from_logical - bucket.start;
    const std::size_t to = bucket.edges.size();
    writer.Write(static_cast<std::uint64_t>(to - from));
    for (std::size_t i = from; i < to; ++i) WriteEdge(&writer, bucket.edges[i]);
    staged_consumed[b] = bucket.start + to;
  }
  const std::uint64_t payload = writer.bytes_written();
  SPADE_RETURN_NOT_OK(writer.Finish());
  cursor->consumed = std::move(staged_consumed);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    std::lock_guard<std::mutex> lock(bucket.mutex);
    if (bucket.epoch == cursor->epoch[b]) {
      bucket.persist_floor = cursor->consumed[b];
    }
  }
  if (bytes_written != nullptr) {
    *bytes_written = payload + sizeof(std::uint64_t);
  }
  return Status::OK();
}

Status BoundaryEdgeIndex::ReadFile(const std::string& path,
                                   std::size_t expected_shards,
                                   FileData* out) {
  storage::ChecksummedFileReader reader(path);
  if (!reader.ok()) return Status::NotFound("no boundary index at " + path);

  SPADE_RETURN_NOT_OK(
      reader.ReadHeader(kBoundaryMagic, kBoundaryVersion, "boundary index"));
  std::uint64_t shards = 0;
  if (!reader.Read(&shards) || shards != expected_shards) {
    return Status::FailedPrecondition(
        "boundary index in " + path + " has " + std::to_string(shards) +
        " shards but the service has " + std::to_string(expected_shards));
  }
  FileData parsed;
  parsed.buckets.resize(expected_shards * expected_shards);
  parsed.blocks.resize(expected_shards * expected_shards);
  for (std::size_t b = 0; b < parsed.buckets.size(); ++b) {
    SPADE_RETURN_NOT_OK(ReadBucketBlocks(&reader, &parsed.blocks[b]));
    SPADE_RETURN_NOT_OK(ReadBucketEdges(&reader, &parsed.buckets[b]));
  }
  SPADE_RETURN_NOT_OK(reader.VerifyTrailer());
  *out = std::move(parsed);
  return Status::OK();
}

Status BoundaryEdgeIndex::ReadTailFile(const std::string& path,
                                       std::size_t expected_shards,
                                       std::uint64_t expected_epoch,
                                       FileData* out) {
  storage::ChecksummedFileReader reader(path);
  if (!reader.ok()) return Status::NotFound("no boundary tail at " + path);

  SPADE_RETURN_NOT_OK(
      reader.ReadHeader(kTailMagic, kTailVersion, "boundary tail"));
  std::uint64_t shards = 0;
  FileData parsed;
  if (!reader.Read(&shards) || shards != expected_shards) {
    return Status::FailedPrecondition(
        "boundary tail in " + path + " has " + std::to_string(shards) +
        " shards but the service has " + std::to_string(expected_shards));
  }
  if (!reader.Read(&parsed.epoch) || parsed.epoch != expected_epoch) {
    return Status::IOError("boundary tail epoch mismatch in " + path);
  }
  parsed.buckets.resize(expected_shards * expected_shards);
  for (std::vector<Edge>& edges : parsed.buckets) {
    SPADE_RETURN_NOT_OK(ReadBucketEdges(&reader, &edges));
  }
  SPADE_RETURN_NOT_OK(reader.VerifyTrailer());
  *out = std::move(parsed);
  return Status::OK();
}

void BoundaryEdgeIndex::AdoptBuckets(FileData&& data, Cursor* sync) {
  SPADE_CHECK(data.buckets.size() == buckets_.size());
  SPADE_CHECK(data.blocks.size() == buckets_.size());
  if (sync != nullptr && sync->epoch.size() != buckets_.size()) {
    sync->epoch.assign(buckets_.size(), 0);
    sync->consumed.assign(buckets_.size(), 0);
  }
  std::uint64_t loaded_total = 0;
  std::uint64_t previous = 0;
  std::uint64_t loaded_compacted = 0;
  std::uint64_t previous_compacted = 0;
  std::uint64_t loaded_entries = 0;
  std::uint64_t previous_entries = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::lock_guard<std::mutex> lock(buckets_[b].mutex);
    Bucket& bucket = buckets_[b];
    previous += bucket.edges.size() + BlockEdgeTotal(bucket.blocks);
    previous_compacted += BlockEdgeTotal(bucket.blocks);
    previous_entries += BlockEntryTotal(bucket.blocks);
    bucket.edges = std::move(data.buckets[b]);
    bucket.blocks = std::move(data.blocks[b]);
    // Restored blocks sit below the raw edges in logical order, exactly as
    // the save captured them.
    bucket.start = BlockEdgeTotal(bucket.blocks);
    loaded_total += bucket.edges.size() + bucket.start;
    loaded_compacted += bucket.start;
    loaded_entries += BlockEntryTotal(bucket.blocks);
    ++bucket.epoch;
    const std::size_t end = bucket.start + bucket.edges.size();
    // The adopted content is durable in the file the chain resumes from;
    // without a sync cursor there is no chain, so compaction is free.
    bucket.persist_floor =
        sync != nullptr ? end : std::numeric_limits<std::size_t>::max();
    if (sync != nullptr) {
      sync->epoch[b] = bucket.epoch;
      sync->consumed[b] = end;
    }
  }
  total_.fetch_add(loaded_total - previous, std::memory_order_relaxed);
  compacted_edges_.fetch_add(loaded_compacted - previous_compacted,
                             std::memory_order_relaxed);
  block_entries_.fetch_add(loaded_entries - previous_entries,
                           std::memory_order_relaxed);
}

void BoundaryEdgeIndex::AppendBuckets(const FileData& data, Cursor* sync) {
  SPADE_CHECK(data.buckets.size() == buckets_.size());
  std::uint64_t appended = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::lock_guard<std::mutex> lock(buckets_[b].mutex);
    buckets_[b].edges.insert(buckets_[b].edges.end(), data.buckets[b].begin(),
                             data.buckets[b].end());
    appended += data.buckets[b].size();
    if (sync != nullptr && b < sync->consumed.size()) {
      sync->consumed[b] += data.buckets[b].size();
      // Tail contents are durable by definition.
      if (sync->epoch[b] == buckets_[b].epoch) {
        buckets_[b].persist_floor = sync->consumed[b];
      }
    }
  }
  total_.fetch_add(appended, std::memory_order_relaxed);
}

}  // namespace spade
