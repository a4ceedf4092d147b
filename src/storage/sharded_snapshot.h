// Sharded snapshot persistence: a manifest plus one binary base-snapshot
// file per shard (snapshot.h format) and a chain of per-shard delta
// segments (delta_segment.h), all inside one directory. Nothing else is
// persisted: the service's boundary weights are recounted from the
// restored detectors.
//
// The manifest is deliberately a small line-oriented text file — it holds
// only topology (shard count, per-shard file names, the checkpoint-epoch
// chain, semantics name), while all bulk data stays in the CRC-protected
// binary files. A restore validates that the manifest's shard count
// matches the restoring service before touching any shard, so a 4-shard
// snapshot cannot be half-loaded into an 8-shard service.
//
// Format (manifest.spade, version 6 — lines in exactly this order):
//   spade-shard-manifest 6
//   shards <N>
//   semantics <name>
//   epoch <E>                                   (checkpoint epoch restored to)
//   base-epoch <B>                              (epoch of the base snapshots)
//   file <shard-index> <relative-file-name>     (N lines, dense 0..N-1)
//   delta <epoch> <shard-index> <relative-file-name>
//                                               (N lines per epoch B+1..E)
//   placement <pid> <shard>                     (sparse, ascending pid;
//                                                only non-default owners)
//   crc <16 hex digits>                         (CRC-64 of all bytes above)
//
// Every artifact the manifest references has exactly one on-disk version
// too (base snapshot 2, delta segment 4), so the manifest needs no
// per-file format line, and a change to any of those layouts bumps the
// manifest version with it. The reader accepts version 6 only and names
// any other version it finds: a directory written by an older build fails
// here, at its manifest, not deep inside one of its binary files (where a
// segment that fails to read would look like a torn chain tail). Version
// 6 has version 5's lines; it marks delta segment 4.
//
// `placement` rows record where each partition lived when the checkpoint
// was taken, for fleets whose work-stealing rebalancer moved partitions
// off their default worker (pid % num_workers). They are sparse — a
// partition on its default worker writes no row. Restore uses them to
// re-create the exact live placement.
//
// The trailing `crc` line closes the one hole binary trailers cannot
// cover: a single flipped byte anywhere in the manifest — including in an
// "informational" field — fails the check instead of silently steering the
// restore.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace spade {

/// One delta segment referenced by the manifest.
struct DeltaSegmentRef {
  std::uint64_t epoch = 0;
  std::uint32_t shard = 0;
  std::string file;
};

/// Topology of one sharded snapshot directory.
struct ShardManifest {
  std::uint32_t num_shards = 0;
  /// Semantics the shards ran under (informational; restore does not
  /// install it — the service's detectors keep their own functions).
  std::string semantics;
  /// Per-shard base snapshot file names, relative to the directory.
  std::vector<std::string> files;

  /// Checkpoint epoch this directory restores to.
  std::uint64_t epoch = 0;
  /// Epoch of the base snapshots; deltas cover (base_epoch, epoch].
  std::uint64_t base_epoch = 0;
  /// Per-shard delta segments, ascending (epoch, shard) — exactly
  /// num_shards entries per epoch in (base_epoch, epoch].
  std::vector<DeltaSegmentRef> deltas;
  /// Sparse partition placement at checkpoint time: (pid, owner shard)
  /// pairs, ascending pid, only for partitions NOT on their default owner.
  /// Empty for never-rebalanced fleets.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> placement;

  std::size_t ChainLength() const {
    return static_cast<std::size_t>(epoch - base_epoch);
  }
};

/// Epoch-stamped base snapshot name ("shard-<i>.snapshot-<epoch>"). Base
/// files are never reused across epochs: a full save whose crash leaves
/// the previous manifest in charge must leave that manifest's base files
/// untouched, or a restore would silently replay the old delta chain onto
/// a newer base (every CRC valid, state matching no checkpoint that ever
/// existed).
std::string ShardSnapshotFileName(std::size_t shard, std::uint64_t epoch);

/// Canonical per-shard delta segment file name
/// ("shard-<i>.delta-<epoch>").
std::string ShardDeltaFileName(std::size_t shard, std::uint64_t epoch);

/// Path of the manifest inside `dir`.
std::string ShardManifestPath(const std::string& dir);

/// Creates `dir` if needed and writes the manifest (atomically: temp file +
/// rename). Validates the chain structure: `manifest.files` must have
/// exactly `num_shards` entries, `epoch >= base_epoch >= 1`, and the delta
/// list must cover (base_epoch, epoch] densely.
Status WriteShardManifest(const std::string& dir,
                          const ShardManifest& manifest);

/// Parses the manifest in `dir`; fails with kNotFound when absent and
/// kIOError on any other version, structural mismatch or CRC failure.
Status ReadShardManifest(const std::string& dir, ShardManifest* manifest);

}  // namespace spade
