// Crash-recovery harness for incremental snapshot-delta persistence
// (ctest label `stress`).
//
// Fault model: rename is atomic but data pages are not fsynced, so a crash
// during a checkpoint can leave any file of that epoch at its final path
// with an arbitrary byte prefix ("torn"). The suite drives the
// TruncatingWriter seam (storage::SetTruncationHookForTesting) through a
// live save, and sweeps filesystem truncation across every framing
// boundary and mid-record cut of the last delta epoch. The contract under
// test (ISSUE 4 / DESIGN.md §5): restore either reconstructs EXACTLY the
// last durable checkpoint epoch — verified by bit-level differential
// comparison against captures of the uninterrupted fleet — or fails with a
// clean Status; never a partial graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "storage/checked_io.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 192;
constexpr std::size_t kInitialEdges = 400;
constexpr std::size_t kChunkEdges = 120;

/// Parity routing: deterministic homes, ~half of all traffic cross-home,
/// so every restore also recounts non-trivial boundary weights.
Partitioner ParityPartitioner() {
  return [](VertexId v) -> std::size_t { return v % kShards; };
}

std::vector<Edge> RandomChunk(Rng* rng, std::size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    edges.push_back(testing::RandomEdge(rng, kVertices));
  }
  return edges;
}

std::unique_ptr<ShardedDetectionService> BuildService(
    const std::vector<Edge>& initial, Timestamp window_span = 0,
    const FraudSemantics& semantics = MakeDW()) {
  std::vector<std::vector<Edge>> parts(kShards);
  for (const Edge& e : initial) parts[e.src % kShards].push_back(e);
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(semantics);
    EXPECT_TRUE(spade.BuildGraph(kVertices, parts[s]).ok());
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = ParityPartitioner();
  // Small cadence so many flushes fall between checkpoints.
  options.shard.detect_every = 16;
  // The harness controls full-vs-delta explicitly; keep the policy out of
  // the way.
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  options.window.span = window_span;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

std::vector<testing::ShardCapture> CaptureShards(
    const ShardedDetectionService& service) {
  std::vector<testing::ShardCapture> captures(service.num_shards());
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    service.InspectShard(s, [&](const Spade& spade) {
      captures[s] = testing::Capture(spade);
    });
  }
  return captures;
}

/// One uninterrupted run checkpointing `epochs` times into `dir`, with a
/// bit-level capture of every shard after each checkpoint. chunks[e] is
/// the traffic applied between checkpoint e and e+1 (chunks[0] = between
/// the initial graph and epoch 1's full save... epoch e's save covers
/// chunks[0..e-1]).
struct LiveRun {
  std::vector<Edge> initial;
  std::vector<std::vector<Edge>> chunks;               // per delta epoch
  std::vector<std::vector<testing::ShardCapture>> at;  // at[e] = epoch e
  std::unique_ptr<ShardedDetectionService> service;
};

LiveRun RunAndCheckpoint(const std::string& dir, std::size_t epochs,
                         std::uint64_t seed) {
  LiveRun run;
  Rng rng(seed);
  run.initial = RandomChunk(&rng, kInitialEdges);
  run.service = BuildService(run.initial);
  run.at.resize(epochs + 1);

  ShardedDetectionService::SaveInfo info;
  EXPECT_TRUE(run.service
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                              &info)
                  .ok());
  EXPECT_FALSE(info.delta);
  EXPECT_EQ(info.epoch, 1u);
  run.at[1] = CaptureShards(*run.service);

  for (std::uint64_t e = 2; e <= epochs; ++e) {
    run.chunks.push_back(RandomChunk(&rng, kChunkEdges));
    EXPECT_TRUE(run.service->SubmitBatch(run.chunks.back()).ok());
    run.service->Drain();
    EXPECT_TRUE(run.service
                    ->SaveState(dir, ShardedDetectionService::SaveMode::kAuto,
                                &info)
                    .ok());
    EXPECT_TRUE(info.delta) << "epoch " << e << " did not use the delta path";
    EXPECT_EQ(info.epoch, e);
    EXPECT_GT(info.delta_edges, 0u);
    run.at[e] = CaptureShards(*run.service);
  }
  return run;
}

void CopyDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spade_recovery_test";
    work_ = dir_ + ".work";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);
  }
  std::string dir_;
  std::string work_;
};

// Restore-side parallel replay (one thread per shard) must be
// bit-identical to the live fleet that wrote the chain — each shard's chain
// replays only into its own detector, so thread interleaving has nothing
// to reorder.
TEST_F(RecoveryTest, ParallelRestoreBitIdenticalToLive) {
  constexpr std::size_t kEpochs = 4;
  LiveRun run = RunAndCheckpoint(dir_, kEpochs, /*seed=*/311);

  auto restored = BuildService(run.initial);
  ShardedDetectionService::RestoreInfo info;
  ASSERT_TRUE(restored->RestoreState(dir_, &info).ok());
  EXPECT_EQ(info.restored_epoch, kEpochs);
  EXPECT_GT(info.delta_edges_replayed, 0u);
  EXPECT_GT(info.restore_millis, 0.0);
  // Three epochs of flushes per partition, replayed as one range: at most
  // one DeleteBatch and one InsertBatch each (no retires here, so one).
  EXPECT_GE(info.replay_merges, 1u);
  EXPECT_LE(info.replay_merges, 2 * kShards);

  const auto captures = CaptureShards(*restored);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(run.at[kEpochs][s], captures[s]);
  }
}

// The seam end to end: a live delta save whose shard-0 segment is torn by
// the TruncatingWriter must restore to the previous durable epoch, equal
// to the uninterrupted fleet's capture at that epoch, bit for bit.
TEST_F(RecoveryTest, TruncatingWriterSeamFallsBackToDurableEpoch) {
  LiveRun run = RunAndCheckpoint(dir_, 2, /*seed=*/101);

  // Epoch 3's save runs with the seam cutting shard-0's segment mid-record.
  Rng rng(202);
  const std::vector<Edge> chunk = RandomChunk(&rng, kChunkEdges);
  ASSERT_TRUE(run.service->SubmitBatch(chunk).ok());
  run.service->Drain();
  const std::string torn_file = ShardDeltaFileName(0, 3);
  {
    storage::ScopedTruncationHook hook(
        [&torn_file](const std::string& path) -> std::int64_t {
          return path.size() >= torn_file.size() &&
                         path.compare(path.size() - torn_file.size(),
                                      torn_file.size(), torn_file) == 0
                     ? 57
                     : -1;
        });
    // The save itself reports success — exactly like a crash whose rename
    // survived but whose data pages did not.
    ASSERT_TRUE(run.service->SaveState(dir_).ok());
  }

  LiveRun fresh = RunAndCheckpoint(work_, 1, /*seed=*/101);  // same initial
  ShardedDetectionService::RestoreInfo info;
  ASSERT_TRUE(fresh.service->RestoreState(dir_, &info).ok());
  EXPECT_EQ(info.manifest_epoch, 3u);
  EXPECT_EQ(info.restored_epoch, 2u);
  EXPECT_TRUE(info.truncated_chain);
  const auto restored = CaptureShards(*fresh.service);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(run.at[2][s], restored[s]);
  }
}

// Exhaustive torn-tail sweep: every framing boundary and a mid-record cut
// of every record of the last epoch's segments must restore to the last
// durable epoch — never a partial graph, never an error, and bit-identical
// to the live fleet's capture.
TEST_F(RecoveryTest, TruncationSweepRestoresToDurableEpoch) {
  constexpr std::size_t kEpochs = 3;
  LiveRun run = RunAndCheckpoint(dir_, kEpochs, /*seed=*/303);

  // Collect cut points per target file. For delta segments the format is
  // known: 40-byte header, then 25-byte (insert) or 17-byte (retire)
  // records — cut at every record boundary and inside every insert record.
  struct Target {
    std::string file;
    std::vector<std::uint64_t> cuts;
  };
  std::vector<Target> targets;
  for (std::size_t s = 0; s < kShards; ++s) {
    Target t;
    t.file = ShardDeltaFileName(s, kEpochs);
    DeltaSegment segment;
    ASSERT_TRUE(
        ReadDeltaSegment((std::filesystem::path(dir_) / t.file).string(),
                         &segment)
            .ok());
    std::uint64_t offset = 0;
    for (const std::uint64_t header_cut : {0, 8, 12, 16, 24, 32, 40}) {
      t.cuts.push_back(header_cut);
      offset = header_cut;
    }
    for (const DeltaRecord& r : segment.records) {
      const std::uint64_t size = r.retire ? 17 : 25;
      if (!r.retire) t.cuts.push_back(offset + 13);  // mid-record
      offset += size;
      t.cuts.push_back(offset);  // framing boundary after the record
    }
    t.cuts.push_back(offset + 4);  // inside the CRC trailer
    targets.push_back(std::move(t));
  }

  std::size_t cuts_tested = 0;
  for (const Target& target : targets) {
    for (const std::uint64_t cut : target.cuts) {
      CopyDir(dir_, work_);
      const auto path = std::filesystem::path(work_) / target.file;
      ASSERT_LE(cut, std::filesystem::file_size(path));
      std::filesystem::resize_file(path, cut);

      auto victim = BuildService(run.initial);
      ShardedDetectionService::RestoreInfo info;
      const Status s = victim->RestoreState(work_, &info);
      ASSERT_TRUE(s.ok()) << target.file << " cut at " << cut << ": "
                          << s.ToString();
      EXPECT_EQ(info.restored_epoch, kEpochs - 1)
          << target.file << " cut at " << cut;
      EXPECT_TRUE(info.truncated_chain);
      const auto restored = CaptureShards(*victim);
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        testing::ExpectShardEqualsCapture(run.at[kEpochs - 1][sh],
                                          restored[sh]);
        if (::testing::Test::HasFailure()) {
          FAIL() << "divergence for " << target.file << " cut at " << cut;
        }
      }
      ++cuts_tested;
    }
  }
  // The sweep must actually have exercised a meaningful surface.
  EXPECT_GT(cuts_tested, 100u);

  // Control: the untouched directory restores the full chain.
  auto control = BuildService(run.initial);
  ShardedDetectionService::RestoreInfo info;
  ASSERT_TRUE(control->RestoreState(dir_, &info).ok());
  EXPECT_EQ(info.restored_epoch, kEpochs);
  EXPECT_FALSE(info.truncated_chain);
  const auto restored = CaptureShards(*control);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(run.at[kEpochs][s], restored[s]);
  }
}

// A torn manifest (or torn base snapshot) cannot be recovered from — but
// the failure must be a clean Status that leaves the restoring service
// exactly as it was: no partial graph, fully operational.
TEST_F(RecoveryTest, TornManifestOrBaseFailsCleanlyWithoutSideEffects) {
  LiveRun run = RunAndCheckpoint(dir_, 2, /*seed=*/404);

  auto victim = BuildService(run.initial);
  ASSERT_TRUE(victim->RestoreState(dir_).ok());
  const auto reference = CaptureShards(*victim);

  for (const std::string& file :
       {std::string("manifest.spade"), ShardSnapshotFileName(0, 1)}) {
    const auto size =
        std::filesystem::file_size(std::filesystem::path(dir_) / file);
    for (std::uint64_t cut = 0; cut < size;
         cut += std::max<std::uint64_t>(1, size / 37)) {
      CopyDir(dir_, work_);
      std::filesystem::resize_file(std::filesystem::path(work_) / file, cut);
      ShardedDetectionService::RestoreInfo info;
      const Status s = victim->RestoreState(work_, &info);
      ASSERT_FALSE(s.ok()) << file << " cut at " << cut
                           << " was accepted";
      // No side effects: the victim still equals its pre-attempt state.
      const auto after = CaptureShards(*victim);
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        testing::ExpectShardEqualsCapture(reference[sh], after[sh]);
      }
    }
  }
  // Still fully operational after every failed attempt.
  Rng rng(505);
  ASSERT_TRUE(victim->SubmitBatch(RandomChunk(&rng, 50)).ok());
  victim->Drain();
}

// A directory an older build wrote: manifest 5 over delta segment 3 files
// (raw weights, flush records), with a base snapshot whose weights all
// happen to lie on the grid, so it loads. Restore must fail at the
// manifest, naming its version, and touch no file: a segment that fails
// to read is otherwise taken for a torn chain tail, and its epochs are
// collected as stale.
TEST_F(RecoveryTest, OlderBuildDirectoryFailsAtItsManifestAndKeepsEveryFile) {
  LiveRun run = RunAndCheckpoint(dir_, 3, /*seed=*/606);
  CopyDir(dir_, work_);

  // Manifest 5: the same lines, the version line and CRC rewritten.
  const std::string manifest_path = ShardManifestPath(work_);
  std::string lines;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("crc ", 0) == 0) continue;
      if (line.rfind("spade-shard-manifest ", 0) == 0) {
        line = "spade-shard-manifest 5";
      }
      lines += line + "\n";
    }
  }
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(lines.data(), lines.size()));
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out << lines << crc_line;
  }
  // Every segment rewritten in the version-3 layout: no tail field, each
  // insert followed by a flush record (tag 1).
  for (std::uint64_t e = 2; e <= 3; ++e) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string path =
          (std::filesystem::path(work_) / ShardDeltaFileName(s, e)).string();
      DeltaSegment segment;
      ASSERT_TRUE(ReadDeltaSegment(path, &segment).ok());
      storage::ChecksummedFileWriter w(path);
      w.Write(std::uint64_t{0x53504144455F4453ULL});  // "SPADE_DS"
      w.Write(std::uint32_t{3});
      w.Write(segment.shard);
      w.Write(segment.prev_epoch);
      w.Write(segment.epoch);
      w.Write(static_cast<std::uint64_t>(2 * segment.records.size()));
      for (const DeltaRecord& r : segment.records) {
        ASSERT_FALSE(r.retire);
        w.Write(std::uint8_t{0});
        w.Write(r.edge.src);
        w.Write(r.edge.dst);
        w.Write(r.edge.weight);
        w.Write(r.edge.ts);
        w.Write(std::uint8_t{1});
      }
      ASSERT_TRUE(w.Finish().ok());
    }
  }
  const auto read_all = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(work_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files[entry.path().filename().string()] = bytes.str();
    }
    return files;
  };
  const auto files_before = read_all();
  ASSERT_EQ(files_before.size(), 1 + 3 * kShards);

  auto victim = BuildService(run.initial);
  const auto reference = CaptureShards(*victim);
  const Status s = victim->RestoreState(work_);
  ASSERT_FALSE(s.ok()) << "a manifest-5 directory was restored";
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("version 5"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(read_all(), files_before);
  const auto after = CaptureShards(*victim);
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    testing::ExpectShardEqualsCapture(reference[sh], after[sh]);
  }
}

// Regression (code review): a compaction (full save over an existing
// chain) that crashes after its base files land but BEFORE the manifest
// rename leaves the previous manifest in charge. Base files are
// epoch-stamped precisely so that manifest's own bases are untouched —
// without the stamp, restore silently replayed the old delta chain onto
// the newer base (every CRC valid, duplicate edges, a state no checkpoint
// ever held).
TEST_F(RecoveryTest, CrashedCompactionLeavesPreviousCheckpointRestorable) {
  LiveRun run = RunAndCheckpoint(dir_, 2, /*seed=*/808);

  // Snapshot the directory as it stands at epoch 2 (the pre-crash state).
  CopyDir(dir_, work_);

  // Run the epoch-3 compaction for real, then transplant ONLY its base
  // files into the pre-crash copy — exactly what a crash between the base
  // renames and the manifest rename leaves behind.
  Rng rng(809);
  const std::vector<Edge> chunk = RandomChunk(&rng, kChunkEdges);
  ASSERT_TRUE(run.service->SubmitBatch(chunk).ok());
  run.service->Drain();
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(run.service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  ASSERT_EQ(info.epoch, 3u);
  for (std::size_t s = 0; s < kShards; ++s) {
    std::filesystem::copy_file(
        std::filesystem::path(dir_) / ShardSnapshotFileName(s, 3),
        std::filesystem::path(work_) / ShardSnapshotFileName(s, 3));
  }

  auto victim = BuildService(run.initial);
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(victim->RestoreState(work_, &rinfo).ok());
  EXPECT_EQ(rinfo.restored_epoch, 2u);
  EXPECT_FALSE(rinfo.truncated_chain);
  const auto restored = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(run.at[2][s], restored[s]);
  }
}

// Differential replay: a fleet recovered from a torn chain, fed the edges
// it lost plus fresh traffic, must converge bit-for-bit with the fleet
// that never crashed.
TEST_F(RecoveryTest, RecoveredFleetConvergesWithUninterruptedFleet) {
  constexpr std::size_t kEpochs = 3;
  LiveRun run = RunAndCheckpoint(dir_, kEpochs, /*seed=*/606);

  // Tear the whole last epoch (both shard segments): a crash that lost
  // every data page of the final save.
  CopyDir(dir_, work_);
  for (std::size_t s = 0; s < kShards; ++s) {
    std::filesystem::resize_file(
        std::filesystem::path(work_) / ShardDeltaFileName(s, kEpochs), 16);
  }

  auto recovered = BuildService(run.initial);
  ShardedDetectionService::RestoreInfo info;
  ASSERT_TRUE(recovered->RestoreState(work_, &info).ok());
  ASSERT_EQ(info.restored_epoch, kEpochs - 1);

  // Re-feed the lost chunk (the one that separated epoch kEpochs-1 from
  // kEpochs), then identical fresh traffic to both fleets.
  const std::vector<Edge>& lost = run.chunks.back();
  ASSERT_TRUE(recovered->SubmitBatch(lost).ok());
  recovered->Drain();
  Rng rng(707);
  const std::vector<Edge> fresh = RandomChunk(&rng, 2 * kChunkEdges);
  ASSERT_TRUE(recovered->SubmitBatch(fresh).ok());
  ASSERT_TRUE(run.service->SubmitBatch(fresh).ok());
  recovered->Drain();
  run.service->Drain();

  const auto live = CaptureShards(*run.service);
  const auto replayed = CaptureShards(*recovered);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(live[s], replayed[s]);
  }
  EXPECT_DOUBLE_EQ(run.service->CurrentCommunity().density,
                   recovered->CurrentCommunity().density);
}

/// Exact (bit-level) window-log comparison between two shards.
void ExpectWindowsEqual(const std::vector<Edge>& expected,
                        const std::vector<Edge>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].src, actual[i].src) << "window entry " << i;
    EXPECT_EQ(expected[i].dst, actual[i].dst) << "window entry " << i;
    EXPECT_DOUBLE_EQ(expected[i].weight, actual[i].weight)
        << "window entry " << i;
    EXPECT_EQ(expected[i].ts, actual[i].ts) << "window entry " << i;
  }
}

// Retire records in the delta chain: a windowed fleet that expired edges
// between checkpoints must restore bit-identically — graph, peel state AND
// window log — and must keep converging with the live fleet under further
// traffic and expiry. This pins the replay argument end to end: replay
// rebuilds the window log from the insert records, pops each retire
// record's horizon off it (checking the count), deletes the popped logged
// edges in one batch at their applied weights and inserts the survivors in
// another; exact weights make the order irrelevant.
TEST_F(RecoveryTest, WindowedChainWithRetiresRestoresBitIdentical) {
  constexpr Timestamp kSpan = 2000;
  constexpr std::uint64_t kEpochs = 4;
  Rng rng(909);
  const std::vector<Edge> initial = RandomChunk(&rng, kInitialEdges);
  auto service = BuildService(initial, kSpan);

  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                              &info)
                  .ok());
  ASSERT_FALSE(info.delta);

  Timestamp now = 0;
  for (std::uint64_t e = 2; e <= kEpochs; ++e) {
    std::vector<Edge> chunk = RandomChunk(&rng, kChunkEdges);
    for (Edge& edge : chunk) {
      now += 10;
      edge.ts = now;
    }
    ASSERT_TRUE(service->SubmitBatch(chunk).ok());
    service->Drain();
    if (now > kSpan) {
      ASSERT_TRUE(service->RetireOlderThan(now - kSpan).ok());
      service->Drain();
    }
    ASSERT_TRUE(service
                    ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                                &info)
                    .ok());
    EXPECT_TRUE(info.delta) << "epoch " << e;
  }
  // The chain must actually contain retire records for the test to mean
  // anything.
  ASSERT_GT(service->EdgesRetired(), 0u);
  EXPECT_EQ(service->GetStats().retired_edges, service->EdgesRetired());
  const auto live = CaptureShards(*service);

  auto victim = BuildService(initial, kSpan);
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(victim->RestoreState(dir_, &rinfo).ok());
  EXPECT_EQ(rinfo.restored_epoch, kEpochs);
  const auto restored = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(live[s], restored[s]);
    ExpectWindowsEqual(service->ShardWindow(s), victim->ShardWindow(s));
  }

  // Converge after restore: identical fresh traffic and an identical
  // expiry horizon must leave both fleets bit-identical again.
  std::vector<Edge> fresh = RandomChunk(&rng, 2 * kChunkEdges);
  for (Edge& edge : fresh) {
    now += 10;
    edge.ts = now;
  }
  for (ShardedDetectionService* svc : {service.get(), victim.get()}) {
    ASSERT_TRUE(svc->SubmitBatch(fresh).ok());
    svc->Drain();
    ASSERT_TRUE(svc->RetireOlderThan(now - kSpan).ok());
    svc->Drain();
  }
  const auto live2 = CaptureShards(*service);
  const auto conv = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(live2[s], conv[s]);
    ExpectWindowsEqual(service->ShardWindow(s), victim->ShardWindow(s));
  }
  EXPECT_DOUBLE_EQ(service->CurrentCommunity().density,
                   victim->CurrentCommunity().density);
}

// A retire record whose pass retires a different number of edges on replay
// than it recorded fails the restore, naming the partition and epoch. The
// segment is rewritten through the segment writer, so its CRC stays valid
// and only the record's count disagrees with the window log it replays
// against.
TEST_F(RecoveryTest, MismatchedRetirePassFailsRestore) {
  constexpr Timestamp kSpan = 500;
  Rng rng(929);
  const std::vector<Edge> initial = RandomChunk(&rng, kInitialEdges);
  auto service = BuildService(initial, kSpan);
  ASSERT_TRUE(service->SaveState(dir_).ok());  // epoch 1: the base

  std::vector<Edge> chunk = RandomChunk(&rng, kChunkEdges);
  Timestamp now = 0;
  for (Edge& edge : chunk) {
    now += 10;
    edge.ts = now;
  }
  ASSERT_TRUE(service->SubmitBatch(chunk).ok());
  service->Drain();
  ASSERT_TRUE(service->RetireOlderThan(now - kSpan).ok());
  service->Drain();
  ASSERT_GT(service->EdgesRetired(), 0u);
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                              &info)
                  .ok());
  ASSERT_TRUE(info.delta);
  ASSERT_EQ(info.epoch, 2u);

  // The untouched chain restores: the failure below is the record's.
  CopyDir(dir_, work_);
  ASSERT_TRUE(BuildService(initial, kSpan)->RestoreState(work_).ok());

  const std::string path =
      (std::filesystem::path(dir_) / ShardDeltaFileName(0, 2)).string();
  DeltaSegment segment;
  ASSERT_TRUE(ReadDeltaSegment(path, &segment).ok());
  const auto pass =
      std::find_if(segment.records.begin(), segment.records.end(),
                   [](const DeltaRecord& r) { return r.retire; });
  ASSERT_NE(pass, segment.records.end())
      << "partition 0's epoch-2 segment has no retire record";
  ++pass->retired;
  ASSERT_TRUE(WriteDeltaSegment(path, segment).ok());

  auto victim = BuildService(initial, kSpan);
  const Status s = victim->RestoreState(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("partition 0"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("epoch 2"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("retire pass"), std::string::npos)
      << s.ToString();
}

// Retire passes that land mid-stream — behind benign-buffered edges, and in
// a partition with nothing old enough to expire — must replay bit for bit
// under FD, whose edge weights depend on the graph at application time.
// Replay never re-runs ESusp (records carry applied weights), and the base
// is a live fleet that already admitted and expired edges: its weighted
// degrees went through add-then-subtract, and with weights on the grid
// that leaves no residue for the restored sums to disagree with.
TEST_F(RecoveryTest, MidStreamRetirePassesReplayBitIdenticalUnderFd) {
  constexpr Timestamp kSpan = 400;
  Rng rng(939);
  auto service = BuildService(RandomChunk(&rng, kInitialEdges), kSpan,
                              MakeFD());
  Timestamp now = 0;
  const auto feed = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      std::vector<Edge> chunk;
      while (chunk.size() < 40) {
        // Half the edges inside an 8-vertex core, half in the sparse rest:
        // the core sets a high density, so periphery edges group as
        // benign.
        const bool core = chunk.size() % 2 == 0;
        Edge edge = testing::RandomEdge(&rng, core ? 8 : kVertices - 8);
        if (!core) {
          edge.src += 8;
          edge.dst += 8;
        }
        // The first rounds feed partition 0 only, so partition 1 later
        // holds young edges (and a benign buffer) while partition 0
        // expires.
        if (round < 3 && edge.src % kShards != 0) continue;
        now += 10;
        edge.ts = now;
        chunk.push_back(edge);
      }
      // No drain in between: the stride trigger and the explicit horizon
      // both queue retire markers behind whatever the worker has buffered.
      ASSERT_TRUE(service->SubmitBatch(chunk).ok());
      if (now > kSpan) {
        ASSERT_TRUE(service->RetireOlderThan(now - kSpan).ok());
      }
    }
  };
  // The base: a fleet that has admitted and expired edges already.
  feed(6);
  service->Drain();
  ASSERT_GT(service->EdgesRetired(), 0u);
  ASSERT_TRUE(service->SaveState(dir_).ok());  // epoch 1: the base
  const std::uint64_t retired_in_base = service->EdgesRetired();

  feed(12);
  service->Drain();
  ASSERT_GT(service->EdgesRetired(), retired_in_base);
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                              &info)
                  .ok());
  ASSERT_TRUE(info.delta);
  const auto live = CaptureShards(*service);

  auto victim = BuildService({}, kSpan, MakeFD());
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(victim->RestoreState(dir_, &rinfo).ok());
  EXPECT_LE(rinfo.replay_merges, 2 * kShards);
  const auto restored = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(live[s], restored[s]);
  }
}

// An edge naming a brand-new vertex, inserted and expired inside one
// range: the replay's insert batch never sees it, yet live kept the vertex
// (isolated, at its prior), so replay must create it too.
TEST_F(RecoveryTest, NewVertexInsertedAndRetiredInsideOneRange) {
  constexpr Timestamp kSpan = 100;
  Rng rng(949);
  const std::vector<Edge> initial = RandomChunk(&rng, kInitialEdges);
  auto service = BuildService(initial, kSpan);
  ASSERT_TRUE(service->SaveState(dir_).ok());  // epoch 1: the base

  // Vertex kVertices + 7 is new to partition 0 (and skips six ids); the
  // edge naming it expires in the same epoch, behind later traffic.
  const auto fresh = static_cast<VertexId>(kVertices + 7);
  std::vector<Edge> chunk = {Edge{0, fresh, 3.0, 10}};
  for (Edge edge : RandomChunk(&rng, kChunkEdges)) {
    edge.ts = 1000;
    chunk.push_back(edge);
  }
  ASSERT_TRUE(service->SubmitBatch(chunk).ok());
  ASSERT_TRUE(service->RetireOlderThan(500).ok());
  service->Drain();
  ASSERT_EQ(service->EdgesRetired(), 1u);
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                              &info)
                  .ok());
  ASSERT_TRUE(info.delta);
  const auto live = CaptureShards(*service);
  ASSERT_EQ(live[0].vertex_weights.size(), kVertices + 8);

  auto victim = BuildService(initial, kSpan);
  ShardedDetectionService::RestoreInfo rinfo;
  ASSERT_TRUE(victim->RestoreState(dir_, &rinfo).ok());
  // Partition 0 deletes nothing resident and inserts the survivors; 1
  // only inserts.
  EXPECT_LE(rinfo.replay_merges, 2 * kShards);
  const auto restored = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ExpectShardEqualsCapture(live[s], restored[s]);
  }
}

// A full save taken while the window log is non-empty must bring that log
// back: the restored fleet equals the live one window for window, and once
// every windowed edge expires on both fleets their graphs agree again (a
// restore that dropped the log would keep the expired edges forever).
TEST_F(RecoveryTest, FullSaveRestoresNonEmptyWindowLog) {
  constexpr Timestamp kSpan = 2000;
  Rng rng(919);
  const std::vector<Edge> initial = RandomChunk(&rng, kInitialEdges);
  auto service = BuildService(initial, kSpan);

  std::vector<Edge> chunk = RandomChunk(&rng, kChunkEdges);
  Timestamp now = 0;
  for (Edge& edge : chunk) {
    now += 10;
    edge.ts = now;
  }
  ASSERT_TRUE(service->SubmitBatch(chunk).ok());
  service->Drain();
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir_, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  ASSERT_FALSE(info.delta);

  auto victim = BuildService(initial, kSpan);
  ASSERT_TRUE(victim->RestoreState(dir_).ok());
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(service->ShardWindow(s).empty()) << "shard " << s;
    ExpectWindowsEqual(service->ShardWindow(s), victim->ShardWindow(s));
  }

  for (ShardedDetectionService* svc : {service.get(), victim.get()}) {
    ASSERT_TRUE(svc->RetireOlderThan(now + 1).ok());
    svc->Drain();
  }
  const auto live = CaptureShards(*service);
  const auto restored = CaptureShards(*victim);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(service->ShardWindow(s).empty()) << "shard " << s;
    testing::ExpectShardEqualsCapture(live[s], restored[s]);
  }
}

}  // namespace
}  // namespace spade
