// Fuzz-style corruption suite for the snapshot directory formats (ctest
// label `stress`; the stress CI leg runs it under ASan).
//
// Property under test: a random single-byte flip anywhere in a snapshot
// directory — manifest, base snapshots, delta segments — is never silently
// accepted and never crashes. Binary files carry a CRC-64 trailer (which
// detects every single-byte error), so a flip there must make restore
// either fail cleanly or fall back to the durable prefix that excludes the
// flipped epoch. The manifest carries an in-band crc line covering every
// byte, so any flip there must be rejected outright.
//
// The fixture's fleet is windowed and stitched, so the fuzzed files carry
// every section that ships: base snapshots with non-empty window logs and
// delta segments with retire records. SetUp asserts both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 96;
constexpr Timestamp kSpan = 1000;

Partitioner ParityPartitioner() {
  return [](VertexId v) -> std::size_t { return v % kShards; };
}

std::unique_ptr<ShardedDetectionService> BuildService(
    const std::vector<Edge>& initial) {
  std::vector<std::vector<Edge>> parts(kShards);
  for (const Edge& e : initial) parts[e.src % kShards].push_back(e);
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(kVertices, parts[s]).ok());
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = ParityPartitioner();
  options.shard.detect_every = 16;
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  options.window.span = kSpan;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

std::vector<testing::ShardCapture> CaptureShards(
    const ShardedDetectionService& service) {
  std::vector<testing::ShardCapture> captures(service.num_shards());
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    service.InspectShard(s, [&](const Spade& spade) {
      captures[s].state = spade.peel_state();
      captures[s].num_edges = spade.graph().NumEdges();
      captures[s].total_weight = spade.graph().TotalWeight();
      captures[s].pending_benign = spade.PendingBenignEdges();
    });
  }
  return captures;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CorruptionFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spade_corruption_test";
    work_ = dir_ + ".work";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);

    // Build a 2-epoch chain: windowed traffic, a stitch pass, the full base
    // (epoch 1), more traffic and a retire pass, then a delta (epoch 2).
    Rng rng(11);
    for (int i = 0; i < 250; ++i) {
      initial_.push_back(testing::RandomEdge(&rng, kVertices));
    }
    auto service = BuildService(initial_);
    Timestamp now = 0;
    const auto submit_chunk = [&](int edges) {
      std::vector<Edge> chunk;
      for (int i = 0; i < edges; ++i) {
        chunk.push_back(testing::RandomEdge(&rng, kVertices));
        now += 5;
        chunk.back().ts = now;
      }
      ASSERT_TRUE(service->SubmitBatch(chunk).ok());
      service->Drain();
    };
    submit_chunk(150);  // ends inside the first window: nothing expires
    service->StitchNow();
    ASSERT_TRUE(service->SaveState(dir_).ok());
    captures_.push_back(CaptureShards(*service));  // epoch 1
    submit_chunk(90);
    ASSERT_TRUE(service->RetireOlderThan(now - kSpan).ok());
    service->Drain();
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(service
                    ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                                &info)
                    .ok());
    ASSERT_TRUE(info.delta);
    captures_.push_back(CaptureShards(*service));  // epoch 2

    // The fuzz must cover the sections that ship, not just their headers.
    const std::filesystem::path dir(dir_);
    for (std::size_t s = 0; s < kShards; ++s) {
      DynamicGraph graph;
      std::vector<Edge> window;
      ASSERT_TRUE(LoadSnapshot((dir / ShardSnapshotFileName(s, 1)).string(),
                               &graph, nullptr, nullptr, &window)
                      .ok());
      EXPECT_FALSE(window.empty()) << "shard " << s << " base window log";
      DeltaSegment segment;
      ASSERT_TRUE(
          ReadDeltaSegment((dir / ShardDeltaFileName(s, 2)).string(), &segment)
              .ok());
      EXPECT_TRUE(std::any_of(segment.records.begin(), segment.records.end(),
                              [](const DeltaRecord& r) { return r.retire; }))
          << "shard " << s << " epoch-2 segment has no retire record";
    }
    // Boundary weights are recounted, never persisted.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_NE(entry.path().filename().string().rfind("boundary", 0), 0u)
          << entry.path();
    }
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);
  }

  /// Fresh mutable copy of the pristine directory. Restores are allowed
  /// to garbage-collect torn epochs from the directory they recover, so
  /// every trial fuzzes its own copy.
  void ResetWorkDir() {
    std::filesystem::remove_all(work_);
    std::filesystem::copy(dir_, work_,
                          std::filesystem::copy_options::recursive);
  }

  std::string dir_;
  std::string work_;
  std::vector<Edge> initial_;
  std::vector<std::vector<testing::ShardCapture>> captures_;  // [epoch-1]
};

// Every single-byte flip in a CRC-framed binary file is detected: flips in
// epoch-2 chain files force recovery to epoch 1; flips in base files fail
// the restore outright. Nothing is ever silently accepted as a different
// graph.
TEST_F(CorruptionFuzzTest, BinaryFilesNeverAcceptAFlip) {
  struct Target {
    std::string file;
    bool base;  // base files: restore must fail; chain files: fall back
  };
  std::vector<Target> targets;
  for (std::size_t s = 0; s < kShards; ++s) {
    targets.push_back({ShardSnapshotFileName(s, 1), true});
    targets.push_back({ShardDeltaFileName(s, 2), false});
  }

  Rng rng(23);
  for (const Target& target : targets) {
    const std::string pristine =
        ReadFileBytes(std::filesystem::path(dir_) / target.file);
    ASSERT_FALSE(pristine.empty()) << target.file;
    const std::size_t trials =
        std::min<std::size_t>(pristine.size(), 150);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t pos =
          trials == pristine.size() ? t : rng.NextBounded(pristine.size());
      std::string flipped = pristine;
      flipped[pos] = static_cast<char>(
          flipped[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));
      ResetWorkDir();
      WriteFileBytes(std::filesystem::path(work_) / target.file, flipped);
      auto victim = BuildService(initial_);
      ShardedDetectionService::RestoreInfo info;
      const Status s = victim->RestoreState(work_, &info);
      if (target.base) {
        // Base flip: unrecoverable, must fail cleanly (phase-1
        // validation, so the victim is untouched — RecoveryTest pins that
        // part).
        ASSERT_FALSE(s.ok())
            << target.file << " flip at " << pos << " was accepted";
      } else {
        // Chain flip: must fall back to epoch 1 (and only epoch 1).
        ASSERT_TRUE(s.ok())
            << target.file << " flip at " << pos << ": " << s.ToString();
        ASSERT_EQ(info.restored_epoch, 1u)
            << target.file << " flip at " << pos << " was accepted";
        const auto restored = CaptureShards(*victim);
        for (std::size_t sh = 0; sh < kShards; ++sh) {
          testing::ExpectShardEqualsCapture(captures_[0][sh], restored[sh]);
        }
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopping after failure at " << target.file << " byte "
               << pos;
      }
    }
  }
}

// The manifest's in-band crc line makes every single-byte flip a parse
// failure — including flips in fields no structural check covers (the
// semantics name, a digit of a file name).
TEST_F(CorruptionFuzzTest, ManifestRejectsEveryFlip) {
  const auto path = std::filesystem::path(dir_) / "manifest.spade";
  const std::string pristine = ReadFileBytes(path);
  ASSERT_FALSE(pristine.empty());
  Rng rng(31);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string flipped = pristine;
    flipped[pos] = static_cast<char>(
        flipped[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));
    WriteFileBytes(path, flipped);
    ShardManifest manifest;
    const Status s = ReadShardManifest(dir_, &manifest);
    EXPECT_FALSE(s.ok()) << "flip at byte " << pos << " ('"
                         << pristine[pos] << "') was accepted";
    // And therefore the restore fails cleanly too.
    auto victim = BuildService(initial_);
    EXPECT_FALSE(victim->RestoreState(dir_).ok());
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after failure at manifest byte " << pos;
    }
  }
  WriteFileBytes(path, pristine);
}

}  // namespace
}  // namespace spade
