// Tests for snapshot persistence: round-tripping graph + peel state,
// corruption detection and the Spade facade's save/restore.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"

#include "common/rng.h"
#include "core/spade.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/spade_snapshot_test.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SnapshotTest, GraphRoundTrip) {
  Rng rng(5);
  DynamicGraph g = testing::RandomGraph(&rng, 30, 90, 6, 3);
  ASSERT_TRUE(SaveSnapshot(path_, g, nullptr, {}).ok());

  DynamicGraph restored;
  bool state_present = true;
  ASSERT_TRUE(
      LoadSnapshot(path_, &restored, nullptr, &state_present, nullptr).ok());
  EXPECT_FALSE(state_present);
  ASSERT_EQ(restored.NumVertices(), g.NumVertices());
  ASSERT_EQ(restored.NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(restored.TotalWeight(), g.TotalWeight());
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    const auto vid = static_cast<VertexId>(v);
    EXPECT_DOUBLE_EQ(restored.VertexWeight(vid), g.VertexWeight(vid));
    EXPECT_DOUBLE_EQ(restored.WeightedDegree(vid), g.WeightedDegree(vid));
  }
}

TEST_F(SnapshotTest, StateRoundTrip) {
  Rng rng(6);
  DynamicGraph g = testing::RandomGraph(&rng, 25, 60, 5, 2);
  PeelState state = PeelStatic(g);
  ASSERT_TRUE(SaveSnapshot(path_, g, &state, {}).ok());

  DynamicGraph restored_graph;
  PeelState restored_state;
  bool state_present = false;
  ASSERT_TRUE(LoadSnapshot(path_, &restored_graph, &restored_state,
                           &state_present, nullptr)
                  .ok());
  EXPECT_TRUE(state_present);
  testing::ExpectStateEquals(state, restored_state, 0.0);
  EXPECT_DOUBLE_EQ(restored_state.BestDensity(), state.BestDensity());
}

TEST_F(SnapshotTest, RejectsMismatchedState) {
  DynamicGraph g(3);
  PeelState state(2);
  state.Append(0, 0.0);
  state.Append(1, 0.0);
  EXPECT_FALSE(SaveSnapshot(path_, g, &state, {}).ok());
}

TEST_F(SnapshotTest, DetectsCorruption) {
  Rng rng(7);
  DynamicGraph g = testing::RandomGraph(&rng, 10, 20, 4, 0);
  PeelState state = PeelStatic(g);
  ASSERT_TRUE(SaveSnapshot(path_, g, &state, {}).ok());

  // Flip one byte in the middle of the file.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  DynamicGraph restored;
  PeelState restored_state;
  bool present = false;
  const Status s =
      LoadSnapshot(path_, &restored, &restored_state, &present, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, RejectsGarbageFile) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a snapshot";
  }
  DynamicGraph g;
  EXPECT_FALSE(LoadSnapshot(path_, &g, nullptr, nullptr, nullptr).ok());
}

TEST_F(SnapshotTest, MissingFileIsIOError) {
  DynamicGraph g;
  const Status s =
      LoadSnapshot("/nonexistent/snap.bin", &g, nullptr, nullptr, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(Crc64Test, KnownProperties) {
  const char data[] = "123456789";
  const std::uint64_t crc = Crc64(data, 9);
  EXPECT_NE(crc, 0u);
  // Deterministic and sensitive to single-bit changes.
  EXPECT_EQ(crc, Crc64(data, 9));
  char mutated[] = "123456788";
  EXPECT_NE(crc, Crc64(mutated, 9));
  // Streaming in two chunks matches one shot.
  const std::uint64_t part = Crc64(data, 4);
  EXPECT_EQ(Crc64(data + 4, 5, part), crc);
}

TEST_F(SnapshotTest, SpadeSaveRestoreResumesIncrementally) {
  Rng rng(8);
  Spade original;
  original.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 60; ++i) initial.push_back(testing::RandomEdge(&rng, 20));
  ASSERT_TRUE(original.BuildGraph(20, initial).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(original.InsertEdge(testing::RandomEdge(&rng, 20)).ok());
  }
  ASSERT_TRUE(original.SaveState(path_).ok());

  Spade restored;
  restored.SetSemantics(MakeDW());
  ASSERT_TRUE(restored.RestoreState(path_).ok());
  testing::ExpectStateEquals(original.peel_state(), restored.peel_state(),
                             0.0);

  // Both detectors continue identically on further updates.
  for (int i = 0; i < 10; ++i) {
    const Edge e = testing::RandomEdge(&rng, 20);
    ASSERT_TRUE(original.InsertEdge(e).ok());
    ASSERT_TRUE(restored.InsertEdge(e).ok());
  }
  testing::ExpectStateEquals(original.peel_state(), restored.peel_state(),
                             0.0);
  testing::ExpectStateEquals(PeelStatic(restored.graph()),
                             restored.peel_state());
}

class ShardManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spade_shard_manifest_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

ShardManifest MakeManifest(std::uint32_t shards) {
  ShardManifest manifest;
  manifest.num_shards = shards;
  manifest.semantics = "DW";
  manifest.epoch = 1;
  manifest.base_epoch = 1;
  for (std::size_t i = 0; i < shards; ++i) {
    manifest.files.push_back(ShardSnapshotFileName(i, 1));
  }
  return manifest;
}

TEST_F(ShardManifestTest, RoundTrip) {
  const ShardManifest manifest = MakeManifest(3);
  ASSERT_TRUE(WriteShardManifest(dir_, manifest).ok());

  ShardManifest read;
  ASSERT_TRUE(ReadShardManifest(dir_, &read).ok());
  EXPECT_EQ(read.num_shards, 3u);
  EXPECT_EQ(read.semantics, "DW");
  EXPECT_EQ(read.files, manifest.files);
  EXPECT_EQ(read.epoch, 1u);
  EXPECT_EQ(read.base_epoch, 1u);
  EXPECT_TRUE(read.deltas.empty());
}

TEST_F(ShardManifestTest, ChainRoundTrip) {
  ShardManifest manifest = MakeManifest(2);
  manifest.epoch = 3;
  for (std::uint64_t e = 2; e <= 3; ++e) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      manifest.deltas.push_back({e, s, ShardDeltaFileName(s, e)});
    }
  }
  ASSERT_TRUE(WriteShardManifest(dir_, manifest).ok());

  ShardManifest read;
  ASSERT_TRUE(ReadShardManifest(dir_, &read).ok());
  EXPECT_EQ(read.epoch, 3u);
  EXPECT_EQ(read.base_epoch, 1u);
  EXPECT_EQ(read.ChainLength(), 2u);
  ASSERT_EQ(read.deltas.size(), 4u);
  EXPECT_EQ(read.deltas[3].file, ShardDeltaFileName(1, 3));
}

TEST_F(ShardManifestTest, RejectsOutOfOrderChain) {
  ShardManifest manifest = MakeManifest(2);
  manifest.epoch = 2;
  manifest.deltas.push_back({2, 1, ShardDeltaFileName(1, 2)});
  manifest.deltas.push_back({2, 0, ShardDeltaFileName(0, 2)});
  const Status s = WriteShardManifest(dir_, manifest);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardManifestTest, ManifestByteFlipFailsCrc) {
  ASSERT_TRUE(WriteShardManifest(dir_, MakeManifest(2)).ok());
  const std::string path = ShardManifestPath(dir_);
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pristine = buf.str();
  }
  // Flip the one byte structural validation can never catch: a character
  // of the informational semantics name.
  std::string flipped = pristine;
  const std::size_t pos = flipped.find("DW");
  ASSERT_NE(pos, std::string::npos);
  flipped[pos] = 'X';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  ShardManifest read;
  const Status s = ReadShardManifest(dir_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// Regression (code review): the trailing-content check must work at the
// raw-byte level — a stream-token check skips whitespace, so flipping the
// manifest's final newline to a space was silently accepted.
TEST_F(ShardManifestTest, RejectsWhitespaceFlippedFinalNewline) {
  ASSERT_TRUE(WriteShardManifest(dir_, MakeManifest(2)).ok());
  const std::string path = ShardManifestPath(dir_);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  for (const char ws : {' ', '\t', '\r', '\v', '\f'}) {
    std::string flipped = bytes;
    flipped.back() = ws;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << flipped;
    }
    ShardManifest read;
    const Status s = ReadShardManifest(dir_, &read);
    ASSERT_FALSE(s.ok()) << "final newline flipped to 0x" << std::hex
                         << static_cast<int>(ws) << " was accepted";
  }
}

// Regression (code review): manifest-declared counts size allocations
// before the crc line can vouch for them, so implausible values must be
// rejected by the plausibility gate — not abort the process inside
// vector::reserve.
TEST_F(ShardManifestTest, RejectsImplausibleCounts) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(ShardManifestPath(dir_), std::ios::trunc);
    out << "spade-shard-manifest 4\n"
        << "shards 2\n"
        << "semantics DW\n"
        << "epoch 1000000000000000000\n"
        << "base-epoch 1\n";
  }
  ShardManifest read;
  Status s = ReadShardManifest(dir_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);

  {
    std::ofstream out(ShardManifestPath(dir_), std::ios::trunc);
    out << "spade-shard-manifest 4\n"
        << "shards 4000000000\n"
        << "semantics DW\n"
        << "epoch 1\n"
        << "base-epoch 1\n";
  }
  s = ReadShardManifest(dir_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// Every artifact has exactly one on-disk version. Each reader fails any
// other version — here the older ones earlier builds wrote — with an
// IOError whose message names the version it found.
TEST_F(ShardManifestTest, EveryReaderRejectsOlderVersions) {
  const auto expect_version_error = [](const Status& s, int version) {
    ASSERT_FALSE(s.ok()) << "version " << version << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kIOError);
    EXPECT_NE(s.message().find("version " + std::to_string(version)),
              std::string::npos)
        << s.ToString();
  };
  std::filesystem::create_directories(dir_);
  const auto write_manifest = [&](const std::string& content) {
    std::ofstream out(ShardManifestPath(dir_), std::ios::trunc);
    out << content;
  };

  // Manifest 1: no chain, no boundary line. Manifest 2: an optional
  // boundary line. Manifest 3: CRC-closed. Manifest 4: manifest 3 plus
  // boundary-delta lines, CRC-closed — a directory that persisted the
  // boundary index beside the detectors.
  const std::string v1_v2_files =
      "shards 2\nsemantics DG\n"
      "file 0 shard-0.snapshot\nfile 1 shard-1.snapshot\n";
  write_manifest("spade-shard-manifest 1\n" + v1_v2_files);
  ShardManifest read;
  expect_version_error(ReadShardManifest(dir_, &read), 1);
  write_manifest("spade-shard-manifest 2\n" + v1_v2_files +
                 "boundary boundary.index\n");
  expect_version_error(ReadShardManifest(dir_, &read), 2);
  std::string v3 =
      "spade-shard-manifest 3\nshards 2\nsemantics DW\nepoch 1\n"
      "base-epoch 1\nfile 0 shard-0.snapshot-1\n"
      "file 1 shard-1.snapshot-1\nboundary boundary.index-1\n";
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(v3.data(), v3.size()));
  write_manifest(v3 + crc_line);
  expect_version_error(ReadShardManifest(dir_, &read), 3);
  std::string v4 =
      "spade-shard-manifest 4\nshards 2\nsemantics DW\nepoch 2\n"
      "base-epoch 1\nfile 0 shard-0.snapshot-1\n"
      "file 1 shard-1.snapshot-1\ndelta 2 0 shard-0.delta-2\n"
      "delta 2 1 shard-1.delta-2\nboundary boundary.index-1\n"
      "boundary-delta 2 boundary.tail-2\n";
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(v4.data(), v4.size()));
  write_manifest(v4 + crc_line);
  expect_version_error(ReadShardManifest(dir_, &read), 4);

  // Version-1 binary files, CRC-framed as the writers framed them: an
  // empty snapshot without the window section and an empty delta segment.
  const std::string bin = dir_ + "/v1.bin";
  {
    storage::ChecksummedFileWriter w(bin);
    w.Write(std::uint64_t{0x53504144455F5631ULL});  // "SPADE_V1"
    w.Write(std::uint32_t{1});
    w.Write(std::uint64_t{0});  // vertices
    w.Write(std::uint64_t{0});  // edges
    w.Write(std::uint8_t{0});   // no peel state
    ASSERT_TRUE(w.Finish().ok());
  }
  DynamicGraph g;
  expect_version_error(LoadSnapshot(bin, &g, nullptr, nullptr, nullptr), 1);
  {
    storage::ChecksummedFileWriter w(bin);
    w.Write(std::uint64_t{0x53504144455F4453ULL});  // "SPADE_DS"
    w.Write(std::uint32_t{1});
    w.Write(std::uint32_t{0});  // shard
    w.Write(std::uint64_t{0});  // prev_epoch
    w.Write(std::uint64_t{1});  // epoch
    w.Write(std::uint64_t{0});  // records
    ASSERT_TRUE(w.Finish().ok());
  }
  DeltaSegment segment;
  expect_version_error(ReadDeltaSegment(bin, &segment), 1);
  // Delta segment 2 used tag 2 for a per-edge retire record; the same tag
  // now opens a retire-pass record, so version 2 must fail by name rather
  // than be misread.
  {
    storage::ChecksummedFileWriter w(bin);
    w.Write(std::uint64_t{0x53504144455F4453ULL});  // "SPADE_DS"
    w.Write(std::uint32_t{2});
    w.Write(std::uint32_t{0});  // shard
    w.Write(std::uint64_t{0});  // prev_epoch
    w.Write(std::uint64_t{1});  // epoch
    w.Write(std::uint64_t{1});  // records
    w.Write(std::uint8_t{2});   // per-edge retire
    w.Write(std::uint32_t{7});  // src
    w.Write(std::uint32_t{1});  // dst
    w.Write(0.25);              // applied weight
    w.Write(std::int64_t{11});  // ts
    ASSERT_TRUE(w.Finish().ok());
  }
  expect_version_error(ReadDeltaSegment(bin, &segment), 2);
}

TEST_F(ShardManifestTest, MissingDirectoryIsNotFound) {
  ShardManifest read;
  const Status s = ReadShardManifest(dir_ + "/nope", &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(ShardManifestTest, FilesCountMustMatchShards) {
  ShardManifest manifest;
  manifest.num_shards = 2;
  manifest.files = {"only-one.snapshot"};
  const Status s = WriteShardManifest(dir_, manifest);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardManifestTest, TruncatedManifestIsIOError) {
  ASSERT_TRUE(WriteShardManifest(dir_, MakeManifest(2)).ok());
  // Chop the last line off.
  const std::string path = ShardManifestPath(dir_);
  std::string contents;
  {
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      contents += lines[i] + "\n";
    }
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  ShardManifest read;
  const Status s = ReadShardManifest(dir_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

class DeltaSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/spade_delta_segment_test.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

DeltaSegment MakeSegment() {
  DeltaSegment segment;
  segment.shard = 2;
  segment.prev_epoch = 4;
  segment.epoch = 5;
  segment.records.push_back(DeltaRecord::Insert({1, 2, 3.5, 10}));
  segment.records.push_back(DeltaRecord::Insert({7, 1, 0.25, 11}));
  segment.records.push_back(DeltaRecord::Flush());
  segment.records.push_back(DeltaRecord::Insert({2, 9, 1.0, 12}));
  // A pass at horizon 12 expires the two edges stamped before it.
  segment.records.push_back(DeltaRecord::RetirePass(12, 2));
  return segment;
}

TEST_F(DeltaSegmentTest, RoundTrip) {
  const DeltaSegment segment = MakeSegment();
  std::uint64_t bytes = 0;
  ASSERT_TRUE(WriteDeltaSegment(path_, segment, &bytes).ok());
  EXPECT_EQ(bytes, std::filesystem::file_size(path_));

  DeltaSegment read;
  ASSERT_TRUE(ReadDeltaSegment(path_, &read).ok());
  EXPECT_EQ(read.shard, 2u);
  EXPECT_EQ(read.prev_epoch, 4u);
  EXPECT_EQ(read.epoch, 5u);
  ASSERT_EQ(read.records.size(), 5u);
  EXPECT_FALSE(read.records[0].flush);
  EXPECT_FALSE(read.records[0].retire);
  EXPECT_EQ(read.records[0].edge, (Edge{1, 2, 3.5, 10}));
  EXPECT_TRUE(read.records[2].flush);
  EXPECT_TRUE(read.records[4].retire);
  EXPECT_FALSE(read.records[4].flush);
  EXPECT_EQ(read.records[4].horizon, 12);
  EXPECT_EQ(read.records[4].retired, 2u);
  // Three inserted edges plus the two the pass retired.
  EXPECT_EQ(read.NumEdges(), 5u);
}

TEST_F(DeltaSegmentTest, EveryTruncationIsDetected) {
  ASSERT_TRUE(WriteDeltaSegment(path_, MakeSegment(), nullptr).ok());
  std::string pristine;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pristine = buf.str();
  }
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(len));
    }
    DeltaSegment read;
    const Status s = ReadDeltaSegment(path_, &read);
    ASSERT_FALSE(s.ok()) << "truncation at byte " << len << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
}

TEST_F(DeltaSegmentTest, TruncationHookTearsTheWrittenFile) {
  // The TruncatingWriter seam the crash harness uses: the save "succeeds"
  // (rename happens, as after a real crash with a durable rename but lost
  // data pages), yet the file at the final path is torn and the reader
  // must reject it.
  {
    storage::ScopedTruncationHook hook(
        [](const std::string&) -> std::int64_t { return 10; });
    ASSERT_TRUE(WriteDeltaSegment(path_, MakeSegment(), nullptr).ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path_), 10u);
  DeltaSegment read;
  EXPECT_FALSE(ReadDeltaSegment(path_, &read).ok());

  // Hook uninstalled: the same write round-trips again.
  ASSERT_TRUE(WriteDeltaSegment(path_, MakeSegment(), nullptr).ok());
  EXPECT_TRUE(ReadDeltaSegment(path_, &read).ok());
}

// Regression (code review): bytes appended after a valid CRC trailer are
// a mutation the trailer itself cannot see; the reader must reject them.
TEST_F(DeltaSegmentTest, RejectsTrailingBytes) {
  ASSERT_TRUE(WriteDeltaSegment(path_, MakeSegment(), nullptr).ok());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "junk";
  }
  DeltaSegment read;
  const Status s = ReadDeltaSegment(path_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(DeltaSegmentTest, RejectsEpochDiscontinuity) {
  DeltaSegment segment = MakeSegment();
  segment.epoch = segment.prev_epoch + 2;
  ASSERT_TRUE(WriteDeltaSegment(path_, segment, nullptr).ok());
  DeltaSegment read;
  const Status s = ReadDeltaSegment(path_, &read);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace spade
