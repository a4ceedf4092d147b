// Tests for snapshot persistence: round-tripping graph + peel state,
// corruption detection and the Spade facade's save/restore.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "storage/checked_io.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"

#include "common/rng.h"
#include "core/spade.h"
#include "metrics/semantics.h"
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

// A CRC-valid snapshot whose peel state is not a permutation of the
// graph's vertices, or holds a non-finite number, is refused with an
// IOError. Restored, a repeated vertex made Detect return a wrong
// community without any report.
TEST_F(SnapshotTest, RejectsStateThatIsNotAPermutation) {
  // The path 0-1-2-3 with unit edges, written field by field as
  // SaveSnapshot writes version 2, with the given weights and state.
  const auto write = [&](const std::vector<double>& vertex_weights,
                         const std::vector<std::pair<std::uint32_t, double>>&
                             state) {
    storage::ChecksummedFileWriter w(path_);
    w.Write(std::uint64_t{0x53504144455F5631ULL});  // "SPADE_V1"
    w.Write(std::uint32_t{2});
    w.Write(std::uint64_t{4});  // vertices
    w.Write(std::uint64_t{3});  // edges
    for (const double weight : vertex_weights) w.Write(weight);
    for (std::uint32_t v = 0; v < 3; ++v) {
      w.Write(v);
      w.Write(v + 1);
      w.Write(1.0);
    }
    w.Write(std::uint8_t{1});  // peel state present
    for (const auto& [v, delta] : state) {
      w.Write(v);
      w.Write(delta);
    }
    w.Write(std::uint64_t{0});  // window
    ASSERT_TRUE(w.Finish().ok());
  };
  const auto load = [&] {
    DynamicGraph g;
    PeelState state;
    bool present = false;
    return LoadSnapshot(path_, &g, &state, &present, nullptr);
  };
  const std::vector<double> no_priors(4, 0.0);

  // The path's own peel loads, so each refusal below is its check's doing.
  write(no_priors, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 0.0}});
  ASSERT_TRUE(load().ok());

  write(no_priors, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {1, 0.0}});
  Status s = load();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("repeats vertex 1"), std::string::npos)
      << s.ToString();

  write(no_priors, {{0, 1.0}, {1, std::nan("")}, {2, 1.0}, {3, 0.0}});
  s = load();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("delta of vertex 1"), std::string::npos)
      << s.ToString();

  write({0.0, 0.0, HUGE_VAL, 0.0}, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 0.0}});
  s = load();
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("weight of vertex 2"), std::string::npos)
      << s.ToString();
}

// Every weight a detector admits is on the 2^-20 grid and its mass is at
// most 2^32; a CRC-valid snapshot breaking either is refused with a
// Status, as a non-finite weight is, rather than restored into a detector
// whose sums are inexact.
TEST_F(SnapshotTest, RejectsOffGridWeightsAndMassPastTheBound) {
  const auto load = [&] {
    DynamicGraph g;
    PeelState state;
    bool present = false;
    std::vector<Edge> window;
    return LoadSnapshot(path_, &g, &state, &present, &window);
  };
  const auto expect_refused = [&](const std::string& what) {
    const Status s = load();
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
    EXPECT_NE(s.message().find(what), std::string::npos) << s.ToString();
  };

  // On the grid, within the bound: loads.
  DynamicGraph g(3);
  g.SetVertexWeight(2, 0.5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.25).ok());
  ASSERT_TRUE(SaveSnapshot(path_, g, nullptr, {}).ok());
  ASSERT_TRUE(load().ok());

  // An edge weight off the grid.
  DynamicGraph off_edge(3);
  ASSERT_TRUE(off_edge.AddEdge(0, 1, 0.1).ok());
  ASSERT_TRUE(SaveSnapshot(path_, off_edge, nullptr, {}).ok());
  expect_refused("weight of edge 0");

  // A vertex prior off the grid.
  DynamicGraph off_prior(3);
  off_prior.SetVertexWeight(1, 1.0 / 3.0);
  ASSERT_TRUE(SaveSnapshot(path_, off_prior, nullptr, {}).ok());
  expect_refused("off-grid weight of vertex 1");

  // A window entry off the grid.
  const Edge off_window{0, 1, 0.1, 5};
  ASSERT_TRUE(
      SaveSnapshot(path_, g, nullptr, std::span<const Edge>(&off_window, 1))
          .ok());
  expect_refused("off-grid window edge weight");

  // Every weight on the grid, but the mass past 2^32.
  DynamicGraph heavy(3);
  heavy.SetVertexWeight(2, 0x1p31);
  ASSERT_TRUE(heavy.AddEdge(0, 1, 0x1p31).ok());
  ASSERT_TRUE(heavy.AddEdge(1, 0, 1.0).ok());
  ASSERT_TRUE(SaveSnapshot(path_, heavy, nullptr, {}).ok());
  expect_refused("mass exceeds the bound");
}

// Admission refuses a negative prior (a_u >= 0), so a CRC-valid snapshot
// holding one was not written by a detector; restoring it would let a
// partial sum exceed the mass the bound counts.
TEST_F(SnapshotTest, RejectsNegativeVertexWeight) {
  DynamicGraph g(3);
  g.SetVertexWeight(1, -1.0);
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(SaveSnapshot(path_, g, nullptr, {}).ok());
  DynamicGraph restored;
  bool present = false;
  const Status s = LoadSnapshot(path_, &restored, nullptr, &present, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  EXPECT_NE(s.message().find("negative weight of vertex 1"),
            std::string::npos)
      << s.ToString();
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
  // The catalogued CRC-64/XZ check value.
  EXPECT_EQ(crc, 0x995DC9BBDF1939FAULL);
}

// The eight-bytes-a-step path equals the bytewise definition for every
// length and split point around a step, from every alignment.
TEST(Crc64Test, SliceByEightMatchesBytewise) {
  const auto bytewise = [](const unsigned char* p, std::size_t n,
                           std::uint64_t seed) {
    std::uint64_t crc = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ULL : 0);
      }
    }
    return ~crc;
  };
  Rng rng(31);
  std::vector<unsigned char> buf(96);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextBounded(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t n = 0; n <= 80; ++n) {
      const std::uint64_t want = bytewise(p, n, 0);
      ASSERT_EQ(Crc64(p, n), want) << "offset " << offset << " n " << n;
      const std::size_t split = n / 3;
      ASSERT_EQ(Crc64(p + split, n - split, Crc64(p, split)), want)
          << "offset " << offset << " n " << n << " split " << split;
    }
  }
}

// Fields of every width round-trip through the 64 KiB buffers, straddling
// refills, and the trailer still catches a flip past the first refill, a
// torn tail and an appended byte.
TEST(ChecksummedIoTest, FieldsStraddleTheBufferAndTheTrailerHolds) {
  const std::string path = ::testing::TempDir() + "/spade_checked_io.bin";
  constexpr std::uint32_t kFields = 50000;
  {
    storage::ChecksummedFileWriter w(path);
    ASSERT_TRUE(w.ok());
    for (std::uint32_t i = 0; i < kFields; ++i) {
      w.Write(i);
      w.Write(static_cast<std::uint8_t>(i));
      w.Write(static_cast<double>(i) * 0.5);
    }
    EXPECT_EQ(w.bytes_written(), kFields * 13ull);
    ASSERT_TRUE(w.Finish().ok());
  }
  // Reads every field back; `mismatches` counts fields that differ from
  // what was written.
  std::size_t mismatches = 0;
  const auto read_all = [&]() -> Status {
    storage::ChecksummedFileReader r(path);
    if (!r.ok()) return Status::IOError("cannot open");
    for (std::uint32_t i = 0; i < kFields; ++i) {
      std::uint32_t a = 0;
      std::uint8_t b = 0;
      double c = 0.0;
      if (!r.Read(&a) || !r.Read(&b) || !r.Read(&c)) {
        return Status::IOError("truncated");
      }
      mismatches += a != i || b != static_cast<std::uint8_t>(i) ||
                    c != static_cast<double>(i) * 0.5;
    }
    return r.VerifyTrailer();
  };
  ASSERT_TRUE(read_all().ok());
  ASSERT_EQ(mismatches, 0u);
  const auto size = std::filesystem::file_size(path);
  ASSERT_EQ(size, kFields * 13ull + 8);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto write_bytes = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  std::string flipped = bytes;
  flipped[100000] = static_cast<char>(flipped[100000] ^ 0x10);
  write_bytes(flipped);
  EXPECT_FALSE(read_all().ok());
  write_bytes(bytes.substr(0, bytes.size() - 3));
  EXPECT_FALSE(read_all().ok());
  write_bytes(bytes + '\0');
  const Status appended = read_all();
  ASSERT_FALSE(appended.ok());
  EXPECT_NE(appended.message().find("trailing bytes"), std::string::npos);
  std::filesystem::remove(path);
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
  // Manifest 5: version 6's lines, over delta segment 3 files.
  std::string v5 =
      "spade-shard-manifest 5\nshards 2\nsemantics DW\nepoch 2\n"
      "base-epoch 1\nfile 0 shard-0.snapshot-1\n"
      "file 1 shard-1.snapshot-1\ndelta 2 0 shard-0.delta-2\n"
      "delta 2 1 shard-1.delta-2\n";
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(v5.data(), v5.size()));
  write_manifest(v5 + crc_line);
  expect_version_error(ReadShardManifest(dir_, &read), 5);

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
  // Delta segment 3 logged raw weights with a flush record (tag 1) at
  // every buffer flush; replaying it as one merge per range would be
  // wrong, so it too fails by name.
  {
    storage::ChecksummedFileWriter w(bin);
    w.Write(std::uint64_t{0x53504144455F4453ULL});  // "SPADE_DS"
    w.Write(std::uint32_t{3});
    w.Write(std::uint32_t{0});  // shard
    w.Write(std::uint64_t{0});  // prev_epoch
    w.Write(std::uint64_t{1});  // epoch
    w.Write(std::uint64_t{2});  // records
    w.Write(std::uint8_t{0});   // edge
    w.Write(std::uint32_t{7});  // src
    w.Write(std::uint32_t{1});  // dst
    w.Write(0.3);               // raw weight
    w.Write(std::int64_t{11});  // ts
    w.Write(std::uint8_t{1});   // flush
    ASSERT_TRUE(w.Finish().ok());
  }
  expect_version_error(ReadDeltaSegment(bin, &segment), 3);
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
  // A pass at horizon 12 expires the two edges stamped before it.
  segment.records.push_back(DeltaRecord::RetirePass(12, 2));
  segment.records.push_back(DeltaRecord::Insert({2, 9, 1.0, 12}));
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
  ASSERT_EQ(read.records.size(), 4u);
  EXPECT_FALSE(read.records[0].retire);
  EXPECT_EQ(read.records[0].edge, (Edge{1, 2, 3.5, 10}));
  EXPECT_TRUE(read.records[2].retire);
  EXPECT_EQ(read.records[2].horizon, 12);
  EXPECT_EQ(read.records[2].retired, 2u);
  EXPECT_EQ(read.records[3].edge, (Edge{2, 9, 1.0, 12}));
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

// An insert record's weight is an applied weight: positive and on the
// grid. A CRC-valid segment holding any other fails to read.
TEST_F(DeltaSegmentTest, RejectsOffGridInsertWeight) {
  DeltaSegment segment = MakeSegment();
  segment.records[1].edge.weight = 0.1;
  ASSERT_TRUE(WriteDeltaSegment(path_, segment, nullptr).ok());
  DeltaSegment read;
  const Status s = ReadDeltaSegment(path_, &read);
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
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

// --- Spade::ReplayDelta against a live detector ---------------------------

/// A live windowed detector with the worker's logging discipline: every
/// admitted edge logged at its applied weight, every retire pass that
/// removed anything logged with its count, and each seal flushing the
/// benign buffer (ShardWorker::SavePartitionDelta).
class ReplayDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/spade_replay_delta_base.bin";
  }
  void TearDown() override { std::remove(base_.c_str()); }

  static Spade MakeDetector(const std::string& algo) {
    Spade spade;
    spade.SetSemantics(MakeSemanticsByName(algo));
    spade.TurnOnEdgeGrouping();
    spade.TurnOnWindowLog();
    return spade;
  }

  /// One admitted edge, logged as ShardWorker::ApplyOne logs it.
  void Apply(Spade* live, const Edge& raw) {
    double applied = 0.0;
    ASSERT_TRUE(live->ApplyEdge(raw, &applied).ok());
    log_.push_back(DeltaRecord::Insert(Edge{raw.src, raw.dst, applied,
                                            raw.ts}));
  }

  /// One retire pass, logged when it removed anything.
  void Retire(Spade* live, Timestamp horizon) {
    const auto retired = live->RetireOlderThan(horizon);
    ASSERT_TRUE(retired.ok());
    if (!retired.value().empty()) {
      log_.push_back(DeltaRecord::RetirePass(horizon, retired.value().size()));
    }
  }

  /// Seals the log into the next segment of the chain; returns how many
  /// buffered edges the seal flushed.
  std::size_t Seal(Spade* live) {
    const std::size_t buffered = live->PendingBenignEdges();
    EXPECT_TRUE(live->Flush().ok());
    DeltaSegment segment;
    segment.prev_epoch = chain_.size() + 1;
    segment.epoch = segment.prev_epoch + 1;
    segment.records = std::move(log_);
    log_.clear();
    chain_.push_back(std::move(segment));
    return buffered;
  }

  std::string base_;
  std::vector<DeltaRecord> log_;
  std::vector<DeltaSegment> chain_;
};

// A seal that finds edges in the benign buffer, under every semantics: the
// seal flushes them, the history lands in at most two merges, and the
// result equals the live detector — state, graph, buffer (empty on both)
// and window log, bit for bit — whether the range replays at once (lazy
// promote, restore) or one epoch at a time (eager apply). Fed the same
// later stream, both then buffer and detect alike after every edge.
TEST_F(ReplayDeltaTest, BufferedSealReplaysBitIdentical) {
  for (const char* algo : {"DG", "DW", "FD"}) {
    SCOPED_TRACE(algo);
    chain_.clear();
    Rng rng(4711);
    Spade live = MakeDetector(algo);
    std::vector<Edge> initial;
    // A dense core sets the density, so sparse traffic groups as benign.
    for (VertexId a = 0; a < 6; ++a) {
      for (VertexId b = 0; b < 6; ++b) {
        if (a != b) initial.push_back(Edge{a, b, 9.0, 0});
      }
    }
    ASSERT_TRUE(live.BuildGraph(64, initial).ok());
    ASSERT_TRUE(live.SaveState(base_).ok());

    Timestamp now = 0;
    const auto traffic = [&](int edges) {
      for (int i = 0; i < edges; ++i) {
        Edge e = testing::RandomEdge(&rng, 80);  // ids past 63 are new
        e.weight = 1.0 + 9.0 * rng.NextDouble();
        now += 3;
        e.ts = rng.NextBounded(8) == 0 ? now - 40 : now;  // late arrivals
        Apply(&live, e);
        if (i % 37 == 36) live.Detect();  // a detect_every cadence
      }
    };
    traffic(150);
    Retire(&live, now - 200);
    traffic(60);
    Seal(&live);
    traffic(90);
    Retire(&live, now - 150);
    // Sparse edges between known vertices: benign, so they stay buffered.
    for (VertexId v = 20; v < 26; ++v) {
      Apply(&live, Edge{v, static_cast<VertexId>(v + 10), 0.5, now});
    }
    ASSERT_GT(Seal(&live), 0u);
    ASSERT_GT(live.cumulative_stats().merges, 20u);

    Spade lazy = MakeDetector(algo);
    ASSERT_TRUE(lazy.RestoreState(base_).ok());
    const auto merges = lazy.ReplayDelta(chain_);
    ASSERT_TRUE(merges.ok()) << merges.status().ToString();
    EXPECT_LE(merges.value(), 2u);
    EXPECT_EQ(lazy.cumulative_stats().merges, merges.value());

    Spade eager = MakeDetector(algo);
    ASSERT_TRUE(eager.RestoreState(base_).ok());
    for (const DeltaSegment& segment : chain_) {
      const auto one = eager.ReplayDelta(std::span(&segment, 1));
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_LE(one.value(), 2u);
    }

    const testing::ShardCapture want = testing::Capture(live);
    EXPECT_TRUE(want.buffer.empty());
    testing::ExpectShardEqualsCapture(want, testing::Capture(lazy));
    testing::ExpectShardEqualsCapture(want, testing::Capture(eager));
    if (::testing::Test::HasFailure()) return;

    for (int i = 0; i < 120; ++i) {
      Edge e = testing::RandomEdge(&rng, 90);
      e.weight = 1.0 + 9.0 * rng.NextDouble();
      now += 3;
      e.ts = now;
      for (Spade* spade : {&live, &lazy}) {
        ASSERT_TRUE(spade->ApplyEdge(e).ok());
      }
      EXPECT_EQ(live.PendingBenignEdges(), lazy.PendingBenignEdges());
      const Community a = live.peel_state().DetectCommunity();
      const Community b = lazy.peel_state().DetectCommunity();
      EXPECT_EQ(a.members, b.members) << "edge " << i;
      EXPECT_EQ(a.density, b.density) << "edge " << i;
    }
    testing::ExpectShardEqualsCapture(testing::Capture(live),
                                      testing::Capture(lazy));
  }
}

// Every save and seal flushes, so a detector holding buffered edges is not
// at any sealed state: replay refuses it and changes nothing.
TEST_F(ReplayDeltaTest, NonEmptyBufferIsRefused) {
  Spade live = MakeDetector("DW");
  std::vector<Edge> core;
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = 0; b < 4; ++b) {
      if (a != b) core.push_back(Edge{a, b, 9.0, 0});
    }
  }
  ASSERT_TRUE(live.BuildGraph(16, core).ok());
  Apply(&live, Edge{8, 9, 0.5, 1});
  ASSERT_EQ(live.PendingBenignEdges(), 1u);
  chain_.push_back(DeltaSegment{.prev_epoch = 1, .epoch = 2, .records = {}});
  chain_.back().records.push_back(DeltaRecord::Insert(Edge{10, 11, 0.5, 2}));

  const testing::ShardCapture before = testing::Capture(live);
  const auto merges = live.ReplayDelta(chain_);
  ASSERT_FALSE(merges.ok());
  EXPECT_EQ(merges.status().code(), StatusCode::kFailedPrecondition);
  testing::ExpectShardEqualsCapture(before, testing::Capture(live));
}

// A retire record that pops a different count than it recorded fails,
// naming its epoch, and leaves the detector untouched.
TEST_F(ReplayDeltaTest, MismatchedRetireCountChangesNothing) {
  Spade live = MakeDetector("DW");
  ASSERT_TRUE(live.BuildGraph(8, {}).ok());
  ASSERT_TRUE(live.SaveState(base_).ok());
  for (Timestamp t = 1; t <= 6; ++t) {
    Apply(&live, Edge{static_cast<VertexId>(t), 0, 2.0, t});
  }
  Retire(&live, 4);
  Seal(&live);
  ++chain_.back().records.back().retired;

  Spade victim = MakeDetector("DW");
  ASSERT_TRUE(victim.RestoreState(base_).ok());
  const testing::ShardCapture before = testing::Capture(victim);
  const auto merges = victim.ReplayDelta(chain_);
  ASSERT_FALSE(merges.ok());
  EXPECT_EQ(merges.status().code(), StatusCode::kInternal);
  EXPECT_NE(merges.status().message().find("epoch 2"), std::string::npos)
      << merges.status().ToString();
  testing::ExpectShardEqualsCapture(before, testing::Capture(victim));
}

}  // namespace
}  // namespace spade
