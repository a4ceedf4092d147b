// Wire-format fuzz suite (ctest label `stress`): the network analogue of
// corruption_test.cc. Property under test: a single byte flip anywhere in
// a frame — magic, type, flags, length, sequence, payload, CRC trailer —
// is never decoded as a frame, never crashes the reader, and never costs
// more than that one frame: the next intact frame in the stream always
// comes out. At the server level the same property reads: a corrupt BATCH
// frame is never applied, and the stream resynchronizes on the next good
// frame, so retried batches land exactly once.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "net/ingest_server.h"
#include "net/wire_format.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade::net {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 64;

std::vector<Edge> MakeEdges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(testing::RandomEdge(&rng, kVertices, 4));
  }
  return edges;
}

/// Decodes everything currently extractable from `reader`.
std::vector<Frame> DrainFrames(FrameReader* reader) {
  std::vector<Frame> frames;
  Frame frame;
  while (reader->Next(&frame)) frames.push_back(frame);
  return frames;
}

TEST(WireFormat, RoundTripsMixedFrameSequence) {
  const std::vector<Edge> edges = MakeEdges(10, 1);
  AckPayload ack{7, 3};
  const std::string stream =
      EncodeFrame(FrameType::kHello, 0, EncodeU64Payload(42)) +
      EncodeFrame(FrameType::kBatch, 1, EncodeBatchPayload(edges)) +
      EncodeFrame(FrameType::kAck, 1, EncodeAckPayload(ack)) +
      EncodeFrame(FrameType::kHeartbeat, 0, "") +
      EncodeFrame(FrameType::kEpochFile, 9,
                  EncodeEpochFilePayload(9, "shard-0.delta-9", "payload")) +
      EncodeFrame(FrameType::kEpochCommit, 9,
                  EncodeEpochCommitPayload(9, "manifest-bytes"));

  // Feed in awkward slices so header/payload boundaries never line up with
  // Append boundaries.
  FrameReader reader;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    reader.Append(stream.data() + i, std::min<std::size_t>(7, stream.size() - i));
    for (const Frame& f : DrainFrames(&reader)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kBatch);
  EXPECT_EQ(frames[1].seq, 1u);
  std::vector<Edge> decoded;
  ASSERT_TRUE(DecodeBatchPayload(frames[1].payload, &decoded));
  ASSERT_EQ(decoded.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(decoded[i].src, edges[i].src);
    EXPECT_EQ(decoded[i].dst, edges[i].dst);
    EXPECT_EQ(decoded[i].weight, edges[i].weight);
    EXPECT_EQ(decoded[i].ts, edges[i].ts);
  }
  AckPayload ack2;
  ASSERT_TRUE(DecodeAckPayload(frames[2].payload, &ack2));
  EXPECT_EQ(ack2.applied, 7u);
  EXPECT_EQ(ack2.durable, 3u);
  EpochFilePayload file;
  ASSERT_TRUE(DecodeEpochFilePayload(frames[4].payload, &file));
  EXPECT_EQ(file.epoch, 9u);
  EXPECT_EQ(file.name, "shard-0.delta-9");
  EXPECT_EQ(file.data, "payload");
  EpochCommitPayload commit;
  ASSERT_TRUE(DecodeEpochCommitPayload(frames[5].payload, &commit));
  EXPECT_EQ(commit.epoch, 9u);
  EXPECT_EQ(commit.manifest, "manifest-bytes");
  EXPECT_EQ(reader.corrupt_frames(), 0u);
  EXPECT_EQ(reader.resync_bytes(), 0u);
}

// The tentpole sweep: flip EVERY byte of the middle frame (every header
// field, every payload byte, every trailer byte) with a seeded mask and
// require (a) the corrupt frame never decodes, (b) both neighbours always
// decode intact, (c) no extra phantom frames appear.
TEST(WireFormat, SingleByteFlipSweepNeverDecodesCorruptFrame) {
  const std::vector<Edge> batch_a = MakeEdges(5, 11);
  const std::vector<Edge> batch_b = MakeEdges(6, 22);
  const std::vector<Edge> batch_c = MakeEdges(7, 33);
  const std::string frame_a =
      EncodeFrame(FrameType::kBatch, 1, EncodeBatchPayload(batch_a));
  const std::string frame_b =
      EncodeFrame(FrameType::kBatch, 2, EncodeBatchPayload(batch_b));
  const std::string frame_c =
      EncodeFrame(FrameType::kBatch, 3, EncodeBatchPayload(batch_c));

  Rng rng(0xF1);
  for (std::size_t pos = 0; pos < frame_b.size(); ++pos) {
    std::string corrupted = frame_b;
    corrupted[pos] ^= static_cast<char>(1 + rng.NextBounded(255));
    const std::string stream = frame_a + corrupted + frame_c;

    FrameReader reader;
    reader.Append(stream.data(), stream.size());
    const std::vector<Frame> frames = DrainFrames(&reader);

    // Frame B must never survive: CRC-64 detects every single-byte error,
    // and a mangled header (magic/type/len) fails the plausibility gates.
    std::size_t intact = 0;
    for (const Frame& f : frames) {
      if (f.seq == 1) {
        EXPECT_EQ(f.payload, EncodeBatchPayload(batch_a)) << "pos=" << pos;
        ++intact;
      } else if (f.seq == 3) {
        EXPECT_EQ(f.payload, EncodeBatchPayload(batch_c)) << "pos=" << pos;
        ++intact;
      } else {
        ADD_FAILURE() << "corrupt frame decoded at flip pos " << pos
                      << " (seq=" << f.seq << ")";
      }
    }
    EXPECT_EQ(intact, 2u) << "lost a good neighbour at flip pos " << pos;
    EXPECT_GE(reader.corrupt_frames() + reader.resync_bytes(), 1u)
        << "flip at pos " << pos << " went unnoticed";
    if (::testing::Test::HasFailure()) return;
  }
}

// Tearing: truncate the stream at every possible byte, then deliver the
// rest. The partial frame must never decode early, and completing the
// bytes must always yield the full sequence (frames survive arbitrary
// Append boundaries).
TEST(WireFormat, TornFramesResumeAtEveryBoundary) {
  const std::vector<Edge> batch = MakeEdges(4, 44);
  const std::string stream =
      EncodeFrame(FrameType::kBatch, 1, EncodeBatchPayload(batch)) +
      EncodeFrame(FrameType::kHeartbeat, 0, "");
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameReader reader;
    reader.Append(stream.data(), cut);
    std::vector<Frame> frames = DrainFrames(&reader);
    reader.Append(stream.data() + cut, stream.size() - cut);
    for (const Frame& f : DrainFrames(&reader)) frames.push_back(f);
    ASSERT_EQ(frames.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(frames[0].seq, 1u) << "cut=" << cut;
    EXPECT_EQ(frames[1].type, FrameType::kHeartbeat) << "cut=" << cut;
    EXPECT_EQ(reader.corrupt_frames(), 0u) << "cut=" << cut;
  }
}

// Duplicated and garbage-separated frames: the reader skips noise of any
// length and never fabricates frames from it.
TEST(WireFormat, ResyncsAcrossGarbageRuns) {
  const std::string good = EncodeFrame(FrameType::kHeartbeat, 0, "");
  Rng rng(0xA5);
  for (std::size_t garbage_len : {1u, 3u, 17u, 64u, 1024u}) {
    std::string garbage(garbage_len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    const std::string stream = good + garbage + good;
    FrameReader reader;
    reader.Append(stream.data(), stream.size());
    const std::vector<Frame> frames = DrainFrames(&reader);
    // The garbage may accidentally contain the magic, but the CRC gate
    // means it can never produce a decoded frame beyond the two real ones.
    ASSERT_GE(frames.size(), 2u) << "garbage_len=" << garbage_len;
    for (const Frame& f : frames) {
      EXPECT_EQ(f.type, FrameType::kHeartbeat);
      EXPECT_TRUE(f.payload.empty());
    }
  }
}

// Payload-codec fuzz: structural decoders must reject or cleanly decode
// any mutation, never crash or over-read.
TEST(WireFormat, PayloadDecodersSurviveMutations) {
  const std::vector<Edge> edges = MakeEdges(8, 55);
  const std::string payloads[] = {
      EncodeBatchPayload(edges), EncodeAckPayload({5, 2}),
      EncodeU64Payload(123),
      EncodeEpochFilePayload(3, "boundary.tail-3", "data-bytes"),
      EncodeEpochCommitPayload(3, "spade-shard-manifest 3\n")};
  Rng rng(0xC3);
  for (const std::string& base : payloads) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = base;
      const std::size_t cut = rng.NextBounded(mutated.size() + 1);
      if (rng.NextBool(0.5)) mutated.resize(cut);  // truncate
      if (!mutated.empty() && rng.NextBool(0.7)) {
        mutated[rng.NextBounded(mutated.size())] ^=
            static_cast<char>(1 + rng.NextBounded(255));
      }
      std::vector<Edge> out_edges;
      AckPayload out_ack;
      std::uint64_t out_u64;
      EpochFilePayload out_file;
      EpochCommitPayload out_commit;
      DecodeBatchPayload(mutated, &out_edges);
      DecodeAckPayload(mutated, &out_ack);
      DecodeU64Payload(mutated, &out_u64);
      DecodeEpochFilePayload(mutated, &out_file);
      DecodeEpochCommitPayload(mutated, &out_commit);
    }
  }
}

// Server-level property: corrupt frames interleaved with good ones never
// crash the server, never apply, and never block the next good frame —
// and a batch resent around the corruption applies exactly once.
TEST(WireFormat, ServerResyncsAndAppliesExactlyOnce) {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    ASSERT_TRUE(spade.BuildGraph(kVertices, {}).ok());
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = [](VertexId v) -> std::size_t { return v % kShards; };
  options.shard.detect_every = 16;
  ShardedDetectionService service(std::move(shards), nullptr,
                                  std::move(options));

  IngestServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  auto conn = TcpConnect(server.port(), 1000);
  ASSERT_NE(conn, nullptr);

  const auto send = [&](const std::string& bytes) {
    ASSERT_TRUE(conn->SendAll(bytes.data(), bytes.size()).ok());
  };
  const auto wait_ack = [&](std::uint64_t want_applied) {
    FrameReader reader;
    char buf[4096];
    for (int i = 0; i < 200; ++i) {
      std::size_t received = 0;
      const IoResult rc = conn->Recv(buf, sizeof(buf), &received, 50);
      if (rc != IoResult::kOk) continue;
      reader.Append(buf, received);
      Frame frame;
      while (reader.Next(&frame)) {
        AckPayload ack;
        if (DecodeAckPayload(frame.payload, &ack) &&
            ack.applied >= want_applied) {
          return true;
        }
      }
    }
    return false;
  };

  send(EncodeFrame(FrameType::kHello, 0, EncodeU64Payload(1)));
  ASSERT_TRUE(wait_ack(0));

  const std::vector<Edge> batch1 = MakeEdges(20, 66);
  const std::vector<Edge> batch2 = MakeEdges(20, 77);
  const std::string f1 =
      EncodeFrame(FrameType::kBatch, 1, EncodeBatchPayload(batch1));
  const std::string f2 =
      EncodeFrame(FrameType::kBatch, 2, EncodeBatchPayload(batch2));

  // Good batch 1, corrupted batch 2, duplicate of batch 1, then intact
  // batch 2: the server must end with exactly batch1+batch2 applied.
  std::string corrupt2 = f2;
  corrupt2[kFrameHeaderSize + 5] ^= 0x40;  // inside the payload
  send(f1);
  ASSERT_TRUE(wait_ack(1));
  send(corrupt2 + f1 + f2);
  ASSERT_TRUE(wait_ack(2));

  server.Stop();

  const IngestServerStats stats = server.GetStats();
  EXPECT_EQ(stats.batches_applied, 2u);
  EXPECT_EQ(stats.edges_applied, batch1.size() + batch2.size());
  EXPECT_GE(stats.duplicate_batches, 1u);
  EXPECT_GE(stats.corrupt_frames + stats.resync_bytes, 1u);

  // State equals an in-process reference fed the same edges once.
  service.Drain();
  std::vector<Spade> ref_shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    ASSERT_TRUE(spade.BuildGraph(kVertices, {}).ok());
    ref_shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions ref_options;
  ref_options.partitioner = [](VertexId v) -> std::size_t { return v % kShards; };
  ref_options.shard.detect_every = 16;
  ShardedDetectionService reference(std::move(ref_shards), nullptr,
                                    std::move(ref_options));
  ASSERT_TRUE(reference.SubmitBatch(batch1).ok());
  ASSERT_TRUE(reference.SubmitBatch(batch2).ok());
  reference.Drain();

  for (std::size_t s = 0; s < kShards; ++s) {
    testing::ShardCapture want;
    reference.InspectShard(s, [&](const Spade& spade) {
      want = testing::Capture(spade);
    });
    service.InspectShard(s, [&](const Spade& spade) {
      testing::ExpectShardEqualsCapture(want, testing::Capture(spade));
    });
  }
}

}  // namespace
}  // namespace spade::net
