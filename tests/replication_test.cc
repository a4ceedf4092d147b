// Replication and wire-ingest suite (ctest label `stress`): seal/ship/
// apply through real loopback sockets, the seqmap exactly-once bookkeeping,
// bounded drains, warm-standby incremental apply, staged-tail promotion,
// client spill-and-recover, fault-injected delivery — plus the regression
// test for epoch numbering in a checkpoint directory shared with foreign
// files (spill buffers, seqmaps, editor droppings).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "net/faulty_transport.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/replicator.h"
#include "net/wire_format.h"
#include "service/sharded_detection_service.h"
#include "storage/sharded_snapshot.h"
#include "tests/test_util.h"

namespace spade::net {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 96;

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
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  service->SeedBoundaryIndex(initial);
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

void ExpectServicesEqual(const ShardedDetectionService& expected,
                         const ShardedDetectionService& actual) {
  const auto want = CaptureShards(expected);
  const auto got = CaptureShards(actual);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    testing::ExpectShardEqualsCapture(want[s], got[s]);
  }
}

std::vector<Edge> MakeEdges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(testing::RandomEdge(&rng, kVertices, 4));
  }
  return edges;
}

std::string ResetWorkDir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / "spade_replication" / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void WriteJunkFile(const fs::path& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Polls `fn` (which returns bool) until true or the deadline.
bool PollFor(int timeout_ms, const std::function<bool()>& fn) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

// --------------------------------------------------------------------------
// S1: bounded-wait drain.

TEST(DrainFor, BoundedWaitMatchesUnboundedDrain) {
  const std::vector<Edge> initial = MakeEdges(64, 1);
  auto service = BuildService(initial);
  auto reference = BuildService(initial);

  EXPECT_TRUE(service->DrainFor(std::chrono::milliseconds(1000)));  // idle

  const std::vector<Edge> stream = MakeEdges(512, 2);
  ASSERT_TRUE(service->SubmitBatch(stream).ok());
  ASSERT_TRUE(reference->SubmitBatch(stream).ok());
  EXPECT_TRUE(service->DrainFor(std::chrono::milliseconds(10'000)));
  reference->Drain();
  ExpectServicesEqual(*reference, *service);
}

TEST(DrainFor, SingleShardServiceBoundedWait) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(kVertices, {}).ok());
  std::vector<Spade> one_shard;
  one_shard.push_back(std::move(spade));
  ShardedDetectionService service(std::move(one_shard), nullptr);
  EXPECT_TRUE(service.DrainFor(std::chrono::milliseconds(500)));
  for (const Edge& e : MakeEdges(256, 3)) {
    ASSERT_TRUE(service.Submit(e).ok());
  }
  EXPECT_TRUE(service.DrainFor(std::chrono::milliseconds(10'000)));
  service.Stop();
}

// --------------------------------------------------------------------------
// S3 regression: foreign files in the checkpoint directory (client spill
// buffers, seqmaps, random droppings) must neither perturb epoch numbering
// nor be garbage-collected as stale chain artifacts.

TEST(NextEpochForDir, IgnoresForeignFilesAndNeverDeletesThem) {
  const std::string dir = ResetWorkDir("foreign_files");
  auto service = BuildService(MakeEdges(48, 4));

  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(service
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  EXPECT_EQ(info.epoch, 1u);

  // Foreign files that merely LOOK epoch-ish. None of these match the
  // exact artifact grammar, so none may perturb the next epoch.
  const std::vector<std::string> foreign = {
      "ingest.seqmap-900",        // seqmap (replicated beside the chain)
      "ingest.spill-901",         // client spill buffer sharing the dir
      "foo.delta-902",            // wrong stem
      "shard-0.delta-90x",        // non-numeric epoch
      "shard-x.snapshot-903",     // non-numeric shard
      "shard-0.delta-",           // empty epoch
      "boundary.tail-90 4",       // embedded space
      "shard-0.snapshot-99999999999999999999",  // epoch overflows u64
  };
  for (const std::string& name : foreign) {
    WriteJunkFile(fs::path(dir) / name, "junk");
  }

  ASSERT_TRUE(service->SubmitBatch(MakeEdges(32, 5)).ok());
  service->Drain();
  ASSERT_TRUE(service
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                              &info)
                  .ok());
  EXPECT_EQ(info.epoch, 2u) << "foreign files perturbed epoch numbering";

  // A full save garbage-collects stale chain artifacts; foreign files must
  // survive it untouched.
  ASSERT_TRUE(service->SubmitBatch(MakeEdges(32, 6)).ok());
  service->Drain();
  ASSERT_TRUE(service
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  EXPECT_EQ(info.epoch, 3u);
  for (const std::string& name : foreign) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / name))
        << name << " was deleted by chain GC";
  }

  // Control: a REAL epoch-stamped artifact does reserve its epoch. The
  // scan only runs for a writer without a live chain for the directory (a
  // fresh service), which is exactly the crash-restart case it protects.
  WriteJunkFile(fs::path(dir) / "shard-0.delta-41", "junk");
  auto fresh = BuildService(MakeEdges(16, 7));
  ASSERT_TRUE(fresh
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  EXPECT_EQ(info.epoch, 42u);
}

// --------------------------------------------------------------------------
// Seqmap capture: SealEpoch's map matches exactly what was applied.

TEST(IngestSeal, SeqmapMatchesAppliedWatermark) {
  const std::string dir = ResetWorkDir("seal_seqmap");
  auto service = BuildService({});

  IngestServer server(service.get());
  ASSERT_TRUE(server.Start().ok());

  IngestClientOptions copts;
  copts.ports = {server.port()};
  copts.stream_id = 77;
  copts.batch_edges = 32;
  IngestClient client(copts);
  for (const Edge& e : MakeEdges(100, 8)) {
    ASSERT_TRUE(client.Submit(e).ok());
  }
  ASSERT_TRUE(client.WaitAcked(10'000).ok());
  const std::uint64_t sealed_seq = client.last_sealed_seq();
  EXPECT_EQ(sealed_seq, 4u);  // 100 edges / 32 per batch -> 4 batches

  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(
      server.SealEpoch(dir, ShardedDetectionService::SaveMode::kAuto, &info)
          .ok());

  std::uint64_t epoch = 0;
  SeqMap seqs;
  const std::string seqmap_path =
      (fs::path(dir) / SeqMapFileName(info.epoch)).string();
  ASSERT_TRUE(ReadSeqMapFile(seqmap_path, &epoch, &seqs).ok());
  EXPECT_EQ(epoch, info.epoch);
  ASSERT_EQ(seqs.count(77u), 1u);
  EXPECT_EQ(seqs[77], sealed_seq);

  // MarkDurable propagates to the client on its next ack.
  server.MarkDurable(info.epoch);
  ASSERT_TRUE(client.WaitDurable(10'000).ok());
  EXPECT_EQ(client.GetStats().durable_seq, sealed_seq);

  server.Stop();
}

// --------------------------------------------------------------------------
// ApplyChainEpoch: warm-standby single-epoch increments are bit-identical
// to the live primary.

TEST(ApplyChainEpoch, IncrementalEpochsMatchPrimary) {
  const std::string dir = ResetWorkDir("apply_chain");
  const std::vector<Edge> initial = MakeEdges(64, 9);
  auto primary = BuildService(initial);

  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(primary
                  ->SaveState(dir, ShardedDetectionService::SaveMode::kFull,
                              &info)
                  .ok());
  ASSERT_EQ(info.epoch, 1u);

  auto standby = BuildService({});
  ASSERT_TRUE(standby->RestoreState(dir).ok());
  ExpectServicesEqual(*primary, *standby);

  for (std::uint64_t e = 2; e <= 4; ++e) {
    ASSERT_TRUE(primary->SubmitBatch(MakeEdges(48, 10 + e)).ok());
    primary->Drain();
    ASSERT_TRUE(primary
                    ->SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                                &info)
                    .ok());
    ASSERT_EQ(info.epoch, e);
    std::uint64_t replayed = 0;
    ASSERT_TRUE(standby
                    ->ApplyChainEpoch(dir, e, std::chrono::milliseconds(10'000),
                                      &replayed)
                    .ok());
    EXPECT_GT(replayed, 0u);
    ExpectServicesEqual(*primary, *standby);
  }

  // Guard rails: out-of-range targets are rejected crisply.
  EXPECT_EQ(standby->ApplyChainEpoch(dir, 99, std::chrono::milliseconds(1000))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(standby->ApplyChainEpoch(dir, 1, std::chrono::milliseconds(1000))
                .code(),
            StatusCode::kOutOfRange);
}

// --------------------------------------------------------------------------
// Replicator -> Standby over real sockets, eager replay: follower tracks
// the primary epoch by epoch.

TEST(Replication, EagerStandbyTracksPrimary) {
  const std::string pdir = ResetWorkDir("eager_primary");
  const std::string fdir = ResetWorkDir("eager_follower");
  const std::vector<Edge> initial = MakeEdges(64, 20);
  auto primary = BuildService(initial);
  auto follower = BuildService({});

  Replicator repl(primary.get(), nullptr, pdir);
  ASSERT_TRUE(repl.Start().ok());

  StandbyOptions sopts;
  sopts.primary_port = repl.port();
  sopts.eager_replay = true;
  sopts.lease_ms = 60'000;  // never expires in this test
  Standby standby(follower.get(), fdir, sopts);
  ASSERT_TRUE(standby.Start().ok());
  ASSERT_TRUE(PollFor(10'000, [&] { return repl.HasFollower(); }));

  for (std::uint64_t e = 1; e <= 3; ++e) {
    if (e > 1) {
      ASSERT_TRUE(primary->SubmitBatch(MakeEdges(48, 20 + e)).ok());
      primary->Drain();
    }
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(repl.SealAndShip(e == 1
                                     ? ShardedDetectionService::SaveMode::kFull
                                     : ShardedDetectionService::SaveMode::kDelta,
                                 &info)
                    .ok());
    ASSERT_EQ(info.epoch, e);
    ASSERT_TRUE(
        PollFor(10'000, [&] { return standby.applied_epoch() == e; }))
        << "standby never applied epoch " << e;
    ExpectServicesEqual(*primary, *follower);
  }

  EXPECT_EQ(repl.acked_epoch(), 3u);
  standby.Stop();
  repl.Stop();
}

// --------------------------------------------------------------------------
// Staged tail + Promote: failover time is the tail replay, and the result
// is bit-identical to the primary's last sealed epoch.

TEST(Replication, StagedTailPromoteMatchesLastSealedEpoch) {
  const std::string pdir = ResetWorkDir("staged_primary");
  const std::string fdir = ResetWorkDir("staged_follower");
  const std::vector<Edge> initial = MakeEdges(64, 30);
  auto primary = BuildService(initial);
  auto follower = BuildService({});

  Replicator repl(primary.get(), nullptr, pdir);
  ASSERT_TRUE(repl.Start().ok());

  StandbyOptions sopts;
  sopts.primary_port = repl.port();
  sopts.eager_replay = false;  // stage the tail; Promote pays the replay
  sopts.lease_ms = 60'000;
  Standby standby(follower.get(), fdir, sopts);
  ASSERT_TRUE(standby.Start().ok());
  ASSERT_TRUE(PollFor(10'000, [&] { return repl.HasFollower(); }));

  for (std::uint64_t e = 1; e <= 4; ++e) {
    if (e > 1) {
      ASSERT_TRUE(primary->SubmitBatch(MakeEdges(40, 30 + e)).ok());
      primary->Drain();
    }
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(repl.SealAndShip(e == 1
                                     ? ShardedDetectionService::SaveMode::kFull
                                     : ShardedDetectionService::SaveMode::kDelta,
                                 &info)
                    .ok());
    ASSERT_EQ(info.epoch, e);
  }
  ASSERT_TRUE(PollFor(10'000, [&] { return standby.committed_epoch() == 4; }));
  // First commit restored the base; the rest is a staged tail.
  EXPECT_EQ(standby.applied_epoch(), 1u);

  repl.Stop();  // primary goes away

  PromoteInfo promote;
  ASSERT_TRUE(standby.Promote(&promote).ok());
  EXPECT_EQ(promote.epoch, 4u);
  EXPECT_EQ(promote.replayed_epochs, 3u);
  EXPECT_FALSE(promote.full_restore);
  EXPECT_GT(promote.replayed_edges, 0u);

  ExpectServicesEqual(*primary, *follower);

  // Bit-identity against the replicated directory itself: a fresh service
  // restored from the follower's dir equals the promoted live state.
  auto verifier = BuildService({});
  ASSERT_TRUE(verifier->RestoreState(fdir).ok());
  ExpectServicesEqual(*verifier, *follower);
}

// --------------------------------------------------------------------------
// Client graceful degradation: spill to disk while the primary is down,
// recover completely once it returns.

TEST(IngestClient, SpillsWhileDownAndRecovers) {
  const std::string spill_dir = ResetWorkDir("client_spill");

  // Reserve a port with a listener, then close it: connects will fail.
  int dead_port = 0;
  {
    TcpListener probe;
    ASSERT_TRUE(probe.Listen(0).ok());
    dead_port = probe.port();
    probe.Close();
  }

  IngestClientOptions copts;
  copts.ports = {dead_port};
  copts.stream_id = 5;
  copts.batch_edges = 16;
  copts.max_buffered_batches = 4;
  copts.spill_dir = spill_dir;
  copts.max_connect_retries = 1;
  copts.connect_timeout_ms = 50;
  copts.ack_timeout_ms = 100;
  copts.backoff_initial_ms = 1;
  copts.backoff_max_ms = 8;
  IngestClient client(copts);

  const std::vector<Edge> stream = MakeEdges(20 * 16, 40);
  for (const Edge& e : stream) ASSERT_TRUE(client.Submit(e).ok());
  EXPECT_EQ(client.last_sealed_seq(), 20u);

  // Primary unreachable: Wait fails, buffered batches spill to disk.
  EXPECT_FALSE(client.WaitAcked(500).ok());
  EXPECT_GT(client.GetStats().spilled_batches, 0u);
  std::size_t spill_files = 0;
  for (const auto& entry : fs::directory_iterator(spill_dir)) {
    (void)entry;
    ++spill_files;
  }
  EXPECT_GT(spill_files, 0u);

  // Primary comes back (on a fresh port): repoint and deliver everything.
  auto service = BuildService({});
  IngestServer server(service.get());
  ASSERT_TRUE(server.Start().ok());
  client.SetPorts({server.port()});
  ASSERT_TRUE(client.WaitAcked(20'000).ok());
  server.Stop();
  service->Drain();

  EXPECT_GT(client.GetStats().reloaded_batches, 0u);
  const IngestServerStats sstats = server.GetStats();
  EXPECT_EQ(sstats.batches_applied, 20u);
  EXPECT_EQ(sstats.edges_applied, stream.size());

  auto reference = BuildService({});
  ASSERT_TRUE(reference->SubmitBatch(stream).ok());
  reference->Drain();
  ExpectServicesEqual(*reference, *service);

  // All spill files were consumed on delivery.
  spill_files = 0;
  for (const auto& entry : fs::directory_iterator(spill_dir)) {
    (void)entry;
    ++spill_files;
  }
  EXPECT_EQ(spill_files, 0u);
}

// --------------------------------------------------------------------------
// Fault-injected delivery: with the shim mangling outbound frames, retry +
// sequence dedup still lands every batch exactly once.

TEST(IngestClient, ExactlyOnceThroughFaultySchedule) {
  auto service = BuildService({});
  IngestServer server(service.get());
  ASSERT_TRUE(server.Start().ok());

  FaultPlan plan;
  plan.seed = 0xFA17;
  plan.p_drop = 0.05;
  plan.p_truncate = 0.05;
  plan.p_flip = 0.10;
  plan.p_duplicate = 0.10;
  plan.p_reorder = 0.10;
  plan.max_faults = 60;  // guarantee an eventually clean channel

  IngestClientOptions copts;
  copts.ports = {server.port()};
  copts.stream_id = 9;
  copts.batch_edges = 16;
  copts.ack_timeout_ms = 100;
  // Vary the seed per (re)connection: a fixed seed would replay the same
  // fault schedule against every reconnect attempt (e.g. always dropping
  // the HELLO), which can livelock. Still fully deterministic.
  auto attempt = std::make_shared<int>(0);
  copts.wrap_transport = [plan, attempt](std::unique_ptr<Connection> inner) {
    FaultPlan p = plan;
    p.seed = plan.seed + static_cast<std::uint64_t>((*attempt)++);
    return WrapFaulty(std::move(inner), p);
  };
  IngestClient client(copts);

  const std::vector<Edge> stream = MakeEdges(30 * 16, 50);
  for (const Edge& e : stream) ASSERT_TRUE(client.Submit(e).ok());
  ASSERT_TRUE(client.WaitAcked(60'000).ok());
  server.Stop();
  service->Drain();

  const IngestServerStats sstats = server.GetStats();
  EXPECT_EQ(sstats.batches_applied, 30u) << "a batch was lost or duplicated";
  EXPECT_EQ(sstats.edges_applied, stream.size());

  auto reference = BuildService({});
  ASSERT_TRUE(reference->SubmitBatch(stream).ok());
  reference->Drain();
  ExpectServicesEqual(*reference, *service);
}

}  // namespace
}  // namespace spade::net
