// Replication and wire-ingest suite (ctest label `stress`): seal/ship/
// apply through real loopback sockets, the seqmap exactly-once bookkeeping,
// bounded drains, warm-standby incremental apply, staged-tail promotion,
// client spill-and-recover, fault-injected delivery — plus the regression
// test for epoch numbering in a checkpoint directory shared with foreign
// files (spill buffers, seqmaps, editor droppings).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
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

/// `partitions_per_shard` detector partitions on each of kShards workers,
/// homed by v % partition count.
std::unique_ptr<ShardedDetectionService> BuildService(
    const std::vector<Edge>& initial, std::size_t partitions_per_shard = 1,
    std::size_t vertices = kVertices, Timestamp window_span = 0) {
  const std::size_t partitions = kShards * partitions_per_shard;
  std::vector<std::vector<Edge>> parts(partitions);
  for (const Edge& e : initial) parts[e.src % partitions].push_back(e);
  std::vector<Spade> shards;
  for (std::size_t p = 0; p < partitions; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(vertices, parts[p]).ok());
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = [partitions](VertexId v) -> std::size_t {
    return v % partitions;
  };
  options.shard.detect_every = 16;
  options.rebalance.partitions_per_shard = partitions_per_shard;
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  options.window.span = window_span;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

/// One capture per partition, wherever it lives, so fleets whose
/// placements differ still compare partition by partition.
std::vector<testing::ShardCapture> CapturePartitions(
    const ShardedDetectionService& service) {
  std::vector<testing::ShardCapture> captures(service.num_partitions());
  for (std::size_t pid = 0; pid < service.num_partitions(); ++pid) {
    EXPECT_TRUE(service
                    .InspectPartition(pid,
                                      [&](const Spade& spade) {
                                        captures[pid] = testing::Capture(spade);
                                      })
                    .ok());
  }
  return captures;
}

void ExpectSameCaptures(const std::vector<testing::ShardCapture>& want,
                        const std::vector<testing::ShardCapture>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t pid = 0; pid < want.size(); ++pid) {
    testing::ExpectShardEqualsCapture(want[pid], got[pid]);
  }
}

void ExpectServicesEqual(const ShardedDetectionService& expected,
                         const ShardedDetectionService& actual) {
  ExpectSameCaptures(CapturePartitions(expected), CapturePartitions(actual));
}

std::vector<Edge> MakeEdges(std::size_t count, std::uint64_t seed,
                            std::size_t vertices = kVertices) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(testing::RandomEdge(&rng, vertices, 4));
  }
  return edges;
}

/// Flips one byte in the middle of `path`, so its CRC trailer no longer
/// matches.
void CorruptMiddleByte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 16) << path;
  f.seekg(size / 2);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(size / 2);
  f.write(&c, 1);
}

/// Saves epochs `first`..`last` of `primary` into `dir`: epoch 1 is the
/// full base, every later epoch a delta holding `edges_per_epoch` fresh
/// edges.
void SaveChain(ShardedDetectionService* primary, const std::string& dir,
               std::uint64_t first, std::uint64_t last,
               std::size_t edges_per_epoch, std::uint64_t seed,
               std::size_t vertices = kVertices) {
  for (std::uint64_t e = first; e <= last; ++e) {
    if (e > 1) {
      ASSERT_TRUE(primary
                      ->SubmitBatch(MakeEdges(edges_per_epoch, seed + e,
                                              vertices))
                      .ok());
      primary->Drain();
    }
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(primary
                    ->SaveState(dir,
                                e == 1
                                    ? ShardedDetectionService::SaveMode::kFull
                                    : ShardedDetectionService::SaveMode::kDelta,
                                &info)
                    .ok());
    ASSERT_EQ(info.epoch, e);
  }
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
// A batch the service refuses is applied whole, once, on a later resend:
// the refusal enqueues no edge on any shard, and it is counted as refused,
// not as a gap.

TEST(IngestServer, RefusedBatchLandsExactlyOnceOnResend) {
  std::vector<Spade> shards;
  for (int p = 0; p < 2; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    ASSERT_TRUE(spade.BuildGraph(kVertices, {}).ok());
    shards.push_back(std::move(spade));
  }
  // Worker 1's first alert holds its thread until released, so the edges
  // submitted behind it fill its queue.
  std::mutex hold_mutex;
  std::condition_variable hold_cv;
  bool held = false;
  bool released = false;
  const ShardAlertFn hold = [&](std::size_t shard, const Community&) {
    std::unique_lock<std::mutex> lock(hold_mutex);
    if (shard != 1 || held) return;
    held = true;
    hold_cv.notify_all();
    hold_cv.wait(lock, [&] { return released; });
  };
  ShardedDetectionServiceOptions options;
  options.partitioner = [](VertexId v) -> std::size_t { return v % 2; };
  options.shard.max_queue = 4;  // fail fast
  ShardedDetectionService service(std::move(shards), hold, options);
  IngestServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(service.Submit(Edge{1, 3, 1e6, 0}).ok());  // partition 1
  {
    std::unique_lock<std::mutex> lock(hold_mutex);
    hold_cv.wait(lock, [&] { return held; });
  }
  std::uint64_t filler = 0;  // odd sources: partition 1
  while (service
             .Submit(Edge{static_cast<VertexId>((2 * filler + 5) % kVertices),
                          static_cast<VertexId>((2 * filler + 6) % kVertices),
                          1.0, 0})
             .ok()) {
    ++filler;
  }

  IngestClientOptions copts;
  copts.ports = {server.port()};
  copts.stream_id = 3;
  copts.batch_edges = 4;
  copts.ack_timeout_ms = 50;
  IngestClient client(copts);
  // One batch: two edges for partition 0, two for the full partition 1.
  for (const Edge& e : std::vector<Edge>{{10, 12, 1.0, 0},
                                         {12, 14, 1.0, 0},
                                         {11, 13, 1.0, 0},
                                         {13, 15, 1.0, 0}}) {
    EXPECT_TRUE(client.Submit(e).ok());  // buffers; never fails
  }
  EXPECT_FALSE(client.WaitAcked(300).ok());  // refused on every attempt
  EXPECT_GE(server.GetStats().refused_batches, 1u);

  {
    std::lock_guard<std::mutex> lock(hold_mutex);
    released = true;
  }
  hold_cv.notify_all();
  ASSERT_TRUE(client.WaitAcked(10'000).ok());
  server.Stop();
  service.Drain();

  const IngestServerStats stats = server.GetStats();
  EXPECT_EQ(stats.batches_applied, 1u);
  EXPECT_EQ(stats.edges_applied, 4u);
  EXPECT_GE(stats.refused_batches, 1u);
  EXPECT_EQ(stats.gap_batches, 0u);
  const ShardedServiceStats applied = service.GetStats();
  EXPECT_EQ(applied.shard_edges[0], 2u);
  EXPECT_EQ(applied.shard_edges[1], 1 + filler + 2);
}

// --------------------------------------------------------------------------
// ApplyChainRange: the warm-standby increment. One-epoch ranges (an eager
// standby) and a whole staged tail in one call are both bit-identical to
// the live primary; a bad range or a bad segment changes nothing.

constexpr auto kDrainTimeout = std::chrono::milliseconds(10'000);

TEST(ApplyChainRange, IncrementalEpochsMatchPrimary) {
  const std::string dir = ResetWorkDir("apply_chain");
  auto primary = BuildService(MakeEdges(64, 9));
  SaveChain(primary.get(), dir, 1, 1, 0, 0);
  auto standby = BuildService({});
  ASSERT_TRUE(standby->RestoreState(dir).ok());
  ExpectServicesEqual(*primary, *standby);

  for (std::uint64_t e = 2; e <= 4; ++e) {
    SaveChain(primary.get(), dir, e, e, 48, 10);
    ShardedDetectionService::RestoreInfo applied;
    ASSERT_TRUE(
        standby->ApplyChainRange(dir, e, e, kDrainTimeout, &applied).ok());
    EXPECT_EQ(applied.replayed_epochs, 1u);
    EXPECT_EQ(applied.restored_epoch, e);
    EXPECT_GT(applied.delta_edges_replayed, 0u);
    ExpectServicesEqual(*primary, *standby);
  }
}

TEST(ApplyChainRange, WholeRangeInOneCallMatchesPrimary) {
  const std::string dir = ResetWorkDir("apply_range");
  auto primary = BuildService(MakeEdges(64, 11));
  SaveChain(primary.get(), dir, 1, 1, 0, 0);
  auto standby = BuildService({});
  ASSERT_TRUE(standby->RestoreState(dir).ok());
  SaveChain(primary.get(), dir, 2, 4, 48, 20);

  ShardedDetectionService::RestoreInfo applied;
  ASSERT_TRUE(
      standby->ApplyChainRange(dir, 2, 4, kDrainTimeout, &applied).ok());
  EXPECT_EQ(applied.manifest_epoch, 4u);
  EXPECT_EQ(applied.restored_epoch, 4u);
  EXPECT_EQ(applied.replayed_epochs, 3u);
  EXPECT_FALSE(applied.truncated_chain);
  ExpectServicesEqual(*primary, *standby);

  // The same range replayed by a full restore counts the same edges.
  auto verifier = BuildService({});
  ShardedDetectionService::RestoreInfo restored;
  ASSERT_TRUE(verifier->RestoreState(dir, &restored).ok());
  EXPECT_EQ(restored.replayed_epochs, 3u);
  EXPECT_EQ(applied.delta_edges_replayed, restored.delta_edges_replayed);
  ExpectServicesEqual(*verifier, *standby);
}

// The three ways a chain reaches a fleet — an eager standby applying each
// epoch as it commits, a lazy one promoting the whole staged tail in one
// call, a full restore — agree with the live primary bit for bit, on a
// windowed chain with late arrivals, retire passes and edges naming
// vertices the base never saw. Each call replays its range in at most one
// DeleteBatch and one InsertBatch per partition.
TEST(ApplyChainRange, EagerLazyAndRestoreEqualLive) {
  constexpr Timestamp kSpan = 300;
  constexpr std::uint64_t kEpochs = 5;
  const std::string dir = ResetWorkDir("apply_three_ways");
  const std::vector<Edge> initial = MakeEdges(64, 13);
  auto primary = BuildService(initial, 2, kVertices, kSpan);
  ASSERT_TRUE(primary->SaveState(dir).ok());  // epoch 1: the base
  auto eager = BuildService({}, 2, kVertices, kSpan);
  auto lazy = BuildService({}, 2, kVertices, kSpan);
  ASSERT_TRUE(eager->RestoreState(dir).ok());
  ASSERT_TRUE(lazy->RestoreState(dir).ok());
  const std::size_t limit = 2 * primary->num_partitions();

  Rng rng(14);
  Timestamp now = 0;
  for (std::uint64_t e = 2; e <= kEpochs; ++e) {
    // Ids past kVertices are new to every partition.
    std::vector<Edge> chunk = MakeEdges(60, 14 + e, kVertices + 24);
    for (Edge& edge : chunk) {
      now += 5;
      edge.ts = rng.NextBounded(6) == 0 ? now - 2 * kSpan : now;
      edge.weight = 1.0 + 9.0 * rng.NextDouble();
    }
    ASSERT_TRUE(primary->SubmitBatch(chunk).ok());
    ASSERT_TRUE(primary->RetireOlderThan(now - kSpan).ok());
    primary->Drain();
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(primary
                    ->SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                                &info)
                    .ok());
    ASSERT_EQ(info.epoch, e);
    ShardedDetectionService::RestoreInfo applied;
    ASSERT_TRUE(
        eager->ApplyChainRange(dir, e, e, kDrainTimeout, &applied).ok());
    EXPECT_LE(applied.replay_merges, limit);
    ExpectServicesEqual(*primary, *eager);
  }
  ASSERT_GT(primary->EdgesRetired(), 0u);

  ShardedDetectionService::RestoreInfo promoted;
  ASSERT_TRUE(
      lazy->ApplyChainRange(dir, 2, kEpochs, kDrainTimeout, &promoted).ok());
  EXPECT_EQ(promoted.replayed_epochs, kEpochs - 1);
  EXPECT_LE(promoted.replay_merges, limit);
  ExpectServicesEqual(*primary, *lazy);

  auto restored = BuildService({}, 2, kVertices, kSpan);
  ShardedDetectionService::RestoreInfo full;
  ASSERT_TRUE(restored->RestoreState(dir, &full).ok());
  EXPECT_LE(full.replay_merges, limit);
  ExpectServicesEqual(*primary, *restored);
}

TEST(ApplyChainRange, RejectsRangesOutsideTheChain) {
  const std::string dir = ResetWorkDir("apply_range_bounds");
  auto primary = BuildService(MakeEdges(64, 12));
  SaveChain(primary.get(), dir, 1, 4, 48, 30);
  auto standby = BuildService({});
  const auto before = CapturePartitions(*standby);
  for (const auto& [first, last] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {1, 4}, {0, 2}, {2, 5}, {99, 99}, {4, 3}}) {
    EXPECT_EQ(standby->ApplyChainRange(dir, first, last, kDrainTimeout).code(),
              StatusCode::kOutOfRange)
        << "[" << first << ", " << last << "]";
  }
  ExpectSameCaptures(before, CapturePartitions(*standby));
}

TEST(ApplyChainRange, CorruptSegmentInTheRangeChangesNothing) {
  const std::string dir = ResetWorkDir("apply_range_corrupt");
  auto primary = BuildService(MakeEdges(64, 13));
  SaveChain(primary.get(), dir, 1, 1, 0, 0);
  auto standby = BuildService({});
  ASSERT_TRUE(standby->RestoreState(dir).ok());
  SaveChain(primary.get(), dir, 2, 4, 48, 40);
  const std::string bad = ShardDeltaFileName(1, 3);
  CorruptMiddleByte((fs::path(dir) / bad).string());

  // Epoch 2 is intact, but the call covers epoch 3 too: nothing is applied.
  const auto before = CapturePartitions(*standby);
  const Status s = standby->ApplyChainRange(dir, 2, 4, kDrainTimeout);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.ToString().find(bad), std::string::npos) << s.ToString();
  ExpectSameCaptures(before, CapturePartitions(*standby));

  // The intact prefix still applies on its own.
  ASSERT_TRUE(standby->ApplyChainRange(dir, 2, 2, kDrainTimeout).ok());
}

TEST(ApplyChainRange, SharedWorkersAndMovedPartitionsReplayInPlace) {
  const std::string dir = ResetWorkDir("apply_range_moved");
  constexpr std::size_t kPerShard = 2;
  auto primary = BuildService(MakeEdges(96, 14), kPerShard);
  SaveChain(primary.get(), dir, 1, 1, 0, 0);
  auto standby = BuildService({}, kPerShard);
  ASSERT_TRUE(standby->RestoreState(dir).ok());
  // Partition 1 joins partitions 0 and 2 on worker 0 of the standby, and
  // partition 2 moves on the primary mid-chain: the manifests' placement
  // and the standby's differ, and three replays share one worker's mutex.
  ASSERT_EQ(standby->PartitionShard(1), 1u);
  ASSERT_TRUE(standby->RebalanceNow(1, 0).ok());
  SaveChain(primary.get(), dir, 2, 2, 64, 50);
  ASSERT_TRUE(primary->RebalanceNow(2, 1).ok());
  SaveChain(primary.get(), dir, 3, 4, 64, 50);

  ASSERT_TRUE(standby->ApplyChainRange(dir, 2, 4, kDrainTimeout).ok());
  for (std::size_t pid = 0; pid < standby->num_partitions(); ++pid) {
    EXPECT_EQ(standby->PartitionShard(pid), pid == 3 ? 1u : 0u) << pid;
  }
  ExpectServicesEqual(*primary, *standby);
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
  // Three epochs of flushes, one merge per partition (no retires here).
  EXPECT_GE(promote.replay_merges, 1u);
  EXPECT_LE(promote.replay_merges, 2 * follower->num_partitions());

  ExpectServicesEqual(*primary, *follower);

  // Bit-identity against the replicated directory itself: a fresh service
  // restored from the follower's dir equals the promoted live state.
  auto verifier = BuildService({});
  ASSERT_TRUE(verifier->RestoreState(fdir).ok());
  ExpectServicesEqual(*verifier, *follower);
}

/// Replicates a full epoch 1 and delta epochs 2..`last` of `primary`
/// through `repl` into a standby with eager replay off, so every epoch past
/// 1 stays staged on its disk.
void StageTail(ShardedDetectionService* primary, Replicator* repl,
               Standby* standby, std::uint64_t last,
               std::size_t edges_per_epoch, std::uint64_t seed,
               std::size_t vertices = kVertices) {
  ASSERT_TRUE(PollFor(10'000, [&] { return repl->HasFollower(); }));
  for (std::uint64_t e = 1; e <= last; ++e) {
    if (e > 1) {
      ASSERT_TRUE(primary
                      ->SubmitBatch(MakeEdges(edges_per_epoch, seed + e,
                                              vertices))
                      .ok());
      primary->Drain();
    }
    ASSERT_TRUE(repl->SealAndShip(e == 1
                                      ? ShardedDetectionService::SaveMode::kFull
                                      : ShardedDetectionService::SaveMode::kDelta)
                    .ok());
  }
  ASSERT_TRUE(
      PollFor(10'000, [&] { return standby->committed_epoch() == last; }));
  EXPECT_EQ(standby->applied_epoch(), 1u);
}

StandbyOptions LazyStandbyOptions(int primary_port) {
  StandbyOptions sopts;
  sopts.primary_port = primary_port;
  sopts.eager_replay = false;
  sopts.lease_ms = 60'000;
  return sopts;
}

// Stop() wakes the receiver wherever it waits: in the reconnect backoff
// after the primary went away, or in a receive on a live but silent
// connection. A promote then waits out neither poll_ms nor
// connect_backoff_ms.
TEST(Replication, PromoteDoesNotWaitOutPollOrBackoff) {
  for (const bool primary_gone : {true, false}) {
    SCOPED_TRACE(primary_gone ? "primary gone" : "primary silent");
    const std::string pdir = ResetWorkDir("long_poll_primary");
    const std::string fdir = ResetWorkDir("long_poll_follower");
    auto primary = BuildService(MakeEdges(64, 70));
    auto follower = BuildService({});
    ReplicatorOptions ropts;
    ropts.heartbeat_ms = 60'000;  // nothing arrives between seals
    Replicator repl(primary.get(), nullptr, pdir, ropts);
    ASSERT_TRUE(repl.Start().ok());
    StandbyOptions sopts = LazyStandbyOptions(repl.port());
    sopts.poll_ms = 10'000;
    sopts.connect_backoff_ms = 10'000;
    Standby standby(follower.get(), fdir, sopts);
    ASSERT_TRUE(standby.Start().ok());
    StageTail(primary.get(), &repl, &standby, 2, 48, 70);
    if (primary_gone) repl.Stop();
    // Let the receiver park in its 10 s wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const auto start = std::chrono::steady_clock::now();
    PromoteInfo promote;
    ASSERT_TRUE(standby.Promote(&promote).ok());
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    EXPECT_LT(elapsed_ms, 2000.0);
    EXPECT_LT(promote.stop_millis, 2000.0);
    EXPECT_EQ(promote.epoch, 2u);
    ExpectServicesEqual(*primary, *follower);
  }
}

// A corrupt staged segment fails the ranged apply before it touches the
// follower; the full-restore fallback then recovers the durable prefix, and
// Promote reports what that restore replayed, not the sum of both attempts.
TEST(Replication, PromoteFallbackReportsTheRestoreItself) {
  const std::string pdir = ResetWorkDir("fallback_primary");
  const std::string fdir = ResetWorkDir("fallback_follower");
  auto primary = BuildService(MakeEdges(64, 80));
  auto follower = BuildService({});
  Replicator repl(primary.get(), nullptr, pdir);
  ASSERT_TRUE(repl.Start().ok());
  Standby standby(follower.get(), fdir, LazyStandbyOptions(repl.port()));
  ASSERT_TRUE(standby.Start().ok());
  StageTail(primary.get(), &repl, &standby, 4, 48, 80);
  repl.Stop();
  CorruptMiddleByte((fs::path(fdir) / ShardDeltaFileName(0, 3)).string());

  PromoteInfo promote;
  ASSERT_TRUE(standby.Promote(&promote).ok());
  EXPECT_TRUE(promote.full_restore);
  EXPECT_EQ(promote.epoch, 2u);

  auto verifier = BuildService({});
  ShardedDetectionService::RestoreInfo restored;
  ASSERT_TRUE(verifier->RestoreState(fdir, &restored).ok());
  EXPECT_EQ(restored.restored_epoch, 2u);
  EXPECT_EQ(promote.replayed_epochs, restored.replayed_epochs);
  EXPECT_EQ(promote.replayed_epochs, 1u);
  EXPECT_EQ(promote.replayed_edges, restored.delta_edges_replayed);
  EXPECT_GT(promote.replayed_edges, 0u);
  ExpectServicesEqual(*verifier, *follower);
}

// The stage times a promote and a restore report add up to their totals,
// so a slow one can be attributed. The recounts run inside the replay, on
// the pool's threads, so their summed time is at most threads x replay.
TEST(Replication, PromoteAndRestoreStagesAddUpToTheirTotals) {
  const std::string pdir = ResetWorkDir("stages_primary");
  const std::string fdir = ResetWorkDir("stages_follower");
  constexpr std::size_t kWide = 4096;
  auto primary = BuildService(MakeEdges(2000, 90, kWide), 1, kWide);
  auto follower = BuildService({}, 1, kWide);
  Replicator repl(primary.get(), nullptr, pdir);
  ASSERT_TRUE(repl.Start().ok());
  Standby standby(follower.get(), fdir, LazyStandbyOptions(repl.port()));
  ASSERT_TRUE(standby.Start().ok());
  StageTail(primary.get(), &repl, &standby, 4, 1000, 90, kWide);
  repl.Stop();

  PromoteInfo promote;
  ASSERT_TRUE(standby.Promote(&promote).ok());
  EXPECT_FALSE(promote.full_restore);
  EXPECT_EQ(promote.replayed_epochs, 3u);
  EXPECT_GT(promote.replay_millis, 0.0);
  const double promote_stages = promote.stop_millis +
                                promote.validate_millis +
                                promote.replay_millis;
  EXPECT_NEAR(promote_stages, promote.promote_millis,
              0.05 * promote.promote_millis);
  EXPECT_GT(promote.recount_millis, 0.0);
  EXPECT_LT(promote.recount_millis, kShards * promote.replay_millis);

  auto verifier = BuildService({}, 1, kWide);
  ShardedDetectionService::RestoreInfo restored;
  ASSERT_TRUE(verifier->RestoreState(fdir, &restored).ok());
  const double restore_stages =
      restored.validate_millis + restored.replay_millis;
  EXPECT_NEAR(restore_stages, restored.restore_millis,
              0.05 * restored.restore_millis);
  EXPECT_GT(restored.recount_millis, 0.0);
  EXPECT_LT(restored.recount_millis, kShards * restored.replay_millis);
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
