// Replicated-ingest bench: wire throughput through the framed TCP front
// end, and failover time as a function of the staged epoch tail a standby
// must replay at Promote().
//
// Two measurements:
//
//   * wire ingest — IngestClient -> loopback TCP -> IngestServer ->
//     ShardedDetectionService, end-to-end (submit + frame + ack + apply)
//     edges/s. The in-process SubmitBatch figures in BENCH_ingest.json are
//     the upper bound; the gap is the framing + socket + dedup cost.
//
//   * failover sweep — a primary seals 1 full + T delta epochs into a
//     Standby running with eager_replay=false, so the whole delta tail is
//     staged on disk; Promote() then pays exactly the tail replay. The
//     sweep over T shows failover time ~= tail-chain replay cost (ISSUE:
//     the quantity a deployment tunes with its seal cadence). An eager
//     control run (same tail, eager_replay=true) shows the warm standby
//     promoting in ~constant time with nothing left to replay.
//
// Emits BENCH_replication.json (path = argv[1], default "."). The repo
// commits a reference copy; CI re-runs the bench and fails when the
// 8-epoch staged promote time regresses more than 30% (plus a small
// absolute slack for timer noise) against the committed reference.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_meta.h"
#include "common/rng.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/replicator.h"
#include "service/sharded_detection_service.h"

namespace spade::bench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;
constexpr std::size_t kVertices = 8192;
constexpr std::size_t kEdgesPerEpoch = 20'000;
constexpr std::size_t kWireEdges = 200'000;
constexpr std::size_t kDetectEvery = 2048;
constexpr std::size_t kWhaleSize = 8;
constexpr std::size_t kWhaleEdges = 100;
constexpr double kWhaleWeight = 40.0;

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
    const Status st = spade.BuildGraph(kVertices, parts[s]);
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = ParityPartitioner();
  options.shard.detect_every = kDetectEvery;
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

/// One dense high-weight clique per shard (vertices congruent mod
/// kShards stay shard-local under the parity partitioner). Exactly the
/// bench_ingest device: the whales pin the benign-classification
/// threshold well above the random traffic, so stream edges buffer
/// benignly instead of each forcing an urgent detection — the bench then
/// measures the wire/replication path, not detection cost.
std::vector<Edge> MakeWhales() {
  Rng rng(99);
  std::vector<Edge> edges;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t i = 0; i < kWhaleEdges; ++i) {
      const auto a =
          static_cast<VertexId>(s + kShards * rng.NextBounded(kWhaleSize));
      auto b =
          static_cast<VertexId>(s + kShards * rng.NextBounded(kWhaleSize));
      while (b == a) {
        b = static_cast<VertexId>(s + kShards * rng.NextBounded(kWhaleSize));
      }
      edges.push_back(
          Edge{a, b, kWhaleWeight * (0.9 + 0.2 * rng.NextDouble()), 0});
    }
  }
  return edges;
}

std::vector<Edge> MakeEdges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(kVertices));
    auto d = static_cast<VertexId>(rng.NextBounded(kVertices));
    while (d == s) d = static_cast<VertexId>(rng.NextBounded(kVertices));
    edges.push_back(Edge{s, d, 1.0 + 3.0 * rng.NextDouble(), 0});
  }
  return edges;
}

std::string ResetWorkDir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / "spade_bench_repl" / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

bool PollFor(int timeout_ms, const std::function<bool()>& fn) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

// ---------------------------------------------------------------------------

struct WireEntry {
  double wall_s = 0.0;
  double eps = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t resent = 0;
};

WireEntry RunWireIngest() {
  auto service = BuildService(MakeWhales());
  net::IngestServer server(service.get());
  if (!server.Start().ok()) std::exit(1);

  net::IngestClientOptions copts;
  copts.ports = {server.port()};
  copts.batch_edges = 512;
  copts.send_window = 16;
  net::IngestClient client(copts);

  const std::vector<Edge> stream = MakeEdges(kWireEdges, 7);
  const auto start = std::chrono::steady_clock::now();
  for (const Edge& e : stream) (void)client.Submit(e);
  (void)client.Flush();
  if (!client.WaitAcked(120'000).ok()) {
    std::fprintf(stderr, "wire ingest never fully acked\n");
    std::exit(1);
  }
  service->Drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  WireEntry e;
  e.wall_s = wall;
  e.eps = static_cast<double>(stream.size()) / wall;
  e.batches = server.GetStats().batches_applied;
  e.resent = client.GetStats().resent_batches;
  server.Stop();
  return e;
}

struct FailoverEntry {
  std::size_t staged_epochs = 0;
  bool eager = false;
  std::uint64_t replayed_epochs = 0;
  std::uint64_t replayed_edges = 0;
  bool full_restore = false;
  double promote_ms = 0.0;
  double ms_per_kedge = 0.0;
};

FailoverEntry RunFailover(std::size_t staged_epochs, bool eager) {
  const std::string pdir = ResetWorkDir("primary");
  const std::string fdir = ResetWorkDir("follower");
  std::vector<Edge> initial = MakeWhales();
  const std::vector<Edge> seed_edges = MakeEdges(kEdgesPerEpoch, 11);
  initial.insert(initial.end(), seed_edges.begin(), seed_edges.end());
  auto primary = BuildService(initial);
  auto follower = BuildService({});

  net::Replicator repl(primary.get(), nullptr, pdir);
  if (!repl.Start().ok()) std::exit(1);

  net::StandbyOptions sopts;
  sopts.primary_port = repl.port();
  sopts.eager_replay = eager;
  sopts.lease_ms = 600'000;  // promotion is driven explicitly here
  net::Standby standby(follower.get(), fdir, sopts);
  if (!standby.Start().ok()) std::exit(1);
  if (!PollFor(10'000, [&] { return repl.HasFollower(); })) std::exit(1);

  const std::uint64_t last_epoch = 1 + staged_epochs;
  for (std::uint64_t e = 1; e <= last_epoch; ++e) {
    if (e > 1) {
      (void)primary->SubmitBatch(MakeEdges(kEdgesPerEpoch, 100 + e));
      primary->Drain();
    }
    ShardedDetectionService::SaveInfo info;
    const Status st = repl.SealAndShip(
        e == 1 ? ShardedDetectionService::SaveMode::kFull
               : ShardedDetectionService::SaveMode::kDelta,
        &info);
    if (!st.ok()) {
      std::fprintf(stderr, "SealAndShip epoch %llu: %s\n",
                   static_cast<unsigned long long>(e), st.ToString().c_str());
      std::exit(1);
    }
  }
  if (!PollFor(60'000,
               [&] { return standby.committed_epoch() == last_epoch; })) {
    std::exit(1);
  }
  if (eager &&
      !PollFor(60'000, [&] { return standby.applied_epoch() == last_epoch; })) {
    std::exit(1);
  }
  repl.Stop();  // primary "dies"

  net::PromoteInfo promote;
  if (!standby.Promote(&promote).ok()) std::exit(1);
  if (promote.epoch != last_epoch) {
    std::fprintf(stderr, "promoted to epoch %llu, wanted %llu\n",
                 static_cast<unsigned long long>(promote.epoch),
                 static_cast<unsigned long long>(last_epoch));
    std::exit(1);
  }

  FailoverEntry entry;
  entry.staged_epochs = staged_epochs;
  entry.eager = eager;
  entry.replayed_epochs = promote.replayed_epochs;
  entry.replayed_edges = promote.replayed_edges;
  entry.full_restore = promote.full_restore;
  entry.promote_ms = promote.promote_millis;
  entry.ms_per_kedge =
      promote.replayed_edges > 0
          ? promote.promote_millis * 1000.0 /
                static_cast<double>(promote.replayed_edges)
          : 0.0;
  return entry;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  using namespace spade::bench;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  std::printf("# replication bench: %zu shards, %zu vertices, %zu edges per "
              "epoch, %u core(s)\n\n",
              kShards, kVertices, kEdgesPerEpoch, CoresAvailable());

  const WireEntry wire = RunWireIngest();
  std::printf("wire ingest: %zu edges in %.3f s -> %.0f edges/s "
              "(%llu batches, %llu resent)\n\n",
              kWireEdges, wire.wall_s, wire.eps,
              static_cast<unsigned long long>(wire.batches),
              static_cast<unsigned long long>(wire.resent));

  std::printf("%8s %6s %9s %10s %12s %12s\n", "staged", "eager", "replayed",
              "edges", "promote-ms", "ms/1k-edge");
  (void)RunFailover(1, false);  // warm-up (allocator, page cache)

  std::vector<FailoverEntry> entries;
  for (const std::size_t staged : {1, 2, 4, 8}) {
    entries.push_back(RunFailover(staged, /*eager=*/false));
  }
  entries.push_back(RunFailover(8, /*eager=*/true));  // warm-standby control
  for (const FailoverEntry& e : entries) {
    std::printf("%8zu %6s %9llu %10llu %12.2f %12.3f\n", e.staged_epochs,
                e.eager ? "yes" : "no",
                static_cast<unsigned long long>(e.replayed_epochs),
                static_cast<unsigned long long>(e.replayed_edges),
                e.promote_ms, e.ms_per_kedge);
  }

  const std::string path = out_dir + "/BENCH_replication.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfg[192];
    std::snprintf(cfg, sizeof(cfg),
                  "{\"shards\": %zu, \"vertices\": %zu, "
                  "\"edges_per_epoch\": %zu, \"wire_edges\": %zu, "
                  "\"detect_every\": %zu, \"semantics\": \"DW\"}",
                  kShards, kVertices, kEdgesPerEpoch, kWireEdges,
                  kDetectEvery);
    WriteBenchMeta(f, cfg);
  }
  std::fprintf(f,
               "  \"wire_ingest\": {\"edges\": %zu, \"wall_s\": %.4f, "
               "\"edges_per_s\": %.0f, \"batches\": %llu, "
               "\"resent_batches\": %llu},\n",
               kWireEdges, wire.wall_s, wire.eps,
               static_cast<unsigned long long>(wire.batches),
               static_cast<unsigned long long>(wire.resent));
  std::fprintf(f, "  \"failover\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const FailoverEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"staged_epochs\": %zu, \"eager\": %s, "
                 "\"replayed_epochs\": %llu, \"replayed_edges\": %llu, "
                 "\"full_restore\": %s, \"promote_ms\": %.2f, "
                 "\"ms_per_1k_edges\": %.3f}%s\n",
                 e.staged_epochs, e.eager ? "true" : "false",
                 static_cast<unsigned long long>(e.replayed_epochs),
                 static_cast<unsigned long long>(e.replayed_edges),
                 e.full_restore ? "true" : "false", e.promote_ms,
                 e.ms_per_kedge, i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
