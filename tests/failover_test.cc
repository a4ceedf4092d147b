// Failover crash drill (ctest label `stress`): a REAL primary process is
// SIGKILLed mid-ingest while a fault-injecting shim mangles the client's
// frames, and the warm standby in this process must
//
//   1. notice the loss within one lease interval,
//   2. promote to a state bit-identical to the primary's last sealed
//      epoch (checked against a fresh restore of the primary's own
//      checkpoint directory), and
//   3. absorb the client's resend of every non-durable batch exactly
//      once (sequence dedup seeded from the replicated seqmap).
//
// The primary runs in a forked child so SIGKILL is a genuine crash: no
// destructors, no flushes, sockets torn mid-stream. The fork happens
// before this process creates any thread (services, standby, client all
// come after), which keeps the drill well-defined under ASan and TSan.
// Parent and child talk over two pipes with a one-letter command
// protocol; the child exits on pipe EOF, so a parent assertion failure
// never leaks an orphan.

#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metrics/semantics.h"
#include "net/faulty_transport.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/replicator.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade::net {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 96;
constexpr std::uint64_t kStreamId = 7;

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
  const fs::path dir = fs::temp_directory_path() / "spade_failover" / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Both processes derive the same edge stream from the same seeds.
const std::vector<Edge> PrimaryInitialEdges() { return MakeEdges(64, 40); }

// ---------------------------------------------------------------------------
// Pipe plumbing. Text lines child -> parent, single command bytes
// parent -> child.

bool WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (without the newline); "" on EOF/error.
std::string ReadLine(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return "";
    if (c == '\n') return line;
    line.push_back(c);
  }
}

// ---------------------------------------------------------------------------
// Child: the primary process. Never returns; never touches gtest state.

[[noreturn]] void ChildMain(int cmd_fd, int out_fd, const std::string& pdir) {
  auto service = BuildService(PrimaryInitialEdges());

  IngestServer server(service.get());
  if (!server.Start().ok()) _exit(2);

  Replicator repl(service.get(), &server, pdir);
  if (!repl.Start().ok()) _exit(2);

  char line[64];
  std::snprintf(line, sizeof(line), "P %d %d\n", server.port(), repl.port());
  if (!WriteAll(out_fd, line)) _exit(2);

  char cmd = 0;
  while (::read(cmd_fd, &cmd, 1) == 1) {
    switch (cmd) {
      case 'h': {  // has-follower probe
        std::snprintf(line, sizeof(line), "H %d\n",
                      repl.HasFollower() ? 1 : 0);
        if (!WriteAll(out_fd, line)) _exit(2);
        break;
      }
      case 's': {  // seal + replicate one epoch; reply once durable
        ShardedDetectionService::SaveInfo info;
        const Status st =
            repl.SealAndShip(ShardedDetectionService::SaveMode::kAuto, &info);
        if (st.ok()) {
          std::snprintf(line, sizeof(line), "S %llu\n",
                        static_cast<unsigned long long>(info.epoch));
        } else {
          std::snprintf(line, sizeof(line), "E\n");
        }
        if (!WriteAll(out_fd, line)) _exit(2);
        break;
      }
      default:
        _exit(2);
    }
  }
  // Pipe EOF: the parent is gone (assertion failure or normal teardown
  // where it decided not to kill us). Crash-free exit path for hygiene;
  // the drill itself always SIGKILLs before this runs.
  _exit(0);
}

struct ChildGuard {
  pid_t pid = -1;
  bool reaped = false;
  void Reap() {
    if (pid > 0 && !reaped) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      reaped = true;
    }
  }
  ~ChildGuard() { Reap(); }
};

// ---------------------------------------------------------------------------

TEST(Failover, SigkillPrimaryMidIngestPromotesExactlyOnce) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string pdir = ResetWorkDir("primary");
  const std::string fdir = ResetWorkDir("follower");
  const std::string spill_dir = ResetWorkDir("spill");

  int c2p[2] = {-1, -1};  // child writes, parent reads
  int p2c[2] = {-1, -1};  // parent writes, child reads
  ASSERT_EQ(::pipe(c2p), 0);
  ASSERT_EQ(::pipe(p2c), 0);

  // Fork BEFORE any thread exists in this process: every service, server
  // and standby below is constructed on its own side of the fork.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(c2p[0]);
    ::close(p2c[1]);
    ChildMain(p2c[0], c2p[1], pdir);
  }
  ChildGuard child;
  child.pid = pid;
  ::close(c2p[1]);
  ::close(p2c[0]);
  const int from_child = c2p[0];
  const int to_child = p2c[1];

  // Primary's endpoints.
  int ingest_port = 0, repl_port = 0;
  {
    const std::string line = ReadLine(from_child);
    ASSERT_EQ(std::sscanf(line.c_str(), "P %d %d", &ingest_port, &repl_port),
              2)
        << "bad port line from child: '" << line << "'";
  }

  // Warm standby in this process, eagerly tracking the primary.
  auto follower = BuildService({});
  StandbyOptions sopts;
  sopts.primary_port = repl_port;
  sopts.eager_replay = true;
  sopts.lease_ms = 800;
  Standby standby(follower.get(), fdir, sopts);
  ASSERT_TRUE(standby.Start().ok());
  {
    bool connected = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(10'000);
    while (!connected && std::chrono::steady_clock::now() < deadline) {
      ASSERT_TRUE(WriteAll(to_child, "h"));
      const std::string line = ReadLine(from_child);
      ASSERT_FALSE(line.empty()) << "child died during follower wait";
      connected = (line == "H 1");
      if (!connected) ::usleep(20'000);
    }
    ASSERT_TRUE(connected) << "follower never connected to child primary";
  }

  // The client, with the fault shim active for the WHOLE drill (including
  // the post-failover resend). Per-connection seed variation keeps the
  // deterministic schedule from replaying the same fault against every
  // reconnect attempt.
  FaultPlan plan;
  plan.seed = 0xFA170ull;
  plan.p_drop = 0.04;
  plan.p_truncate = 0.04;
  plan.p_flip = 0.08;
  plan.p_duplicate = 0.08;
  plan.p_reorder = 0.08;
  plan.max_faults = 40;

  IngestClientOptions copts;
  copts.ports = {ingest_port};
  copts.stream_id = kStreamId;
  copts.batch_edges = 25;
  copts.send_window = 4;
  copts.spill_dir = spill_dir;
  copts.ack_timeout_ms = 100;
  auto attempt = std::make_shared<int>(0);
  copts.wrap_transport = [plan, attempt](std::unique_ptr<Connection> inner) {
    FaultPlan p = plan;
    p.seed = plan.seed + static_cast<std::uint64_t>((*attempt)++);
    return WrapFaulty(std::move(inner), p);
  };
  IngestClient client(copts);

  // The in-process reference receives the identical edge sequence.
  auto reference = BuildService(PrimaryInitialEdges());

  const auto submit_wave = [&](std::size_t count, std::uint64_t seed) {
    const std::vector<Edge> wave = MakeEdges(count, seed);
    for (const Edge& e : wave) ASSERT_TRUE(client.Submit(e).ok());
    ASSERT_TRUE(reference->SubmitBatch(wave).ok());
  };

  // Two durable epochs: the primary's last sealed state.
  std::uint64_t last_sealed_epoch = 0;
  for (std::uint64_t round = 1; round <= 2; ++round) {
    submit_wave(200, 40 + round);
    ASSERT_TRUE(client.Flush().ok());
    ASSERT_TRUE(client.WaitAcked(60'000).ok());
    ASSERT_TRUE(WriteAll(to_child, "s"));
    const std::string line = ReadLine(from_child);
    unsigned long long epoch = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "S %llu", &epoch), 1)
        << "seal round " << round << " failed: '" << line << "'";
    last_sealed_epoch = epoch;
    ASSERT_TRUE(client.WaitDurable(60'000).ok());
  }
  ASSERT_EQ(last_sealed_epoch, 2u);
  const std::uint64_t durable_seq = client.GetStats().durable_seq;
  ASSERT_GT(durable_seq, 0u);
  // Eager standby reaches the sealed epoch before the crash.
  {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(10'000);
    while (standby.applied_epoch() < last_sealed_epoch &&
           std::chrono::steady_clock::now() < deadline) {
      ::usleep(10'000);
    }
    ASSERT_EQ(standby.applied_epoch(), last_sealed_epoch);
  }

  // Mid-ingest state at the moment of the crash: one wave acked but never
  // sealed (it dies with the primary's memory), one wave still sitting in
  // the client's buffer, never even sent.
  submit_wave(120, 50);
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.WaitAcked(60'000).ok());
  submit_wave(60, 51);
  ASSERT_TRUE(client.Flush().ok());
  const std::uint64_t total_batches = client.last_sealed_seq();
  ASSERT_GT(total_batches, durable_seq);

  // Crash. No shutdown path runs in the child.
  const auto kill_time = std::chrono::steady_clock::now();
  child.Reap();

  // 1. Loss detected within one lease interval (generous slack for a
  //    loaded single-core CI box, but far below a second lease).
  ASSERT_TRUE(standby.WaitPrimaryLost(15'000));
  const double detect_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - kill_time)
          .count();
  EXPECT_LT(detect_ms, 3 * sopts.lease_ms)
      << "lease expiry took " << detect_ms << " ms";

  // 2. Promote: bit-identical to the primary's last sealed epoch.
  PromoteInfo promote;
  ASSERT_TRUE(standby.Promote(&promote).ok());
  EXPECT_EQ(promote.epoch, last_sealed_epoch);
  ASSERT_EQ(promote.seqmap.count(kStreamId), 1u);
  EXPECT_EQ(promote.seqmap.at(kStreamId), durable_seq);

  {
    auto verifier = BuildService({});
    ASSERT_TRUE(verifier->RestoreState(pdir).ok())
        << "primary's own directory no longer restores";
    ExpectServicesEqual(*verifier, *follower);
  }

  // 3. The follower becomes the primary; the client repoints and resends
  //    every batch past the durable watermark — exactly once.
  IngestServer server2(follower.get());
  server2.SeedAppliedSeqs(promote.seqmap);
  ASSERT_TRUE(server2.Start().ok());
  client.SetPorts({server2.port()});
  ASSERT_TRUE(client.WaitAcked(60'000).ok());

  ShardedDetectionService::SaveInfo seal2;
  ASSERT_TRUE(server2
                  .SealEpoch(fdir, ShardedDetectionService::SaveMode::kAuto,
                             &seal2)
                  .ok());
  server2.MarkDurable(seal2.epoch);
  ASSERT_TRUE(client.WaitDurable(60'000).ok());
  EXPECT_EQ(client.GetStats().durable_seq, total_batches);
  server2.Stop();

  const IngestServerStats sstats = server2.GetStats();
  EXPECT_EQ(sstats.batches_applied, total_batches - durable_seq)
      << "a batch was lost or double-applied across the failover";

  follower->Drain();
  reference->Drain();
  ExpectServicesEqual(*reference, *follower);
}

}  // namespace
}  // namespace spade::net
