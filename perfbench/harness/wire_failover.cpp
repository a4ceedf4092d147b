// wire-failover: sparse, mostly benign traffic over loopback TCP from
// IngestClient to IngestServer into a 2-worker primary. The primary seals a
// full epoch during set-up, then one delta epoch per kSealEvery edges via
// Replicator::SealAndShip to a Standby with eager replay off, so the whole
// delta chain stages on the follower's disk. The round ends with Promote(),
// which replays that chain — the only workload where net works and the only
// one that replays a staged delta chain.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/replicator.h"
#include "service/sharded_detection_service.h"
#include "traffic.h"

namespace perfbench {
namespace {

using spade::Edge;
using Service = spade::ShardedDetectionService;

constexpr std::size_t kWireEdges = 48000;
constexpr std::size_t kSealEvery = 3000;
constexpr int kWaitMs = 60000;

TenantTrafficConfig TrafficConfig() {
  TenantTrafficConfig c;
  c.initial_per_tenant = 500;  // sparse
  c.stream_edges = kWireEdges;
  c.ring_every = 0;  // benign traffic only
  return c;
}

std::unique_ptr<Service> MakeChainFleet(const std::vector<Edge>& initial,
                                        Report& report) {
  spade::ShardedDetectionServiceOptions options;
  // Keep every epoch a delta: Promote then replays the whole staged chain.
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  return MakeFleet(initial, TrafficConfig(), std::move(options), report);
}

bool PollFor(int timeout_ms, const std::function<bool()>& done) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// Members are destroyed in reverse order: the client disconnects first,
// then the standby, replicator and server stop, and the fleets go last.
struct WireState {
  TenantTraffic traffic;
  std::string primary_dir;
  std::string follower_dir;
  std::unique_ptr<Service> primary;
  std::unique_ptr<Service> follower;
  std::unique_ptr<spade::net::IngestServer> server;
  std::unique_ptr<spade::net::Replicator> replicator;
  std::unique_ptr<spade::net::Standby> standby;
  std::unique_ptr<spade::net::IngestClient> client;
  std::uint64_t epoch = 0;
};

std::unique_ptr<WireState> Setup(const RunConfig& cfg, Report& report) {
  auto st = std::make_unique<WireState>();
  st->traffic = MakeTenantTraffic(TrafficConfig(), cfg.seed);
  // The previous round's files are deleted here, before they are written
  // back to disk; keeping them made every later seal wait behind their
  // writeback.
  st->primary_dir = cfg.work_dir + "/wire-primary";
  st->follower_dir = cfg.work_dir + "/wire-follower";
  std::filesystem::remove_all(st->primary_dir);
  std::filesystem::remove_all(st->follower_dir);
  st->primary = MakeChainFleet(st->traffic.initial, report);
  st->follower = MakeChainFleet({}, report);
  if (!st->primary || !st->follower) return nullptr;

  st->server = std::make_unique<spade::net::IngestServer>(st->primary.get());
  if (!report.Op(st->server->Start(), "IngestServer::Start")) return nullptr;
  st->replicator = std::make_unique<spade::net::Replicator>(
      st->primary.get(), st->server.get(), st->primary_dir);
  if (!report.Op(st->replicator->Start(), "Replicator::Start")) return nullptr;
  spade::net::StandbyOptions sopts;
  sopts.primary_port = st->replicator->port();
  sopts.eager_replay = false;
  sopts.lease_ms = 600000;  // promotion is driven explicitly
  st->standby = std::make_unique<spade::net::Standby>(
      st->follower.get(), st->follower_dir, sopts);
  if (!report.Op(st->standby->Start(), "Standby::Start")) return nullptr;
  if (!report.Check(PollFor(kWaitMs, [&] { return st->replicator->HasFollower(); }),
                    "wire-failover standby connects")) {
    return nullptr;
  }
  // The full base epoch; the standby restores it right away (warm start).
  st->epoch = 1;
  if (!report.Op(st->replicator->SealAndShip(Service::SaveMode::kFull),
                 "SealAndShip(full)") ||
      !report.Check(PollFor(kWaitMs, [&] {
                      return st->standby->applied_epoch() == 1;
                    }),
                    "wire-failover standby applies the base epoch")) {
    return nullptr;
  }
  spade::net::IngestClientOptions copts;
  copts.ports = {st->server->port()};
  copts.batch_edges = 512;
  copts.send_window = 16;
  st->client = std::make_unique<spade::net::IngestClient>(copts);
  return st;
}

void Round(WireState& st, Report& report, Trace& trace) {
  spade::net::IngestClient& client = *st.client;
  const std::span<const Edge> stream(st.traffic.stream);
  Trace::Scope workload(&trace, "bench", "wire-failover");
  {
    // A segment's time covers its Submit, Flush, WaitAcked and the Drain
    // that applies it; the seal after it is timed on its own.
    Trace::Scope phase(&trace, "bench", "ingest");
    double ingest_s = 0.0;
    for (std::size_t i = 0; i < stream.size(); i += kSealEvery) {
      const auto segment =
          stream.subspan(i, std::min(kSealEvery, stream.size() - i));
      const std::uint32_t group = trace.NewGroup();
      const auto t0 = Clock::now();
      spade::Status s;
      {
        Trace::Scope span(&trace, "net", "IngestClient::Submit", group);
        for (const Edge& e : segment) {
          s = client.Submit(e);
          if (!s.ok()) break;
        }
      }
      if (!report.Op(s, "IngestClient::Submit")) return;
      {
        Trace::Scope span(&trace, "net", "IngestClient::Flush", group);
        s = client.Flush();
      }
      if (!report.Op(s, "IngestClient::Flush")) return;
      const auto a0 = Clock::now();
      {
        Trace::Scope span(&trace, "net", "IngestClient::WaitAcked", group);
        s = client.WaitAcked(kWaitMs);
      }
      report.Add("wait_acked_ms", MillisBetween(a0, Clock::now()));
      if (!report.Op(s, "IngestClient::WaitAcked")) return;
      {
        Trace::Scope span(&trace, "service", "Drain", group);
        st.primary->Drain();
      }
      const auto c0 = Clock::now();
      ingest_s += SecondsBetween(t0, c0);
      report.Add("segment_ms", MillisBetween(t0, c0));
      Service::SaveInfo info;
      {
        Trace::Scope span(&trace, "net", "Replicator::SealAndShip", group);
        s = st.replicator->SealAndShip(Service::SaveMode::kDelta, &info);
      }
      report.Add("checkpoint_ms", MillisBetween(c0, Clock::now()));
      report.Add("checkpoint_bytes", static_cast<double>(info.bytes_written));
      if (!report.Op(s, "Replicator::SealAndShip")) return;
      ++st.epoch;
    }
    report.Add("ingest_s", ingest_s);
    report.Add("ingest_edges", static_cast<double>(stream.size()));
  }

  // Failover: the primary's replication stops; the standby replays every
  // staged epoch.
  const std::vector<ShardImage> expected = ShardImages(*st.primary);
  RecordFleetStats(*st.primary, report);
  const spade::net::IngestServerStats server = st.server->GetStats();
  const spade::net::IngestClientStats cstats = client.GetStats();
  const spade::net::ReplicatorStats rstats = st.replicator->GetStats();
  report.Check(PollFor(kWaitMs, [&] {
                 return st.standby->committed_epoch() == st.epoch;
               }),
               "wire-failover standby commits every sealed epoch");
  st.replicator->Stop();
  spade::net::PromoteInfo promote;
  spade::Status s;
  const auto p0 = Clock::now();
  {
    Trace::Scope phase(&trace, "bench", "failover");
    Trace::Scope span(&trace, "net", "Standby::Promote", trace.NewGroup());
    s = st.standby->Promote(&promote);
  }
  report.Add("failover_ms", MillisBetween(p0, Clock::now()));
  if (!report.Op(s, "Standby::Promote")) return;
  report.Add("replayed_edges", static_cast<double>(promote.replayed_edges));
  report.Add("replayed_epochs", static_cast<double>(promote.replayed_epochs));

  report.Set("batches_sent", static_cast<double>(cstats.batches_sent));
  report.Set("resent_batches", static_cast<double>(cstats.resent_batches));
  report.Set("duplicate_batches",
             static_cast<double>(server.duplicate_batches));
  report.Set("gap_batches", static_cast<double>(server.gap_batches));
  report.Set("epochs_shipped", static_cast<double>(rstats.epochs_shipped));
  report.Set("bytes_shipped", static_cast<double>(rstats.bytes_shipped));

  // Gate: the promoted follower equals the primary at the last sealed
  // epoch, with no lost or duplicated batch.
  const std::uint64_t last_seq = client.last_sealed_seq();
  const auto seq = promote.seqmap.find(1);  // IngestClientOptions::stream_id
  report.Check(promote.epoch == st.epoch,
               "wire-failover promoted to epoch " +
                   std::to_string(promote.epoch) + " of " +
                   std::to_string(st.epoch));
  report.Check(server.duplicate_batches == 0 && server.gap_batches == 0 &&
                   server.edges_applied == stream.size() &&
                   server.batches_applied == last_seq &&
                   seq != promote.seqmap.end() && seq->second == last_seq,
               "wire-failover applied every batch exactly once (" +
                   std::to_string(server.batches_applied) + " of " +
                   std::to_string(last_seq) + ")");
  const std::vector<ShardImage> promoted = ShardImages(*st.follower);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string why;
    report.Check(promoted[i].edges == expected[i].edges &&
                     SameCommunity(promoted[i].community,
                                   expected[i].community, 0.0, &why),
                 "wire-failover promoted shard " + std::to_string(i) +
                     " == primary: " + why);
  }
}

}  // namespace

void RunWireFailover(const RunConfig& cfg, Report& report, Trace& trace) {
  RunRounds<WireState>(
      cfg, report, trace, [&] { return Setup(cfg, report); },
      [&](WireState& st) { Round(st, report, trace); });
  std::filesystem::remove_all(cfg.work_dir + "/wire-primary");
  std::filesystem::remove_all(cfg.work_dir + "/wire-follower");
}

}  // namespace perfbench
