// Epoch replication: ships sealed checkpoint epochs from a primary to one
// warm-standby follower over the CRC-framed wire (net/wire_format.h), and
// promotes the follower into a primary when the lease expires.
//
// Primary side (Replicator):
//   - listens on a replication port; at most one follower session at a
//     time (a newer connection replaces the older one);
//   - on REPLICA_HELLO, catches the follower up by shipping every file the
//     current manifest references (plus the newest seqmap) as EPOCH_FILE
//     frames, then an EPOCH_COMMIT carrying the manifest bytes;
//   - SealAndShip() = IngestServer::SealEpoch (atomic seqmap + checkpoint)
//     -> ship the files that are new this epoch -> wait for the follower's
//     EPOCH_ACK -> IngestServer::MarkDurable. Durability is follower-acked
//     by definition; if no follower is connected the seal still succeeds
//     but nothing becomes durable (clients keep their resend buffers);
//   - heartbeats ride the same connection so the follower's lease logic
//     sees liveness even between seals.
//
// Follower side (Standby):
//   - connects (with retry) to the primary's replication port, stages
//     EPOCH_FILE payloads into its own checkpoint directory via atomic
//     writes (the frame CRC covered the bytes in flight; the files' own
//     CRC trailers are re-validated by the restore path on replay);
//   - on EPOCH_COMMIT, installs the manifest atomically and acks. The
//     first committed epoch is always applied immediately (full
//     RestoreState) so the standby is warm; later epochs are applied as
//     they commit when `eager_replay` is set, or staged on disk and
//     replayed by Promote() otherwise (so failover time == tail-chain
//     replay cost, measurable). Either way it is one
//     ShardedDetectionService::ApplyChainRange over every committed but
//     unapplied epoch, replayed in parallel on RestoreState's pool;
//   - a lease monitor timestamps every received frame; WaitPrimaryLost()
//     reports when the primary has been silent for a full lease interval;
//   - Promote() stops replication at once, applies the staged tail
//     (falling back to a full RestoreState when the ranged apply is not
//     applicable or fails), loads the newest replicated seqmap, and
//     reports what it did, stage by stage. The caller then seeds its own
//     IngestServer with the seqmap and starts accepting writes
//     (DESIGN.md §7).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/ingest_server.h"
#include "net/transport.h"
#include "net/wire_format.h"
#include "service/sharded_detection_service.h"

namespace spade::net {

struct ReplicatorOptions {
  /// Replication listen port (0 = kernel-assigned; read back with port()).
  int port = 0;
  /// Poll granularity of accept/receive loops.
  int poll_ms = 50;
  /// Heartbeat cadence on an idle follower connection. Must be well under
  /// the follower's lease_ms.
  int heartbeat_ms = 100;
  /// How long SealAndShip waits for the follower's EPOCH_ACK before
  /// reporting the epoch shipped-but-not-durable.
  int ack_timeout_ms = 2000;
};

struct ReplicatorStats {
  std::uint64_t epochs_shipped = 0;
  std::uint64_t epochs_acked = 0;
  std::uint64_t files_shipped = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t follower_sessions = 0;
};

/// Primary-side shipper. `service` (and `ingest`, when given) must outlive
/// the replicator. `dir` is the primary's checkpoint directory — the same
/// one SealAndShip seals into.
class Replicator {
 public:
  Replicator(ShardedDetectionService* service, IngestServer* ingest,
             std::string dir, ReplicatorOptions options = {});
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  Status Start();
  void Stop();
  int port() const { return listener_.port(); }

  /// Seals one epoch and replicates it: capture seqmap + SaveState (via
  /// IngestServer::SealEpoch when an ingest server is attached, plain
  /// SaveState otherwise), ship the new files, wait for the follower ack,
  /// then mark the epoch durable. Returns OK when the epoch is durable on
  /// the follower; kFailedPrecondition when no follower is connected;
  /// kIOError when the follower did not ack in time. In the non-OK cases
  /// the local seal itself still succeeded whenever `info` was filled.
  Status SealAndShip(ShardedDetectionService::SaveMode mode,
                     ShardedDetectionService::SaveInfo* info = nullptr);

  /// True when a follower session is currently established.
  bool HasFollower();

  /// Highest epoch the follower has acked.
  std::uint64_t acked_epoch();

  ReplicatorStats GetStats();

 private:
  struct FollowerSession {
    std::unique_ptr<Connection> conn;
    /// File names already shipped on this connection; a file is never
    /// shipped twice to the same follower (epoch-stamped names are
    /// immutable once written).
    std::set<std::string> shipped;
  };

  void AcceptLoop();
  void ServeFollower(std::shared_ptr<FollowerSession> session);
  /// Ships every manifest-referenced file not yet shipped on `session`,
  /// plus the epoch's seqmap, then the commit frame. Caller must NOT hold
  /// send_mutex_.
  Status ShipCurrentManifest(FollowerSession* session);
  Status SendFrame(FollowerSession* session, const std::string& frame);

  ShardedDetectionService* service_;
  IngestServer* ingest_;  // may be null (replication without wire ingest)
  std::string dir_;
  ReplicatorOptions options_;
  TcpListener listener_;
  std::atomic<bool> running_{false};
  /// Accepts and serves (inline, one at a time) the follower session.
  std::thread acceptor_;

  /// Serializes all sends on the follower connection (serve-thread
  /// heartbeats and catch-up vs. driver-thread SealAndShip).
  std::mutex send_mutex_;
  std::mutex session_mutex_;
  std::shared_ptr<FollowerSession> session_;

  std::mutex ack_mutex_;
  std::condition_variable ack_cv_;
  std::uint64_t acked_epoch_ = 0;

  std::mutex stats_mutex_;
  ReplicatorStats stats_;
};

struct StandbyOptions {
  /// Primary's replication port.
  int primary_port = 0;
  int poll_ms = 50;
  /// Primary silent for this long => lease expired, promotion is safe.
  int lease_ms = 1000;
  /// Backoff between failed connection attempts to the primary.
  int connect_backoff_ms = 50;
  /// Apply each committed epoch as it arrives (warm standby tracks the
  /// primary within one epoch). When false, epochs beyond the first stage
  /// on disk and Promote() pays the whole tail — the configuration the
  /// failover bench uses to measure replay cost.
  bool eager_replay = true;
};

struct PromoteInfo {
  /// Epoch the service ended at: the last committed epoch, or the last
  /// durable one when a full restore found the staged chain torn.
  std::uint64_t epoch = 0;
  /// Epochs and delta edges replayed by the call that produced the final
  /// state (after a fallback, by the full RestoreState itself).
  std::uint64_t replayed_epochs = 0;
  std::uint64_t replayed_edges = 0;
  /// Merges that call's replay ran (RestoreInfo::replay_merges): at most 2
  /// per partition.
  std::uint64_t replay_merges = 0;
  /// True when Promote had to fall back to a full RestoreState.
  bool full_restore = false;
  double promote_millis = 0.0;
  /// Stage split of promote_millis: stopping the receiver, then the
  /// RestoreInfo stages summed over the apply calls made (validate also
  /// holds the standby's own manifest and seqmap reads). recount_millis is
  /// the part of replay_millis spent recounting boundary weights.
  double stop_millis = 0.0;
  double validate_millis = 0.0;
  double replay_millis = 0.0;
  double recount_millis = 0.0;
  /// Stream watermarks from the newest replicated seqmap; seed the new
  /// primary's IngestServer with these before accepting writes.
  SeqMap seqmap;
};

struct StandbyStats {
  std::uint64_t files_staged = 0;
  std::uint64_t bytes_staged = 0;
  std::uint64_t epochs_committed = 0;
  std::uint64_t epochs_applied = 0;  // applied eagerly by the receiver
  std::uint64_t reconnects = 0;
  std::uint64_t corrupt_frames = 0;
};

/// Follower side. `service` must outlive the standby; `dir` is the
/// follower's own checkpoint directory (staging area and restore source).
class Standby {
 public:
  Standby(ShardedDetectionService* service, std::string dir,
          StandbyOptions options);
  ~Standby();

  Standby(const Standby&) = delete;
  Standby& operator=(const Standby&) = delete;

  Status Start();
  void Stop();

  /// Blocks until the primary has been silent for a full lease interval
  /// (returns true) or `timeout_ms` elapses first (false).
  bool WaitPrimaryLost(int timeout_ms);

  /// Stops replication and turns the staged state into a live primary
  /// state: replays every committed-but-unapplied epoch, loads the newest
  /// seqmap, reports timings. Idempotent-hostile by design: call once.
  Status Promote(PromoteInfo* info);

  /// Highest epoch applied to the service so far.
  std::uint64_t applied_epoch();
  /// Highest epoch committed (manifest installed) so far.
  std::uint64_t committed_epoch();

  StandbyStats GetStats();

 private:
  void ReceiveLoop();
  void HandleFile(const EpochFilePayload& file);
  void HandleCommit(const EpochCommitPayload& commit);
  /// When `target` is past the applied epoch, applies every committed
  /// epoch: one ApplyChainRange when they extend the applied state, a full
  /// RestoreState when they do not or that call fails. Fills `info`'s
  /// counts, full_restore and stage times. Caller holds apply_mutex_.
  Status ApplyThroughLocked(std::uint64_t target, PromoteInfo* info);

  ShardedDetectionService* service_;
  std::string dir_;
  StandbyOptions options_;
  std::atomic<bool> running_{false};
  std::thread receiver_;
  /// Stop() closes the live connection and ends the backoff wait.
  std::mutex conn_mutex_;
  std::condition_variable stop_cv_;
  Connection* live_conn_ = nullptr;  // guarded by conn_mutex_

  /// Milliseconds-since-steady-epoch of the last frame from the primary.
  std::atomic<std::int64_t> last_frame_ms_{0};

  std::mutex apply_mutex_;
  std::uint64_t committed_epoch_ = 0;
  std::uint64_t applied_epoch_ = 0;
  std::uint64_t applied_base_epoch_ = 0;
  bool needs_full_restore_ = false;

  std::mutex stats_mutex_;
  StandbyStats stats_;
};

}  // namespace spade::net
