// IngestServer: the wire front end of a primary. Accepts TCP connections,
// decodes CRC-framed BATCH frames (net/wire_format.h) and feeds them to a
// ShardedDetectionService through the same SubmitBatch path in-process
// producers use.
//
// Exactly-once admission: every ingest stream (client) owns a monotonic
// batch sequence starting at 1. The server keeps, per stream, an
// `applied` watermark (highest batch submitted to the service) and a
// `durable` watermark (highest batch included in a replicated sealed
// epoch). A batch is applied only when its seq is exactly applied+1, and
// then whole or not at all (ShardedDetectionService::SubmitBatch without
// `enqueued`): a refused one leaves the watermark, and the service, as
// they were. Anything at or below the watermark is acked as a duplicate
// without touching the service, anything beyond the successor is a gap (a
// reordered or lost predecessor) and is acked-but-not-applied so the
// client resends from the watermark. Both watermarks ride on every ACK,
// so a client retrying through timeouts, duplicating networks and
// reconnects applies each batch exactly once.
//
// Seal protocol (the replication hinge): SealEpoch() atomically captures
// every stream's applied watermark AND checkpoints the service — an
// exclusive lock excludes batch application for the capture, so the
// seqmap written beside the manifest describes exactly the stream prefix
// the sealed epoch contains. MarkDurable(epoch) (called by the replicator
// once a follower acked the epoch) then advances the durable watermarks
// from that seal's captured map. A promoted follower seeds its own
// server's watermarks from the replicated seqmap (SeedAppliedSeqs), which
// closes the failover loop: clients resend everything past `durable`, the
// new primary dedups everything at or below the seeded watermark, and no
// batch is lost or applied twice (DESIGN.md §7).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "net/wire_format.h"
#include "service/sharded_detection_service.h"

namespace spade::net {

struct IngestServerOptions {
  /// Listen port (0 = kernel-assigned; read back with port()).
  int port = 0;
  /// Poll granularity of the accept and per-connection receive loops; also
  /// bounds how long Stop() waits for a loop to notice.
  int poll_ms = 50;
};

struct IngestServerStats {
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t edges_applied = 0;
  /// Batches at or below the stream's applied watermark (acked, not
  /// applied again).
  std::uint64_t duplicate_batches = 0;
  /// Batches past the watermark's successor: a predecessor was lost or
  /// reordered on the way.
  std::uint64_t gap_batches = 0;
  /// Batches at exactly the successor that the service refused (a full
  /// queue, a stopping fleet, or a shard's part above max_queue); none of
  /// their edges was applied and the client resends them.
  std::uint64_t refused_batches = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t resync_bytes = 0;
};

class IngestServer {
 public:
  /// `service` must outlive the server. Nothing listens until Start().
  IngestServer(ShardedDetectionService* service,
               IngestServerOptions options = {});
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds, listens and spawns the acceptor thread.
  Status Start();

  /// Closes the listener and every live connection; joins all threads.
  /// Idempotent.
  void Stop();

  /// Port actually bound (valid after Start()).
  int port() const { return listener_.port(); }

  /// Seals a checkpoint epoch: captures every stream's applied watermark
  /// and runs service->SaveState(dir, mode) under an exclusive lock that
  /// excludes batch application, then writes the captured seqmap beside
  /// the manifest as ingest.seqmap-<epoch>. The captured map is retained
  /// until MarkDurable consumes it.
  Status SealEpoch(const std::string& dir,
                   ShardedDetectionService::SaveMode mode,
                   ShardedDetectionService::SaveInfo* info = nullptr);

  /// Advances the durable watermarks to the seqs captured by the seal of
  /// `epoch` (no-op for an unknown epoch). Called by the replicator after
  /// the follower acked the epoch; without a replicator, callers may
  /// invoke it directly after SealEpoch to treat local disk as durable.
  void MarkDurable(std::uint64_t epoch);

  /// Seeds per-stream applied+durable watermarks from a replicated seqmap
  /// (promotion path). Call before Start().
  void SeedAppliedSeqs(const SeqMap& seqs);

  IngestServerStats GetStats() const;

 private:
  struct StreamState {
    std::mutex mutex;
    std::uint64_t applied = 0;
    std::uint64_t durable = 0;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  StreamState* GetStream(std::uint64_t stream_id);

  ShardedDetectionService* service_;
  IngestServerOptions options_;
  TcpListener listener_;
  std::atomic<bool> running_{false};

  std::thread acceptor_;
  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::thread> handlers_;

  std::mutex streams_mutex_;
  std::map<std::uint64_t, std::unique_ptr<StreamState>> streams_;

  /// Batch handlers hold it shared across dedup-check + SubmitBatch +
  /// watermark advance; SealEpoch holds it exclusive across capture +
  /// SaveState. That is the whole exactly-once-across-failover argument:
  /// no batch can land between the seqmap capture and the checkpoint it
  /// describes.
  std::shared_mutex apply_mutex_;

  std::mutex seals_mutex_;
  std::map<std::uint64_t, SeqMap> sealed_seqmaps_;  // epoch -> captured map

  mutable std::mutex stats_mutex_;
  IngestServerStats stats_;
};

}  // namespace spade::net
