// IngestClient: the producer side of the wire ingest tier. Buffers edges
// into sequence-numbered batches, sends them over a framed TCP connection,
// and retries through timeouts, corrupt frames, torn connections and
// failovers until every batch is applied exactly once.
//
// Delivery state machine (single-threaded by design — every method runs on
// the caller's thread, so tests and benches drive it deterministically):
//
//   Submit/Flush  -> pending deque of sealed batches (seq 1, 2, 3, ...)
//   Pump          -> connect (bounded retries, exponential backoff with
//                    seeded jitter, endpoint rotation), HELLO/HELLO_ACK,
//                    send the unacked window, collect ACKs, resend on ack
//                    timeout
//   WaitAcked     -> Pump until the server's applied watermark covers every
//                    sealed batch (or the retry budget is exhausted)
//   WaitDurable   -> same for the durable watermark (sealed into a
//                    replicated epoch) — the bar to beat before trimming
//
// Failover correctness: a batch leaves the resend buffer only once DURABLE,
// not merely acked — an acked-but-unsealed batch dies with a primary, and
// the promoted follower (seeded from the last replicated seqmap) expects
// exactly those batches again. On every (re)connect the HELLO_ACK tells
// this client the server's applied watermark; the send cursor rewinds to
// the first batch past it, so resending is idempotent by construction
// (sequence dedup on the server).
//
// Graceful degradation: when the pending buffer exceeds
// `max_buffered_batches` (primary unreachable, batches accumulating), the
// newest batches overflow to CRC-framed spill files in `spill_dir` instead
// of growing the heap; they reload in sequence order as the window drains.
// Submit therefore keeps succeeding through an outage of any length the
// disk can absorb.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/types.h"
#include "net/transport.h"
#include "net/wire_format.h"

namespace spade::net {

struct IngestClientOptions {
  /// Endpoints (loopback ports) tried in order; rotation on connect
  /// failure is what makes failover a config change, not a code path.
  std::vector<int> ports;
  /// Stream identity; the server keys its dedup watermarks by it. Must be
  /// unique per logical producer and survive reconnects.
  std::uint64_t stream_id = 1;
  /// Edges per sealed batch.
  std::size_t batch_edges = 256;
  /// Sealed-but-unacked batches sent ahead of the ack cursor.
  std::size_t send_window = 8;
  /// Pending batches kept in memory before spilling (when spill_dir set).
  std::size_t max_buffered_batches = 256;
  /// Directory for overflow spill files ("" = no spilling; the deque
  /// grows unbounded instead).
  std::string spill_dir;
  /// Resend the window when no ack progress for this long.
  int ack_timeout_ms = 200;
  int connect_timeout_ms = 250;
  /// Consecutive failed connect sweeps (all endpoints) before Wait* gives
  /// up with kIOError. Submit/Flush never give up — they buffer.
  int max_connect_retries = 20;
  /// Exponential backoff between failed connect sweeps, with jitter.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 320;
  /// Test seam: wraps every freshly connected transport (fault injection).
  std::function<std::unique_ptr<Connection>(std::unique_ptr<Connection>)>
      wrap_transport;
};

struct IngestClientStats {
  std::uint64_t batches_sealed = 0;
  std::uint64_t batches_sent = 0;   // including resends
  std::uint64_t resent_batches = 0;
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t spilled_batches = 0;
  std::uint64_t reloaded_batches = 0;
  std::uint64_t acked_seq = 0;    // server's applied watermark
  std::uint64_t durable_seq = 0;  // server's durable watermark
};

class IngestClient {
 public:
  explicit IngestClient(IngestClientOptions options);
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  /// Buffers one edge; seals a batch at `batch_edges`. Never blocks on the
  /// network.
  Status Submit(const Edge& edge);

  /// Seals the partial buffer (no-op when empty).
  Status Flush();

  /// Highest batch sequence sealed so far.
  std::uint64_t last_sealed_seq() const { return next_seq_ - 1; }

  /// Drives the state machine until every sealed batch is APPLIED at the
  /// current primary, or `timeout_ms` passes (kIOError also when the
  /// connect retry budget is exhausted first).
  Status WaitAcked(int timeout_ms);

  /// Same bar for DURABLE (sealed into a replicated epoch). Only then is
  /// the local resend buffer trimmed.
  Status WaitDurable(int timeout_ms);

  /// Replaces the endpoint list (failover repoint) and forces a reconnect
  /// on the next pump.
  void SetPorts(std::vector<int> ports);

  IngestClientStats GetStats() const { return stats_; }

  /// Drops the connection (buffered batches survive).
  void Disconnect();

 private:
  struct Batch {
    std::uint64_t seq = 0;
    std::string payload;  // encoded BATCH payload (not a full frame)
  };

  /// One pump: ensure connected, send window, read acks. Returns false
  /// when the connect retry budget is exhausted.
  bool PumpOnce();
  bool EnsureConnected();
  void HandleAck(const AckPayload& ack);
  void SealBatch();
  Status WriteSpill(const Batch& batch);
  Status SpillTail();
  Status ReloadSpilled();
  std::string SpillPath(std::uint64_t seq) const;

  IngestClientOptions options_;
  Rng rng_;
  std::unique_ptr<Connection> conn_;
  FrameReader reader_;
  std::vector<Edge> buffer_;
  /// Sealed, not yet durable, ascending seq. Front may be acked-but-not-
  /// durable; only durable batches are popped.
  std::deque<Batch> pending_;
  /// Batches currently living as spill files (ascending seq), logically
  /// the tail of `pending_`.
  std::deque<std::uint64_t> spilled_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t send_cursor_ = 0;  // highest seq handed to the transport
  std::uint64_t acked_ = 0;        // server applied watermark
  std::uint64_t durable_ = 0;      // server durable watermark
  int failed_sweeps_ = 0;
  bool ever_connected_ = false;
  IngestClientStats stats_;
};

}  // namespace spade::net
