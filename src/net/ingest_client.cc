#include "net/ingest_client.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "storage/checked_io.h"

namespace spade::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSpillMagic = 0x4c50535f45444150ull;  // "PADE_SPL"

/// Seed of the reconnect backoff's jitter: fixed, so a run's schedule
/// repeats.
constexpr std::uint64_t kJitterSeed = 0x5eed;

int ElapsedMs(Clock::time_point since) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - since)
                              .count());
}

}  // namespace

IngestClient::IngestClient(IngestClientOptions options)
    : options_(std::move(options)), rng_(kJitterSeed) {
  if (!options_.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
  }
}

IngestClient::~IngestClient() { Disconnect(); }

void IngestClient::Disconnect() {
  if (conn_) {
    conn_->Close();
    conn_.reset();
  }
  reader_ = FrameReader();
}

void IngestClient::SetPorts(std::vector<int> ports) {
  options_.ports = std::move(ports);
  failed_sweeps_ = 0;
  Disconnect();
}

std::string IngestClient::SpillPath(std::uint64_t seq) const {
  return (std::filesystem::path(options_.spill_dir) /
          ("ingest.spill-" + std::to_string(seq)))
      .string();
}

void IngestClient::SealBatch() {
  Batch batch;
  batch.seq = next_seq_++;
  batch.payload = EncodeBatchPayload(buffer_);
  buffer_.clear();
  pending_.push_back(std::move(batch));
  ++stats_.batches_sealed;
}

Status IngestClient::WriteSpill(const Batch& batch) {
  storage::ChecksummedFileWriter writer(SpillPath(batch.seq));
  writer.Write(kSpillMagic);
  writer.Write(batch.seq);
  writer.Write(static_cast<std::uint64_t>(batch.payload.size()));
  writer.WriteBytes(batch.payload.data(), batch.payload.size());
  SPADE_RETURN_NOT_OK(writer.Finish());
  ++stats_.spilled_batches;
  return Status::OK();
}

Status IngestClient::SpillTail() {
  // Invariant: `spilled_` is the contiguous highest-seq tail of the
  // stream, ascending; everything in memory is below it. Once a tail
  // exists on disk, every fresh seal (the new highest seq) must append to
  // it directly, or the reload order would interleave.
  if (!spilled_.empty()) {
    Batch batch = std::move(pending_.back());
    pending_.pop_back();
    SPADE_RETURN_NOT_OK(WriteSpill(batch));
    spilled_.push_back(batch.seq);
    return Status::OK();
  }
  // No tail yet: overflow the newest in-memory batches, highest first, so
  // push_front keeps the deque ascending.
  while (pending_.size() > options_.max_buffered_batches) {
    Batch batch = std::move(pending_.back());
    pending_.pop_back();
    SPADE_RETURN_NOT_OK(WriteSpill(batch));
    spilled_.push_front(batch.seq);
  }
  return Status::OK();
}

Status IngestClient::ReloadSpilled() {
  // The memory bound applies to UNACKED batches (the send pipeline), not
  // to acked-but-not-durable ones: those are retained for failover resend
  // and must never block reloading the batches that still need delivery.
  // Seqs in pending_ are contiguous, so the unacked count is a subtraction.
  const auto unacked = [this]() -> std::uint64_t {
    if (pending_.empty() || pending_.back().seq <= acked_) return 0;
    return pending_.back().seq - acked_;
  };
  while (!spilled_.empty() && unacked() < options_.max_buffered_batches) {
    const std::uint64_t seq = spilled_.front();
    const std::string path = SpillPath(seq);
    storage::ChecksummedFileReader reader(path);
    if (!reader.ok()) {
      return Status::IOError("cannot reopen spill file " + path);
    }
    std::uint64_t magic = 0, file_seq = 0, size = 0;
    if (!reader.Read(&magic) || magic != kSpillMagic ||
        !reader.Read(&file_seq) || file_seq != seq || !reader.Read(&size) ||
        reader.CountExceedsFile(size, 1)) {
      return Status::IOError("corrupt spill file " + path);
    }
    Batch batch;
    batch.seq = seq;
    batch.payload.resize(size);
    if (!reader.ReadBytes(batch.payload.data(), size)) {
      return Status::IOError("truncated spill file " + path);
    }
    SPADE_RETURN_NOT_OK(reader.VerifyTrailer());
    spilled_.pop_front();
    pending_.push_back(std::move(batch));
    ++stats_.reloaded_batches;
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return Status::OK();
}

Status IngestClient::Submit(const Edge& edge) {
  buffer_.push_back(edge);
  if (buffer_.size() >= options_.batch_edges) return Flush();
  return Status::OK();
}

Status IngestClient::Flush() {
  if (buffer_.empty()) return Status::OK();
  SealBatch();
  if (!options_.spill_dir.empty()) SPADE_RETURN_NOT_OK(SpillTail());
  return Status::OK();
}

bool IngestClient::EnsureConnected() {
  if (conn_) return true;
  while (failed_sweeps_ <= options_.max_connect_retries) {
    for (const int port : options_.ports) {
      std::unique_ptr<Connection> conn =
          TcpConnect(port, options_.connect_timeout_ms);
      if (!conn) continue;
      if (options_.wrap_transport) {
        conn = options_.wrap_transport(std::move(conn));
      }
      // HELLO / HELLO_ACK: learn the server's watermarks so the send
      // cursor rewinds to exactly the first unapplied batch.
      const std::string hello = EncodeFrame(
          FrameType::kHello, 0, EncodeU64Payload(options_.stream_id));
      if (!conn->SendAll(hello.data(), hello.size()).ok()) continue;
      FrameReader reader;
      char buf[4096];
      const auto deadline =
          Clock::now() +
          std::chrono::milliseconds(options_.connect_timeout_ms * 4);
      bool greeted = false;
      while (!greeted && Clock::now() < deadline) {
        std::size_t received = 0;
        const IoResult rc = conn->Recv(buf, sizeof(buf), &received, 50);
        if (rc == IoResult::kTimeout) continue;
        if (rc != IoResult::kOk) break;
        reader.Append(buf, received);
        Frame frame;
        while (reader.Next(&frame)) {
          AckPayload ack;
          if (frame.type == FrameType::kHelloAck &&
              DecodeAckPayload(frame.payload, &ack)) {
            // The HELLO_ACK is authoritative for THIS server: after a
            // failover the promoted follower's applied watermark is the
            // old durable one, strictly below acks the dead primary
            // handed out. Rewind (don't max) so every batch in
            // (durable, old acked] gets resent; they are all still in
            // pending_ because trimming happens only at durable.
            acked_ = ack.applied;
            durable_ = std::max(durable_, ack.durable);
            stats_.acked_seq = acked_;
            stats_.durable_seq = durable_;
            while (!pending_.empty() && pending_.front().seq <= durable_) {
              pending_.pop_front();
            }
            greeted = true;
            break;
          }
        }
      }
      if (!greeted) {
        // A fault shim may have mangled the HELLO or the ack; the sweep
        // continues and backoff applies.
        conn->Close();
        continue;
      }
      conn_ = std::move(conn);
      reader_ = FrameReader();
      send_cursor_ = acked_;  // resend everything past the watermark
      ++stats_.connects;
      if (ever_connected_) ++stats_.reconnects;
      ever_connected_ = true;
      failed_sweeps_ = 0;
      return true;
    }
    ++failed_sweeps_;
    if (failed_sweeps_ > options_.max_connect_retries) break;
    // Exponential backoff with jitter: sweep n waits ~initial * 2^n,
    // capped, +-50% jitter so a fleet of clients does not reconnect in
    // lockstep.
    double wait = options_.backoff_initial_ms;
    for (int i = 1; i < failed_sweeps_; ++i) wait *= 2.0;
    wait = std::min<double>(wait, options_.backoff_max_ms);
    wait *= 0.5 + rng_.NextDouble();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, static_cast<int>(wait))));
  }
  return false;
}

void IngestClient::HandleAck(const AckPayload& ack) {
  acked_ = std::max(acked_, ack.applied);
  durable_ = std::max(durable_, ack.durable);
  stats_.acked_seq = acked_;
  stats_.durable_seq = durable_;
  // Trim strictly at durable: an acked-but-unsealed batch must survive a
  // primary loss, because the promoted follower will not have it.
  while (!pending_.empty() && pending_.front().seq <= durable_) {
    pending_.pop_front();
  }
}

bool IngestClient::PumpOnce() {
  if (!EnsureConnected()) return false;
  // Top up the in-memory window from spill before sending.
  if (!spilled_.empty()) {
    const Status s = ReloadSpilled();
    if (!s.ok()) {
      SPADE_LOG_WARNING() << "IngestClient: spill reload failed: "
                          << s.ToString();
    }
  }
  // Send every unacked batch within the window.
  bool sent_any = false;
  for (const Batch& batch : pending_) {
    if (batch.seq <= send_cursor_) continue;
    if (batch.seq > acked_ + options_.send_window) break;
    const std::string frame =
        EncodeFrame(FrameType::kBatch, batch.seq, batch.payload);
    const Status s = conn_->SendAll(frame.data(), frame.size());
    if (!s.ok()) {
      Disconnect();
      return true;  // reconnect on the next pump
    }
    send_cursor_ = batch.seq;
    ++stats_.batches_sent;
    sent_any = true;
  }
  // Everything applied but not yet durable (WaitDurable with no traffic):
  // the server only volunteers watermarks on acks, so ping it with a
  // HELLO — the HELLO_ACK carries fresh {applied, durable}.
  bool pinged = false;
  if (!sent_any && !pending_.empty() && send_cursor_ <= acked_ &&
      pending_.front().seq > durable_) {
    const std::string ping = EncodeFrame(FrameType::kHello, 0,
                                         EncodeU64Payload(options_.stream_id));
    if (!conn_->SendAll(ping.data(), ping.size()).ok()) {
      Disconnect();
      return true;
    }
    pinged = true;
  }
  // Collect acks until progress stalls for ack_timeout_ms.
  const std::uint64_t acked_before = acked_;
  bool got_ack = false;
  auto last_progress = Clock::now();
  char buf[16 * 1024];
  while (ElapsedMs(last_progress) < options_.ack_timeout_ms) {
    std::size_t received = 0;
    const IoResult rc = conn_->Recv(buf, sizeof(buf), &received, 20);
    if (rc == IoResult::kClosed || rc == IoResult::kError) {
      Disconnect();
      return true;
    }
    if (rc == IoResult::kOk) {
      reader_.Append(buf, received);
      Frame frame;
      while (reader_.Next(&frame)) {
        AckPayload ack;
        if ((frame.type == FrameType::kAck ||
             frame.type == FrameType::kHelloAck) &&
            DecodeAckPayload(frame.payload, &ack)) {
          if (ack.applied > acked_) last_progress = Clock::now();
          HandleAck(ack);
          got_ack = true;
        }
      }
    }
    if (pinged) {
      if (got_ack) break;  // the ping's reply arrived, watermarks are fresh
      continue;            // keep waiting for the ping's reply
    }
    const bool window_open =
        !pending_.empty() &&
        pending_.back().seq > send_cursor_ &&
        send_cursor_ < acked_ + options_.send_window;
    if (window_open) break;  // go send the newly opened window
    if (pending_.empty() || send_cursor_ <= acked_) break;  // all acked
  }
  if (acked_ == acked_before && sent_any == false && send_cursor_ > acked_) {
    // Ack timeout with frames outstanding: resend from the watermark.
    stats_.resent_batches += send_cursor_ - acked_;
    send_cursor_ = acked_;
  }
  return true;
}

Status IngestClient::WaitAcked(int timeout_ms) {
  SPADE_RETURN_NOT_OK(Flush());
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::uint64_t target = last_sealed_seq();
  while (acked_ < target) {
    if (Clock::now() >= deadline) {
      return Status::IOError("WaitAcked: timed out at seq " +
                             std::to_string(acked_) + "/" +
                             std::to_string(target));
    }
    if (!PumpOnce()) {
      return Status::IOError(
          "WaitAcked: connect retries exhausted at seq " +
          std::to_string(acked_) + "/" + std::to_string(target));
    }
  }
  return Status::OK();
}

Status IngestClient::WaitDurable(int timeout_ms) {
  SPADE_RETURN_NOT_OK(Flush());
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::uint64_t target = last_sealed_seq();
  while (durable_ < target) {
    if (Clock::now() >= deadline) {
      return Status::IOError("WaitDurable: timed out at seq " +
                             std::to_string(durable_) + "/" +
                             std::to_string(target));
    }
    if (!PumpOnce()) {
      return Status::IOError(
          "WaitDurable: connect retries exhausted at seq " +
          std::to_string(durable_) + "/" + std::to_string(target));
    }
  }
  return Status::OK();
}

}  // namespace spade::net
