#include "net/ingest_server.h"

#include <filesystem>

#include "common/logging.h"

namespace spade::net {

namespace {

/// Frames whose BATCH payload decodes to more edges than this are rejected
/// (protocol hygiene; the frame layer already caps raw bytes).
constexpr std::size_t kMaxBatchEdges = std::size_t{1} << 20;

}  // namespace

IngestServer::IngestServer(ShardedDetectionService* service,
                           IngestServerOptions options)
    : service_(service), options_(options) {}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  SPADE_RETURN_NOT_OK(listener_.Listen(options_.port));
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void IngestServer::Stop() {
  if (!running_.exchange(false)) {
    // Never started or already stopped; still reap a failed Start's
    // listener.
    listener_.Close();
    return;
  }
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& c : conns_) c->Close();
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.clear();
  }
}

void IngestServer::AcceptLoop() {
  while (running_.load()) {
    std::unique_ptr<TcpConnection> conn = listener_.Accept(options_.poll_ms);
    if (!conn) continue;
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.connections;
    }
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (!running_.load()) return;
    conns_.push_back(std::move(conn));
    handlers_.emplace_back([this, raw] { ServeConnection(raw); });
  }
}

IngestServer::StreamState* IngestServer::GetStream(std::uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  auto& slot = streams_[stream_id];
  if (!slot) slot = std::make_unique<StreamState>();
  return slot.get();
}

void IngestServer::ServeConnection(Connection* conn) {
  FrameReader reader;
  StreamState* stream = nullptr;
  std::uint64_t corrupt_seen = 0;
  std::uint64_t resync_seen = 0;
  char buf[64 * 1024];
  while (running_.load()) {
    std::size_t received = 0;
    const IoResult rc =
        conn->Recv(buf, sizeof(buf), &received, options_.poll_ms);
    if (rc == IoResult::kTimeout) continue;
    if (rc != IoResult::kOk) break;
    reader.Append(buf, received);
    Frame frame;
    while (reader.Next(&frame)) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.frames;
      }
      switch (frame.type) {
        case FrameType::kHello: {
          std::uint64_t stream_id = 0;
          if (!DecodeU64Payload(frame.payload, &stream_id)) break;
          stream = GetStream(stream_id);
          AckPayload ack;
          {
            std::lock_guard<std::mutex> sl(stream->mutex);
            ack.applied = stream->applied;
            ack.durable = stream->durable;
          }
          const std::string reply =
              EncodeFrame(FrameType::kHelloAck, 0, EncodeAckPayload(ack));
          conn->SendAll(reply.data(), reply.size());
          break;
        }
        case FrameType::kBatch: {
          if (stream == nullptr) break;  // batch before hello: ignore
          std::vector<Edge> edges;
          if (!DecodeBatchPayload(frame.payload, &edges) ||
              edges.size() > kMaxBatchEdges) {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.corrupt_frames;
            break;
          }
          AckPayload ack;
          bool applied_now = false;
          bool refused = false;
          {
            // Shared with other batch handlers, exclusive against
            // SealEpoch: dedup decision, service submit and watermark
            // advance are one atom relative to the seqmap capture.
            std::shared_lock<std::shared_mutex> apply_lock(apply_mutex_);
            std::lock_guard<std::mutex> sl(stream->mutex);
            if (frame.seq == stream->applied + 1) {
              // All-or-nothing: on failure no edge of the batch was
              // enqueued, the watermark stays put, and the ack tells the
              // client to retry this seq.
              applied_now = service_->SubmitBatch(edges).ok();
              refused = !applied_now;
              if (applied_now) stream->applied = frame.seq;
            }
            ack.applied = stream->applied;
            ack.durable = stream->durable;
          }
          {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            if (applied_now) {
              ++stats_.batches_applied;
              stats_.edges_applied += edges.size();
            } else if (refused) {
              ++stats_.refused_batches;
            } else if (frame.seq <= ack.applied) {
              ++stats_.duplicate_batches;
            } else {
              ++stats_.gap_batches;
            }
          }
          const std::string reply =
              EncodeFrame(FrameType::kAck, frame.seq, EncodeAckPayload(ack));
          conn->SendAll(reply.data(), reply.size());
          break;
        }
        case FrameType::kHeartbeat:
          break;  // liveness only; nothing to do on the ingest port
        default:
          break;  // replication frames have no business here; drop
      }
    }
    if (reader.corrupt_frames() != corrupt_seen ||
        reader.resync_bytes() != resync_seen) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      // FrameReader counters are cumulative; fold the delta in.
      stats_.corrupt_frames += reader.corrupt_frames() - corrupt_seen;
      stats_.resync_bytes += reader.resync_bytes() - resync_seen;
      corrupt_seen = reader.corrupt_frames();
      resync_seen = reader.resync_bytes();
    }
  }
  conn->Close();
}

Status IngestServer::SealEpoch(const std::string& dir,
                               ShardedDetectionService::SaveMode mode,
                               ShardedDetectionService::SaveInfo* info) {
  SeqMap captured;
  ShardedDetectionService::SaveInfo local_info;
  {
    // Exclusive: no batch can be mid-apply while the seqmap is captured
    // and the checkpoint drains+saves, so map and files agree exactly.
    std::unique_lock<std::shared_mutex> apply_lock(apply_mutex_);
    {
      std::lock_guard<std::mutex> lock(streams_mutex_);
      for (const auto& [id, state] : streams_) {
        std::lock_guard<std::mutex> sl(state->mutex);
        captured[id] = state->applied;
      }
    }
    SPADE_RETURN_NOT_OK(service_->SaveState(dir, mode, &local_info));
  }
  const std::string seqmap_path =
      (std::filesystem::path(dir) / SeqMapFileName(local_info.epoch))
          .string();
  SPADE_RETURN_NOT_OK(
      WriteSeqMapFile(seqmap_path, local_info.epoch, captured));
  {
    std::lock_guard<std::mutex> lock(seals_mutex_);
    sealed_seqmaps_[local_info.epoch] = std::move(captured);
    // Bound the retained history: everything durable was consumed, and a
    // follower never acks epochs out of order, so a short tail suffices.
    while (sealed_seqmaps_.size() > 16) {
      sealed_seqmaps_.erase(sealed_seqmaps_.begin());
    }
  }
  if (info != nullptr) *info = local_info;
  return Status::OK();
}

void IngestServer::MarkDurable(std::uint64_t epoch) {
  SeqMap consumed;
  {
    std::lock_guard<std::mutex> lock(seals_mutex_);
    // Every seal at or below `epoch` is durable; the newest one carries
    // the highest watermarks.
    auto it = sealed_seqmaps_.begin();
    while (it != sealed_seqmaps_.end() && it->first <= epoch) {
      consumed = std::move(it->second);
      it = sealed_seqmaps_.erase(it);
    }
  }
  if (consumed.empty()) return;
  std::lock_guard<std::mutex> lock(streams_mutex_);
  for (const auto& [id, seq] : consumed) {
    auto it = streams_.find(id);
    if (it == streams_.end()) continue;
    std::lock_guard<std::mutex> sl(it->second->mutex);
    it->second->durable = std::max(it->second->durable, seq);
  }
}

void IngestServer::SeedAppliedSeqs(const SeqMap& seqs) {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  for (const auto& [id, seq] : seqs) {
    auto& slot = streams_[id];
    if (!slot) slot = std::make_unique<StreamState>();
    std::lock_guard<std::mutex> sl(slot->mutex);
    slot->applied = std::max(slot->applied, seq);
    slot->durable = std::max(slot->durable, seq);
  }
}

IngestServerStats IngestServer::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace spade::net
