#include "net/replicator.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "storage/checked_io.h"
#include "storage/sharded_snapshot.h"

namespace spade::net {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  *out = std::move(data);
  return Status::OK();
}

std::string JoinDir(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

/// Parses "ingest.seqmap-<epoch>"; returns false for anything else.
bool ParseSeqMapName(const std::string& name, std::uint64_t* epoch) {
  constexpr char kPrefix[] = "ingest.seqmap-";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  const std::string suffix = name.substr(kPrefixLen);
  if (suffix.empty() || suffix.size() > 19 ||
      suffix.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : suffix) {
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *epoch = value;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Replicator (primary)
// ---------------------------------------------------------------------------

Replicator::Replicator(ShardedDetectionService* service, IngestServer* ingest,
                       std::string dir, ReplicatorOptions options)
    : service_(service),
      ingest_(ingest),
      dir_(std::move(dir)),
      options_(options) {}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  SPADE_RETURN_NOT_OK(listener_.Listen(options_.port));
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Replicator::Stop() {
  if (!running_.exchange(false)) {
    listener_.Close();
    return;
  }
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    if (session_) session_->conn->Close();
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    session_.reset();
  }
  ack_cv_.notify_all();
}

void Replicator::AcceptLoop() {
  while (running_.load()) {
    std::unique_ptr<TcpConnection> conn = listener_.Accept(options_.poll_ms);
    if (!conn) continue;
    auto session = std::make_shared<FollowerSession>();
    session->conn = std::move(conn);
    {
      std::lock_guard<std::mutex> lock(session_mutex_);
      session_ = session;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.follower_sessions;
    }
    // One follower at a time; a second connection queues in the backlog
    // until this session ends.
    ServeFollower(session);
    {
      std::lock_guard<std::mutex> lock(session_mutex_);
      if (session_ == session) session_.reset();
    }
  }
}

Status Replicator::SendFrame(FollowerSession* session,
                             const std::string& frame) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return session->conn->SendAll(frame.data(), frame.size());
}

Status Replicator::ShipCurrentManifest(FollowerSession* session) {
  // Holds send_mutex_ for the whole ship: it serializes hello catch-up
  // (serve thread) against SealAndShip (driver thread), which both mutate
  // session->shipped, and keeps the file/commit frames contiguous on the
  // wire.
  std::lock_guard<std::mutex> send_lock(send_mutex_);
  ShardManifest manifest;
  const Status read = ReadShardManifest(dir_, &manifest);
  if (read.code() == StatusCode::kNotFound) return Status::OK();  // no seal yet
  SPADE_RETURN_NOT_OK(read);

  std::vector<std::string> names;
  names.reserve(manifest.files.size() + manifest.deltas.size() + 1);
  for (const std::string& f : manifest.files) names.push_back(f);
  for (const DeltaSegmentRef& d : manifest.deltas) names.push_back(d.file);
  // The seal's seqmap rides with its epoch; absent when ingest runs
  // without a wire front end.
  const std::string seqmap = SeqMapFileName(manifest.epoch);
  if (std::filesystem::exists(JoinDir(dir_, seqmap))) {
    names.push_back(seqmap);
  }

  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  for (const std::string& name : names) {
    if (session->shipped.count(name) != 0) continue;
    std::string data;
    SPADE_RETURN_NOT_OK(ReadFileToString(JoinDir(dir_, name), &data));
    if (data.size() + name.size() + 32 > kMaxFramePayload) {
      return Status::IOError("file too large to ship in one frame: " + name);
    }
    const std::string frame =
        EncodeFrame(FrameType::kEpochFile, manifest.epoch,
                    EncodeEpochFilePayload(manifest.epoch, name, data));
    SPADE_RETURN_NOT_OK(session->conn->SendAll(frame.data(), frame.size()));
    session->shipped.insert(name);
    ++files;
    bytes += data.size();
  }

  std::string manifest_bytes;
  SPADE_RETURN_NOT_OK(
      ReadFileToString(ShardManifestPath(dir_), &manifest_bytes));
  const std::string commit =
      EncodeFrame(FrameType::kEpochCommit, manifest.epoch,
                  EncodeEpochCommitPayload(manifest.epoch, manifest_bytes));
  SPADE_RETURN_NOT_OK(session->conn->SendAll(commit.data(), commit.size()));

  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.files_shipped += files;
  stats_.bytes_shipped += bytes;
  return Status::OK();
}

void Replicator::ServeFollower(std::shared_ptr<FollowerSession> session) {
  FrameReader reader;
  char buf[64 * 1024];
  auto last_heartbeat = Clock::now();
  while (running_.load()) {
    const auto now = Clock::now();
    if (now - last_heartbeat >=
        std::chrono::milliseconds(options_.heartbeat_ms)) {
      const std::string beat = EncodeFrame(FrameType::kHeartbeat, 0, "");
      if (!SendFrame(session.get(), beat).ok()) break;
      last_heartbeat = now;
    }
    std::size_t received = 0;
    const IoResult rc = session->conn->Recv(buf, sizeof(buf), &received,
                                            options_.heartbeat_ms / 2 + 1);
    if (rc == IoResult::kTimeout) continue;
    if (rc != IoResult::kOk) break;
    reader.Append(buf, received);
    Frame frame;
    while (reader.Next(&frame)) {
      switch (frame.type) {
        case FrameType::kReplicaHello: {
          // The shipped-set starts empty, so a freshly connected follower
          // gets a full catch-up regardless of the epoch it reports; its
          // own staging dedups anything it already had.
          const Status s = ShipCurrentManifest(session.get());
          if (!s.ok()) {
            SPADE_LOG_WARNING()
                << "Replicator: catch-up failed: " << s.ToString();
          }
          break;
        }
        case FrameType::kEpochAck: {
          std::uint64_t epoch = 0;
          if (!DecodeU64Payload(frame.payload, &epoch)) break;
          {
            std::lock_guard<std::mutex> lock(ack_mutex_);
            if (epoch > acked_epoch_) acked_epoch_ = epoch;
          }
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.epochs_acked;
          }
          ack_cv_.notify_all();
          break;
        }
        case FrameType::kHeartbeat:
          break;
        default:
          break;
      }
    }
  }
  session->conn->Close();
}

Status Replicator::SealAndShip(ShardedDetectionService::SaveMode mode,
                               ShardedDetectionService::SaveInfo* info) {
  ShardedDetectionService::SaveInfo local;
  if (ingest_ != nullptr) {
    SPADE_RETURN_NOT_OK(ingest_->SealEpoch(dir_, mode, &local));
  } else {
    SPADE_RETURN_NOT_OK(service_->SaveState(dir_, mode, &local));
  }
  if (info != nullptr) *info = local;

  std::shared_ptr<FollowerSession> session;
  {
    std::lock_guard<std::mutex> lock(session_mutex_);
    session = session_;
  }
  if (!session) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(local.epoch) +
        " sealed locally but no follower is connected");
  }
  SPADE_RETURN_NOT_OK(ShipCurrentManifest(session.get()));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.epochs_shipped;
  }
  {
    std::unique_lock<std::mutex> lock(ack_mutex_);
    const bool acked = ack_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.ack_timeout_ms),
        [this, &local] {
          return acked_epoch_ >= local.epoch || !running_.load();
        });
    if (!acked || acked_epoch_ < local.epoch) {
      return Status::IOError("follower did not ack epoch " +
                             std::to_string(local.epoch) + " within " +
                             std::to_string(options_.ack_timeout_ms) + "ms");
    }
  }
  if (ingest_ != nullptr) ingest_->MarkDurable(local.epoch);
  return Status::OK();
}

bool Replicator::HasFollower() {
  std::lock_guard<std::mutex> lock(session_mutex_);
  return session_ != nullptr;
}

std::uint64_t Replicator::acked_epoch() {
  std::lock_guard<std::mutex> lock(ack_mutex_);
  return acked_epoch_;
}

ReplicatorStats Replicator::GetStats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Standby (follower)
// ---------------------------------------------------------------------------

Standby::Standby(ShardedDetectionService* service, std::string dir,
                 StandbyOptions options)
    : service_(service), dir_(std::move(dir)), options_(options) {}

Standby::~Standby() { Stop(); }

Status Standby::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return Status::IOError("cannot create " + dir_);
  last_frame_ms_.store(NowMs());
  running_.store(true);
  receiver_ = std::thread([this] { ReceiveLoop(); });
  return Status::OK();
}

void Standby::Stop() {
  if (!running_.exchange(false)) return;
  if (receiver_.joinable()) receiver_.join();
}

void Standby::ReceiveLoop() {
  bool ever_connected = false;
  while (running_.load()) {
    std::unique_ptr<TcpConnection> conn =
        TcpConnect(options_.primary_port, options_.poll_ms);
    if (!conn) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.connect_backoff_ms));
      continue;
    }
    if (ever_connected) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.reconnects;
    }
    ever_connected = true;
    {
      const std::string hello =
          EncodeFrame(FrameType::kReplicaHello, 0,
                      EncodeU64Payload(applied_epoch()));
      if (!conn->SendAll(hello.data(), hello.size()).ok()) {
        conn->Close();
        continue;
      }
    }
    FrameReader reader;
    std::uint64_t corrupt_seen = 0;
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
        // Any intact frame proves the primary is alive.
        last_frame_ms_.store(NowMs());
        switch (frame.type) {
          case FrameType::kHeartbeat:
            break;
          case FrameType::kEpochFile: {
            EpochFilePayload file;
            if (!DecodeEpochFilePayload(frame.payload, &file)) {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.corrupt_frames;
              break;
            }
            HandleFile(file);
            break;
          }
          case FrameType::kEpochCommit: {
            EpochCommitPayload commit;
            if (!DecodeEpochCommitPayload(frame.payload, &commit)) {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.corrupt_frames;
              break;
            }
            HandleCommit(commit);
            const std::string ack =
                EncodeFrame(FrameType::kEpochAck, commit.epoch,
                            EncodeU64Payload(commit.epoch));
            conn->SendAll(ack.data(), ack.size());
            break;
          }
          default:
            break;
        }
      }
      if (reader.corrupt_frames() != corrupt_seen) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.corrupt_frames += reader.corrupt_frames() - corrupt_seen;
        corrupt_seen = reader.corrupt_frames();
      }
    }
    conn->Close();
  }
}

void Standby::HandleFile(const EpochFilePayload& file) {
  // Staging hygiene: names are flat (the manifest only references files
  // inside its own directory); anything with a separator is hostile.
  if (file.name.find('/') != std::string::npos ||
      file.name.find("..") != std::string::npos) {
    SPADE_LOG_WARNING() << "Standby: rejecting suspicious file name '"
                        << file.name << "'";
    return;
  }
  const Status s = storage::WriteFileAtomic(JoinDir(dir_, file.name),
                                            file.data);
  if (!s.ok()) {
    SPADE_LOG_WARNING() << "Standby: staging " << file.name
                        << " failed: " << s.ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.files_staged;
  stats_.bytes_staged += file.data.size();
}

void Standby::HandleCommit(const EpochCommitPayload& commit) {
  std::lock_guard<std::mutex> lock(apply_mutex_);
  const Status install =
      storage::WriteFileAtomic(ShardManifestPath(dir_), commit.manifest);
  if (!install.ok()) {
    SPADE_LOG_WARNING() << "Standby: manifest install for epoch "
                        << commit.epoch << " failed: " << install.ToString();
    return;
  }
  if (commit.epoch > committed_epoch_) committed_epoch_ = commit.epoch;
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++stats_.epochs_committed;
  }
  // The first commit is always applied so the standby starts warm; after
  // that, eager_replay decides whether the receiver tracks the primary
  // epoch by epoch or stages the tail for Promote().
  if (!ever_restored_ || options_.eager_replay) {
    std::uint64_t edges = 0;
    std::uint64_t epochs = 0;
    bool full = false;
    const Status s =
        ApplyThroughLocked(committed_epoch_, &edges, &epochs, &full);
    if (!s.ok()) {
      SPADE_LOG_WARNING() << "Standby: eager apply of epoch " << commit.epoch
                          << " failed (will full-restore on promote): "
                          << s.ToString();
      needs_full_restore_ = true;
      return;
    }
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats_.epochs_applied += epochs;
  }
}

Status Standby::ApplyThroughLocked(std::uint64_t target, std::uint64_t* edges,
                                   std::uint64_t* epochs,
                                   bool* full_restore) {
  if (target <= applied_epoch_) return Status::OK();
  ShardManifest manifest;
  SPADE_RETURN_NOT_OK(ReadShardManifest(dir_, &manifest));
  bool incremental = ever_restored_ && !needs_full_restore_ &&
                     manifest.base_epoch == applied_base_epoch_ &&
                     applied_epoch_ >= manifest.base_epoch;
  if (incremental) {
    for (std::uint64_t e = applied_epoch_ + 1; e <= manifest.epoch; ++e) {
      std::uint64_t replayed = 0;
      const Status s = service_->ApplyChainEpoch(
          dir_, e, std::chrono::milliseconds(options_.drain_timeout_ms),
          &replayed);
      if (!s.ok()) {
        SPADE_LOG_WARNING() << "Standby: incremental apply of epoch " << e
                            << " failed, falling back to full restore: "
                            << s.ToString();
        incremental = false;
        break;
      }
      *edges += replayed;
      ++*epochs;
      applied_epoch_ = e;
    }
  }
  if (!incremental && applied_epoch_ < manifest.epoch) {
    ShardedDetectionService::RestoreInfo rinfo;
    SPADE_RETURN_NOT_OK(service_->RestoreState(dir_, &rinfo));
    if (full_restore != nullptr) *full_restore = true;
    *edges += rinfo.delta_edges_replayed;
    applied_epoch_ = rinfo.restored_epoch;
  }
  ever_restored_ = true;
  needs_full_restore_ = false;
  applied_base_epoch_ = manifest.base_epoch;
  return Status::OK();
}

bool Standby::WaitPrimaryLost(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (NowMs() - last_frame_ms_.load() > options_.lease_ms) return true;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(options_.poll_ms, 20)));
  }
  return NowMs() - last_frame_ms_.load() > options_.lease_ms;
}

Status Standby::Promote(PromoteInfo* info) {
  const auto start = Clock::now();
  Stop();
  std::lock_guard<std::mutex> lock(apply_mutex_);
  PromoteInfo local;
  SPADE_RETURN_NOT_OK(ApplyThroughLocked(committed_epoch_,
                                         &local.replayed_edges,
                                         &local.replayed_epochs,
                                         &local.full_restore));
  local.epoch = applied_epoch_;
  // Newest replicated seqmap at or below the promoted epoch seeds the new
  // primary's dedup watermarks.
  std::uint64_t best_epoch = 0;
  std::string best_path;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t epoch = 0;
    const std::string name = entry.path().filename().string();
    if (!ParseSeqMapName(name, &epoch)) continue;
    if (epoch <= applied_epoch_ && epoch >= best_epoch) {
      best_epoch = epoch;
      best_path = entry.path().string();
    }
  }
  if (!best_path.empty()) {
    std::uint64_t file_epoch = 0;
    SPADE_RETURN_NOT_OK(ReadSeqMapFile(best_path, &file_epoch, &local.seqmap));
  }
  local.promote_millis =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (info != nullptr) *info = local;
  return Status::OK();
}

std::uint64_t Standby::applied_epoch() {
  std::lock_guard<std::mutex> lock(apply_mutex_);
  return applied_epoch_;
}

std::uint64_t Standby::committed_epoch() {
  std::lock_guard<std::mutex> lock(apply_mutex_);
  return committed_epoch_;
}

StandbyStats Standby::GetStats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace spade::net
