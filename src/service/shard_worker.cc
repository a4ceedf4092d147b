#include "service/shard_worker.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"

namespace spade {

namespace {

std::vector<VertexId> SortedMembers(const Community& c) {
  std::vector<VertexId> sorted = c.members;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Ring cell count for a given edge budget: enough cells that slab
/// exhaustion can only precede budget exhaustion when tens of thousands of
/// single-edge chunks pile up against a stalled worker (each cell holds at
/// least one edge, so with cells >= max_queue the budget always binds
/// first; above the cap, a cell costs ~72 bytes, so 65536 cells keep a
/// shard's ring under ~5 MB).
std::size_t RingCellsFor(std::size_t max_queue) {
  return RoundUpPow2(std::clamp<std::size_t>(max_queue, 2, 65536));
}

/// Cap on how many edges one gather round merges before applying: keeps
/// space-freed notifications and Drain progress timely when producers
/// outrun the worker (the ring itself bounds a single round anyway; this
/// bounds it tighter).
constexpr std::size_t kGatherCap = 4096;

/// Retry cadence for a parked worker with a nonempty forward backlog: the
/// forward target was full (or mid-move), so poll instead of sleeping
/// indefinitely — the edges are this worker's responsibility until the
/// current owner accepts them.
constexpr std::chrono::milliseconds kBacklogRetire{1};

}  // namespace

ShardWorker::ShardWorker(std::vector<PartitionSeed> seeds,
                         std::size_t total_partitions,
                         PartitionOfFn partition_of, ForwardFn forward,
                         FraudAlertFn on_alert,
                         DetectionServiceOptions options,
                         RetireNotifyFn on_retire,
                         BoundaryUpdateFn on_boundary,
                         std::shared_ptr<SlabPool> slab_pool, int cpu)
    : options_(options),
      on_alert_(std::move(on_alert)),
      ring_(RingCellsFor(options.max_queue)),
      ring_mask_(ring_.size() - 1),
      by_pid_(std::max<std::size_t>(total_partitions, 1), nullptr),
      partition_of_(std::move(partition_of)),
      forward_(std::move(forward)),
      start_(std::chrono::steady_clock::now()),
      on_retire_(std::move(on_retire)),
      on_boundary_(std::move(on_boundary)),
      slab_pool_(std::move(slab_pool)) {
  SPADE_CHECK(partition_of_ != nullptr);
  options_.max_queue = std::min<std::size_t>(options_.max_queue, kEdgeMask);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
  // Publish the initial communities before the worker exists, so readers
  // always observe a valid snapshot and the first alert fires only when the
  // stream actually changes a community.
  for (PartitionSeed& seed : seeds) {
    SPADE_CHECK(seed.pid < by_pid_.size());
    SPADE_CHECK(by_pid_[seed.pid] == nullptr);
    auto p = std::make_unique<Partition>(seed.pid, std::move(seed.spade));
    p->spade.TurnOnEdgeGrouping();
    Community initial = p->spade.Detect();
    p->last_reported = SortedMembers(initial);
    p->last_density = initial.density;
    p->current = std::make_shared<const Community>(std::move(initial));
    by_pid_[p->pid] = p.get();
    parts_.push_back(std::move(p));
  }
  owned_partitions_.store(parts_.size(), std::memory_order_relaxed);
  PublishArgmaxLocked();  // pre-thread: no lock contention possible yet
  worker_ = std::thread([this] { WorkerLoop(); });
#if defined(__linux__)
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    const int rc =
        pthread_setaffinity_np(worker_.native_handle(), sizeof(cpu_set_t),
                               &set);
    if (rc != 0) {
      SPADE_LOG_WARNING() << "ShardWorker: cannot pin worker to CPU " << cpu
                          << " (error " << rc << "); running unpinned";
    }
  }
#else
  if (cpu >= 0) {
    SPADE_LOG_WARNING()
        << "ShardWorker: CPU pinning is unsupported on this platform; "
           "running unpinned";
  }
#endif
}

ShardWorker::~ShardWorker() { Stop(); }

// ---------------------------------------------------------------------------
// Chunk-handoff ring primitives.

std::optional<std::size_t> ShardWorker::TryClaim(std::size_t k,
                                                 bool allow_partial) {
  std::uint64_t cur = queued_.load(std::memory_order_relaxed);
  std::size_t take = 0;
  do {
    if ((cur & kStopped) != 0) return std::nullopt;
    const std::size_t edges = cur & kEdgeMask;
    const std::size_t free =
        options_.max_queue - std::min(edges, options_.max_queue);
    take = allow_partial ? std::min(k, free) : (k <= free ? k : 0);
    if (take == 0 || (cur >> kCellShift) >= ring_.size()) return 0;
  } while (!queued_.compare_exchange_weak(cur, cur + take + kOneCell,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
  const std::size_t depth = (cur & kEdgeMask) + take;
  std::size_t hwm = queue_hwm_recent_.load(std::memory_order_relaxed);
  while (depth > hwm &&
         !queue_hwm_recent_.compare_exchange_weak(
             hwm, depth, std::memory_order_relaxed)) {
  }
  return take;
}

void ShardWorker::Unclaim(std::size_t k) {
  queued_.fetch_sub(k + kOneCell, std::memory_order_seq_cst);
}

void ShardWorker::Publish(Chunk&& chunk, bool queue_locked) {
  const std::size_t k = chunk.size();
  const std::uint64_t pos =
      enqueue_pos_.fetch_add(1, std::memory_order_seq_cst);
  Cell& cell = ring_[pos & ring_mask_];
  // Claimed cells never outnumber the ring, so the worker released this
  // cell (its pop of pos - ring size) before any claim let this position
  // be taken; wait only for that release to become visible.
  while (cell.seq.load(std::memory_order_acquire) != pos) {
    std::this_thread::yield();
  }
  cell.chunk = std::move(chunk);
  // seq_cst publish: pairs with the worker's park-protocol RingReady load.
  cell.seq.store(pos + 1, std::memory_order_seq_cst);
  submitted_.fetch_add(k, std::memory_order_seq_cst);
  // Wakeup coalescing (Dekker): the cell was published (seq_cst) before
  // this load; the worker sets parked_ (seq_cst) before its RingReady
  // check. Whichever ran second sees the other's write, so either the
  // worker finds the chunk on its own or we find parked_ set and wake it —
  // never both asleep.
  if (!parked_.load(std::memory_order_seq_cst)) return;
  if (queue_locked) {
    work_cv_.notify_one();
  } else {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    work_cv_.notify_one();
  }
}

bool ShardWorker::TryPopChunk(Chunk* out) {
  Cell& cell = ring_[dequeue_pos_ & ring_mask_];
  if (cell.seq.load(std::memory_order_acquire) != dequeue_pos_ + 1) {
    return false;
  }
  *out = std::move(cell.chunk);
  cell.chunk = Chunk{};
  cell.seq.store(dequeue_pos_ + ring_.size(), std::memory_order_release);
  ++dequeue_pos_;
  // The handoff is complete: these edges and their cell no longer count
  // against the producers' claims (the whole chunk leaves the depth gauge
  // before it is applied).
  Unclaim(out->size());
  return true;
}

bool ShardWorker::RingReady() const {
  const Cell& cell = ring_[dequeue_pos_ & ring_mask_];
  return cell.seq.load(std::memory_order_seq_cst) == dequeue_pos_ + 1;
}

void ShardWorker::NotifySpaceFreed() {
  // Same Dekker shape as Publish: producers register in space_waiters_
  // (seq_cst) before re-claiming; the worker released its claim (seq_cst)
  // before this load.
  if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    space_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Producer paths.

template <typename MakeChunk>
Status ShardWorker::Admit(std::size_t n, bool allow_partial, bool block,
                          const MakeChunk& make_chunk, std::size_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  if (!allow_partial && n > options_.max_queue) {
    return Status::InvalidArgument("ShardWorker: chunk exceeds max_queue");
  }
  // Taken only on the blocking slow path, where the producer registers as
  // a space waiter before claiming again (Dekker with NotifySpaceFreed) and
  // waits for the worker to free space.
  std::unique_lock<std::mutex> lock(queue_mutex_, std::defer_lock);
  Status result = Status::OK();
  std::size_t done = 0;
  while (done < n) {
    // The stop bit lives in the claimed word, so a claim either precedes
    // Stop() — and the exiting worker, which waits for every claim to be
    // popped, applies the chunk — or fails here. Nothing is accepted and
    // then lost.
    const std::optional<std::size_t> take =
        TryClaim(n - done, allow_partial);
    if (!take.has_value()) {
      result = Status::FailedPrecondition("ShardWorker is stopped");
      break;
    }
    if (*take > 0) {
      Publish(make_chunk(done, *take), lock.owns_lock());
      done += *take;
      if (accepted != nullptr) *accepted = done;
    } else if (!block) {
      // Fail fast. With `accepted`, the prefix that fit stays enqueued and
      // is reported exactly; without it, nothing was enqueued.
      result = Status::OutOfRange("ShardWorker queue full");
      break;
    } else if (!lock.owns_lock()) {
      lock.lock();
      space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    } else {
      space_cv_.wait(lock);
    }
  }
  if (lock.owns_lock()) {
    space_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  return result;
}

Status ShardWorker::Enqueue(std::span<const Edge> edges,
                            std::size_t* accepted, std::vector<Edge>* owned,
                            bool block) {
  return Admit(
      edges.size(), accepted != nullptr, block,
      [edges, owned](std::size_t offset, std::size_t count) {
        // The whole chunk in one piece: the caller's vector becomes the
        // ring slab.
        if (owned != nullptr && count == edges.size() && count > 1) {
          return Chunk(std::move(*owned));
        }
        return Chunk(edges.subspan(offset, count));
      },
      accepted);
}

Status ShardWorker::Submit(const Edge& raw_edge) {
  return SubmitBatch(std::span<const Edge>(&raw_edge, 1));
}

Status ShardWorker::SubmitBatch(std::span<const Edge> raw_edges,
                                std::size_t* accepted) {
  return Enqueue(raw_edges, accepted, nullptr, options_.block_when_full);
}

Status ShardWorker::SubmitBatch(std::vector<Edge>&& chunk,
                                std::size_t* accepted) {
  return Enqueue(chunk, accepted, &chunk, options_.block_when_full);
}

std::size_t ShardWorker::OfferBatch(std::span<const Edge> edges) {
  std::size_t accepted = 0;
  (void)Enqueue(edges, &accepted, nullptr, /*block=*/false);
  return accepted;
}

Status ShardWorker::SubmitRetire(Timestamp horizon) {
  return Admit(
      1, /*allow_partial=*/false, options_.block_when_full,
      [horizon](std::size_t, std::size_t) {
        Chunk marker;
        marker.is_retire = true;
        marker.retire_horizon = horizon;
        return marker;
      },
      nullptr);
}

Status ShardWorker::ClaimBatch(std::size_t k) {
  const std::optional<std::size_t> take = TryClaim(k, false);
  if (!take.has_value()) {
    return Status::FailedPrecondition("ShardWorker is stopped");
  }
  if (*take == 0) return Status::OutOfRange("ShardWorker queue full");
  return Status::OK();
}

void ShardWorker::PublishClaimed(std::vector<Edge>&& chunk) {
  Publish(Chunk(std::move(chunk)), /*queue_locked=*/false);
}

void ShardWorker::ReleaseClaim(std::size_t k) {
  Unclaim(k);
  NotifySpaceFreed();
}

// ---------------------------------------------------------------------------
// Drain / Stop.

bool ShardWorker::DrainFor(std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  const std::uint64_t target = submitted_.load(std::memory_order_seq_cst);
  const auto exact = [this, target] {
    return exact_through_ >= target || worker_exited_;
  };
  if (exact()) return true;
  // The worker flushes the benign buffers and republishes only while a
  // drain waiter is registered (exactness on demand keeps edge-grouping
  // amortization intact between drains), so wake it up.
  ++drain_waiters_;
  work_cv_.notify_one();
  bool reached = true;
  if (timeout.has_value()) {
    reached = drain_cv_.wait_for(lock, *timeout, exact);
  } else {
    drain_cv_.wait(lock, exact);
  }
  --drain_waiters_;
  return reached;
}

void ShardWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    // From here on every claim fails; the worker exits once the claims
    // made before this point are popped.
    queued_.fetch_or(kStopped, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::shared_ptr<const Community> ShardWorker::CurrentSnapshot() const {
  return snapshot_.Load();
}

// ---------------------------------------------------------------------------
// Observability.

std::size_t ShardWorker::TakeRecentHighWater() {
  const std::size_t recent =
      queue_hwm_recent_.exchange(0, std::memory_order_relaxed);
  std::size_t total = queue_hwm_total_.load(std::memory_order_relaxed);
  while (recent > total &&
         !queue_hwm_total_.compare_exchange_weak(
             total, recent, std::memory_order_relaxed)) {
  }
  return recent;
}

void ShardWorker::ResetHighWater() {
  queue_hwm_recent_.store(0, std::memory_order_relaxed);
  queue_hwm_total_.store(0, std::memory_order_relaxed);
}

double ShardWorker::BusyFraction() const {
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  if (wall_ns <= 0.0) return 0.0;
  const double busy =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
  return busy >= wall_ns ? 1.0 : busy / wall_ns;
}

std::vector<std::pair<std::size_t, std::uint64_t>>
ShardWorker::PartitionLoads() {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  std::vector<std::pair<std::size_t, std::uint64_t>> loads;
  loads.reserve(parts_.size());
  for (auto& p : parts_) {
    loads.emplace_back(p->pid, p->recent_load);
    p->recent_load = 0;
  }
  std::sort(loads.begin(), loads.end());
  return loads;
}

// ---------------------------------------------------------------------------
// Partition ownership.

ShardWorker::Partition* ShardWorker::PartitionForLocked(const Edge& edge) {
  return FindPartitionLocked(partition_of_(edge));
}

ShardWorker::Partition* ShardWorker::FindPartitionLocked(std::size_t pid) {
  if (pid < by_pid_.size()) return by_pid_[pid];
  return nullptr;
}

const ShardWorker::Partition* ShardWorker::FindPartitionLocked(
    std::size_t pid) const {
  if (pid < by_pid_.size()) return by_pid_[pid];
  return nullptr;
}

std::unique_ptr<ShardWorker::Partition> ShardWorker::DetachPartition(
    std::size_t pid) {
  std::unique_ptr<Partition> out;
  std::lock_guard<std::mutex> lock(detector_mutex_);
  for (auto it = parts_.begin(); it != parts_.end(); ++it) {
    if ((*it)->pid == pid) {
      out = std::move(*it);
      parts_.erase(it);
      break;
    }
  }
  if (out == nullptr) return nullptr;
  by_pid_[pid] = nullptr;
  owned_partitions_.fetch_sub(1, std::memory_order_relaxed);
  // Republish without the detached partition so a reader never sees a
  // community that two workers both claim (the new owner republishes it on
  // attach).
  PublishArgmaxLocked();
  return out;
}

void ShardWorker::AttachPartition(std::unique_ptr<Partition> partition) {
  SPADE_CHECK(partition != nullptr);
  std::lock_guard<std::mutex> lock(detector_mutex_);
  SPADE_CHECK(partition->pid < by_pid_.size());
  SPADE_CHECK(by_pid_[partition->pid] == nullptr);
  by_pid_[partition->pid] = partition.get();
  parts_.push_back(std::move(partition));
  owned_partitions_.fetch_add(1, std::memory_order_relaxed);
  PublishArgmaxLocked();
}

void ShardWorker::CollectInduced(std::span<const VertexId> vertices,
                                 const std::function<bool(VertexId)>& contains,
                                 std::vector<Edge>* edges,
                                 std::vector<double>* vertex_weight) const {
  SPADE_CHECK(vertex_weight->size() >= vertices.size());
  std::lock_guard<std::mutex> lock(detector_mutex_);
  for (const auto& p : parts_) {
    const DynamicGraph& g = p->spade.graph();
    const std::size_t n = g.NumVertices();
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const VertexId v = vertices[i];
      if (v >= n) continue;  // this partition never saw the vertex
      (*vertex_weight)[i] = std::max((*vertex_weight)[i], g.VertexWeight(v));
      for (const NeighborEntry& e : g.OutNeighbors(v)) {
        if (contains(e.vertex)) {
          edges->push_back(Edge{v, e.vertex, e.weight, 0});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Persistence.

Status ShardWorker::SavePartition(std::size_t pid, const std::string& path) {
  DrainFor();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::SavePartition: partition not owned by this worker");
  }
  // A full save is a checkpoint: whatever history the log held is now
  // covered by the base snapshot, window log included. (SaveState flushes
  // first, so a later chain replays from an empty benign buffer.)
  SPADE_RETURN_NOT_OK(p->spade.SaveState(path));
  p->delta_log.clear();
  p->delta_overflow = false;
  p->delta_tracking = true;
  return Status::OK();
}

Status ShardWorker::SavePartitionDelta(std::size_t pid,
                                       const std::string& path,
                                       std::uint32_t shard,
                                       std::uint64_t prev_epoch,
                                       std::uint64_t epoch,
                                       DeltaSaveInfo* info) {
  DrainFor();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::SavePartitionDelta: partition not owned by this "
        "worker");
  }
  if (!p->delta_tracking) {
    return Status::FailedPrecondition(
        "ShardWorker::SavePartitionDelta: no checkpoint baseline (run a "
        "full SavePartition first)");
  }
  if (p->delta_overflow) {
    return Status::FailedPrecondition(
        "ShardWorker::SavePartitionDelta: delta log overflowed; a full "
        "SavePartition is required");
  }
  // DrainFor detected, and so flushed, every partition, but ingest racing
  // between the drain and the lock above can leave edges buffered. The
  // seal flushes them, as a full save does, so every logged insert is in
  // the graph the segment describes and replay starts from an empty
  // buffer. The partition stays dirty: the next settle detects it.
  SPADE_RETURN_NOT_OK(p->spade.Flush());
  DeltaSegment segment;
  segment.shard = shard;
  segment.prev_epoch = prev_epoch;
  segment.epoch = epoch;
  segment.records = std::move(p->delta_log);
  p->delta_log.clear();
  std::uint64_t bytes = 0;
  const Status s = WriteDeltaSegment(path, segment, &bytes);
  if (!s.ok()) {
    // The write failed but the history is still the truth — put it back so
    // a retry (or a fallback full save) does not lose the chain.
    p->delta_log = std::move(segment.records);
    return s;
  }
  if (info != nullptr) {
    info->bytes = bytes;
    info->records = segment.records.size();
    info->edges = segment.NumEdges();
  }
  return Status::OK();
}

void ShardWorker::AppendDeltaRecord(Partition& p, const DeltaRecord& record) {
  if (!p.delta_tracking || p.delta_overflow) return;
  if (p.delta_log.size() >= kMaxDeltaLog) {
    // Unbounded history is worse than a forced full checkpoint: drop the
    // log, remember the overflow, and let the next SavePartitionDelta fail
    // fast.
    p.delta_log.clear();
    p.delta_log.shrink_to_fit();
    p.delta_overflow = true;
    return;
  }
  p.delta_log.push_back(record);
}

Status ShardWorker::ReplayPartition(std::size_t pid, RestorePlan plan,
                                    std::size_t* merges) {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::ReplayPartition: partition not owned by this worker");
  }
  if (plan.base.has_value()) {
    SPADE_RETURN_NOT_OK(p->spade.RestoreFromParts(std::move(*plan.base)));
  }
  // The whole range in at most two merges (DESIGN.md §5.3). Every record
  // passed CRC validation, so a failure here means the chain does not match
  // the detector, and it surfaces as a Status.
  const auto ran = p->spade.ReplayDelta(plan.segments);
  if (!ran.ok()) {
    return Status(ran.status().code(), "replay of partition " +
                                           std::to_string(pid) + " " +
                                           ran.status().message());
  }
  if (merges != nullptr) *merges = ran.value();
  for (const DeltaSegment& segment : plan.segments) {
    for (const DeltaRecord& record : segment.records) {
      if (record.retire) {
        retired_.fetch_add(record.retired, std::memory_order_relaxed);
      }
    }
  }
  // The detector now matches a sealed checkpoint, so the in-memory history
  // restarts from it (after a base-less replay the owner also drops its
  // chain cache, so the next save is a full base).
  p->delta_log.clear();
  p->delta_overflow = false;
  p->delta_tracking = true;
  // Re-baseline the alert filter on the replayed community and publish it,
  // reading without a flush to keep the replayed benign buffer (Lemma 4.4:
  // buffered edges cannot have improved the community).
  Community replayed = p->spade.peel_state().DetectCommunity();
  p->last_reported = SortedMembers(replayed);
  p->last_density = replayed.density;
  p->since_detect = 0;
  p->current = std::make_shared<const Community>(std::move(replayed));
  PublishArgmaxLocked();
  return Status::OK();
}

void ShardWorker::InspectDetector(
    const std::function<void(const Spade&)>& fn) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  SPADE_CHECK(!parts_.empty());
  fn(parts_.front()->spade);
}

Status ShardWorker::InspectPartition(
    std::size_t pid, const std::function<void(const Spade&)>& fn) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  const Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::InspectPartition: partition not owned by this worker");
  }
  fn(p->spade);
  return Status::OK();
}

std::vector<Edge> ShardWorker::WindowEdges() const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  std::vector<Edge> out;
  for (const Partition* p : by_pid_) {  // ascending pid; null = not owned
    if (p == nullptr) continue;
    out.insert(out.end(), p->spade.window().begin(), p->spade.window().end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Worker loop.

void ShardWorker::PublishArgmaxLocked() {
  std::shared_ptr<const Community> best;
  for (const auto& p : parts_) {
    if (p->current && (!best || p->current->density > best->density)) {
      best = p->current;
    }
  }
  if (!best) best = std::make_shared<const Community>();
  snapshot_.Store(std::move(best));
}

void ShardWorker::DetectAndPublish(Partition& p) {
  // Caller holds detector_mutex_.
  Community community = p.spade.Detect();
  p.since_detect = 0;
  detections_.fetch_add(1, std::memory_order_relaxed);
  std::vector<VertexId> sorted = SortedMembers(community);
  const bool changed =
      sorted != p.last_reported || community.density != p.last_density;
  p.current = std::make_shared<const Community>(std::move(community));
  PublishArgmaxLocked();
  if (!changed) return;
  p.last_reported = std::move(sorted);
  p.last_density = p.current->density;
  alerts_.fetch_add(1, std::memory_order_relaxed);
  if (on_alert_) {
    pending_alerts_.push_back(p.current);
  }
}

bool ShardWorker::ApplyOne(const Edge& edge) {
  std::vector<std::shared_ptr<const Community>> alerts;
  {
    std::lock_guard<std::mutex> apply_lock(detector_mutex_);
    Partition* p = PartitionForLocked(edge);
    if (p == nullptr) {
      // Routed here under a stale partition-map entry (the partition moved
      // away). The edge stays this worker's responsibility — and is NOT
      // yet counted as consumed — until the current owner accepts it.
      forward_backlog_.push_back(edge);
      return false;
    }
    ++consumed_;
    double applied = 0;
    const Status s = p->spade.ApplyEdge(edge, &applied);
    if (s.ok()) {
      // Logged at the applied weight, like the window log: replay never
      // re-runs ESusp.
      AppendDeltaRecord(*p, DeltaRecord::Insert(
                                Edge{edge.src, edge.dst, applied, edge.ts}));
      // Under the detector mutex, like the apply itself: the boundary
      // weights change together with the detector.
      if (on_boundary_) on_boundary_(edge, applied, /*retired=*/false);
      processed_.fetch_add(1, std::memory_order_relaxed);
      ++p->since_detect;
      ++p->recent_load;
      // An urgent edge flushed the benign buffer inside ApplyEdge;
      // detect right away so moderators hear about new fraudsters
      // immediately.
      if (p->spade.PendingBenignEdges() == 0 ||
          p->since_detect >= options_.detect_every) {
        DetectAndPublish(*p);
        alerts = TakePendingAlertsLocked();
      }
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      SPADE_LOG_WARNING() << "ShardWorker dropped edge: " << s.ToString();
    }
  }
  // Deliver with no lock held: a slow moderator delays the next apply
  // on this shard but never blocks producers, readers, or Save/Restore
  // beyond this one callback.
  for (const auto& a : alerts) on_alert_(*a);
  return true;
}

void ShardWorker::FlushForwardBacklog() {
  if (forward_backlog_.empty()) return;
  // Edges whose partition came back (moved away and home again, or the
  // map was republished before we looked) apply locally; the rest forward.
  std::vector<Edge> came_home;
  {
    std::lock_guard<std::mutex> lock(detector_mutex_);
    std::size_t keep = 0;
    for (const Edge& e : forward_backlog_) {
      if (PartitionForLocked(e) != nullptr) {
        came_home.push_back(e);
      } else {
        forward_backlog_[keep++] = e;
      }
    }
    forward_backlog_.resize(keep);
  }
  for (const Edge& e : came_home) ApplyOne(e);
  if (!forward_backlog_.empty()) {
    // Only a worker whose partitions can move away is ever handed an edge
    // it does not own, and such a worker always has somewhere to send it.
    SPADE_CHECK(forward_ != nullptr);
    const std::size_t accepted = forward_(std::span<const Edge>(
        forward_backlog_.data(), forward_backlog_.size()));
    if (accepted > 0) {
      forward_backlog_.erase(forward_backlog_.begin(),
                             forward_backlog_.begin() +
                                 static_cast<std::ptrdiff_t>(accepted));
      std::lock_guard<std::mutex> lock(detector_mutex_);
      consumed_ += accepted;
    }
  }
  // Publish disposal progress so drain predicates see it without waiting
  // for the next round end.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    consumed_q_ = consumed_;
  }
  drain_cv_.notify_all();
}

void ShardWorker::SettleExactness(bool detect) {
  // A backlogged edge has not been applied anywhere yet: the snapshot
  // cannot be exact until the owner accepts it (the timed park retries).
  bool exact = forward_backlog_.empty();
  std::vector<std::shared_ptr<const Community>> alerts;
  std::uint64_t consumed = 0;
  {
    std::lock_guard<std::mutex> apply_lock(detector_mutex_);
    for (auto& p : parts_) {
      if (p->since_detect == 0 && p->spade.PendingBenignEdges() == 0) {
        continue;
      }
      if (!detect) {
        exact = false;
        break;
      }
      DetectAndPublish(*p);
    }
    alerts = TakePendingAlertsLocked();
    consumed = consumed_;
  }
  for (const auto& a : alerts) on_alert_(*a);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    consumed_q_ = consumed;
    // A detect pass leaves the snapshot exact through every consumed edge,
    // whatever still waits in the ring. Without one, only an empty ring
    // advances the cursor; a racing Submit defers it to the next round.
    if (exact && (detect || RingEmpty())) exact_through_ = consumed;
  }
  drain_cv_.notify_all();
}

void ShardWorker::WorkerLoop() {
  std::vector<Edge> batch;
  while (true) {
    // Gather every ready chunk (up to the gather cap) into one application
    // batch — the same amortization the old whole-buffer swap provided. A
    // retire marker ends the round: the pass must see exactly the edges
    // submitted before it (ring order), not ones gathered after.
    batch.clear();
    bool have_retire = false;
    Timestamp retire_horizon = 0;
    {
      Chunk chunk;
      while (batch.size() < kGatherCap && !have_retire &&
             TryPopChunk(&chunk)) {
        if (chunk.is_retire) {
          have_retire = true;
          retire_horizon = chunk.retire_horizon;
        } else if (chunk.is_one) {
          batch.push_back(chunk.one);
        } else if (batch.empty()) {
          // Recycle the batch's old buffer before adopting the slab —
          // steady state circulates slabs through the pool instead of
          // allocating per chunk.
          if (slab_pool_ && batch.capacity() > 0) {
            slab_pool_->Put(std::move(batch));
          }
          batch = std::move(chunk.many);
        } else {
          batch.insert(batch.end(), chunk.many.begin(), chunk.many.end());
          if (slab_pool_) slab_pool_->Put(std::move(chunk.many));
        }
      }
    }

    if (batch.empty() && !have_retire) {
      // Retry the forward backlog before parking: its edges are invisible
      // to the ring, so nothing else would wake us for them.
      if (!forward_backlog_.empty()) FlushForwardBacklog();
      bool make_exact = false;
      bool inflight_claim = false;
      bool exit_loop = false;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        // Park protocol (Dekker with PublishAccepted): set parked_ first,
        // then let the wait predicate re-check the ring. A producer that
        // published before the flag was set is seen by the predicate; one
        // that published after it sees the flag and notifies under the
        // mutex.
        parked_.store(true, std::memory_order_seq_cst);
        const auto ready = [this] {
          return stopping_ || RingReady() ||
                 (drain_waiters_ > 0 && exact_through_ < consumed_q_);
        };
        if (!forward_backlog_.empty()) {
          // Timed park: the backlog's forward target was full or mid-move;
          // poll it instead of sleeping until a producer shows up.
          work_cv_.wait_for(lock, kBacklogRetire, ready);
        } else {
          work_cv_.wait(lock, ready);
        }
        parked_.store(false, std::memory_order_relaxed);
        if (RingReady()) continue;  // new work: loop around and pop it
        if (stopping_) {
          // Exit only when no producer holds a claimed-but-unpublished
          // chunk: a Submit whose claim preceded Stop() was accepted and
          // must still be applied, or "Stop drains queued edges first"
          // silently drops it. The stop bit fails every later claim, and
          // the producer publishes (or releases) momentarily.
          if (RingEmpty()) {
            exit_loop = true;
          } else {
            inflight_claim = true;
          }
        } else {
          // A DrainFor() waiter needs the snapshot brought up to date
          // (flush buffered benign edges, republish); no new edges to
          // apply.
          make_exact = drain_waiters_ > 0 && exact_through_ < consumed_q_;
        }
      }
      if (exit_loop) break;
      if (inflight_claim) {
        std::this_thread::yield();
        continue;
      }
      if (make_exact) SettleExactness(/*detect=*/true);
      continue;
    }

    // The popped chunks already left the budget gauge; wake any blocked
    // producers (only when some are registered — coalesced like wakeups).
    NotifySpaceFreed();

    const auto work_begin = std::chrono::steady_clock::now();
    for (const Edge& edge : batch) {
      ApplyOne(edge);
    }
    if (!forward_backlog_.empty()) FlushForwardBacklog();

    if (have_retire) {
      // Pre-deletion announcement: deletions shrink the graph the moment
      // they apply, but consumers (the sharded service's stitched
      // snapshot) are only told via on_retire_ — a callback fired after
      // the pass used to leave a window where a reader could combine the
      // shrunken live argmax with a stale pre-deletion snapshot. Bump the
      // begin counter and fire on_retire_(0) BEFORE the first deletion so
      // stale state is dropped while the graph still matches it. Only
      // this thread (and Detach, which can only remove work) mutates the
      // window logs, so the peek stays conservative.
      bool will_retire = false;
      {
        std::lock_guard<std::mutex> peek_lock(detector_mutex_);
        will_retire = std::any_of(
            parts_.begin(), parts_.end(), [retire_horizon](const auto& p) {
              const auto& window = p->spade.window();
              return !window.empty() && window.front().ts < retire_horizon;
            });
      }
      if (will_retire) {
        retire_begins_.fetch_add(1, std::memory_order_seq_cst);
        if (on_retire_) on_retire_(0);
      }
      std::vector<std::shared_ptr<const Community>> alerts;
      std::size_t retired_now = 0;
      {
        std::lock_guard<std::mutex> apply_lock(detector_mutex_);
        ++consumed_;  // the marker's one unit of queue budget
        for (auto& p : parts_) {
          // Admission keeps every logged edge in the graph at its logged
          // weight, so a failed retire is a bug.
          const auto retired = p->spade.RetireOlderThan(retire_horizon);
          SPADE_CHECK(retired.ok());
          if (retired.value().empty()) continue;
          // Replay re-runs the same call and checks the recorded count.
          AppendDeltaRecord(
              *p, DeltaRecord::RetirePass(retire_horizon,
                                          retired.value().size()));
          // Retired cross-home edges leave the boundary weights (and feed
          // the stitch trigger) in the same critical section.
          if (on_boundary_) {
            for (const Edge& old : retired.value()) {
              on_boundary_(old, old.weight, /*retired=*/true);
            }
          }
          retired_now += retired.value().size();
          // Deletion can shrink the community or its density — republish
          // (and alert) right away rather than waiting out detect_every.
          DetectAndPublish(*p);
        }
        if (retired_now > 0) {
          retired_.fetch_add(retired_now, std::memory_order_relaxed);
        }
        alerts = TakePendingAlertsLocked();
      }
      for (const auto& a : alerts) on_alert_(*a);
      if (retired_now > 0 && on_retire_) on_retire_(retired_now);
    }

    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - work_begin)
                .count()),
        std::memory_order_relaxed);

    // Round end: publish the consumed count and advance the drain cursor.
    // While a DrainFor() waiter is registered, detect the dirty partitions
    // here, so a save under sustained ingest returns without waiting for an
    // idle round. Otherwise the cursor advances only when the batch
    // happened to end on a fresh detection everywhere, and exactness is
    // produced on demand by the idle branch above.
    bool drain_waiting = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      drain_waiting = drain_waiters_ > 0;
    }
    SettleExactness(/*detect=*/drain_waiting);
  }

  // Shutdown: hand off (or, failing that, drop) any backlogged edges so
  // accounting closes out — a forward target that is itself stopping may
  // refuse them, and a stopped fleet has nowhere better to put them.
  if (!forward_backlog_.empty()) {
    FlushForwardBacklog();
    if (!forward_backlog_.empty()) {
      SPADE_LOG_WARNING() << "ShardWorker exiting with "
                          << forward_backlog_.size()
                          << " unforwardable edges (dropped)";
      dropped_.fetch_add(forward_backlog_.size(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(detector_mutex_);
      consumed_ += forward_backlog_.size();
      forward_backlog_.clear();
    }
  }

  // Final shutdown flush: the ring and the backlog are empty, so this
  // makes the snapshot exact through every consumed edge.
  SettleExactness(/*detect=*/true);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    worker_exited_ = true;
  }
  drain_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace spade
