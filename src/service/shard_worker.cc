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
                         std::shared_ptr<SlabPool> slab_pool)
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
  if (options_.cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(options_.cpu), &set);
    const int rc =
        pthread_setaffinity_np(worker_.native_handle(), sizeof(cpu_set_t),
                               &set);
    if (rc != 0) {
      SPADE_LOG_WARNING() << "ShardWorker: cannot pin worker to CPU "
                          << options_.cpu << " (error " << rc
                          << "); running unpinned";
    }
  }
#else
  if (options_.cpu >= 0) {
    SPADE_LOG_WARNING()
        << "ShardWorker: CPU pinning is unsupported on this platform; "
           "running unpinned";
  }
#endif
}

ShardWorker::~ShardWorker() { Stop(); }

// ---------------------------------------------------------------------------
// Chunk-handoff ring primitives.

std::size_t ShardWorker::ClaimBudget(std::size_t k, bool allow_partial) {
  std::size_t cur = queued_edges_.load(std::memory_order_relaxed);
  std::size_t take = 0;
  do {
    const std::size_t free =
        options_.max_queue - std::min(cur, options_.max_queue);
    take = allow_partial ? std::min(k, free) : (k <= free ? k : 0);
    if (take == 0) return 0;
  } while (!queued_edges_.compare_exchange_weak(
      cur, cur + take, std::memory_order_seq_cst,
      std::memory_order_relaxed));
  const std::size_t depth = cur + take;
  std::size_t hwm = queue_hwm_recent_.load(std::memory_order_relaxed);
  while (depth > hwm &&
         !queue_hwm_recent_.compare_exchange_weak(
             hwm, depth, std::memory_order_relaxed)) {
  }
  return take;
}

bool ShardWorker::TryClaimBudget(std::size_t k) {
  return ClaimBudget(k, /*allow_partial=*/false) == k;
}

std::size_t ShardWorker::TryClaimUpTo(std::size_t k) {
  return ClaimBudget(k, /*allow_partial=*/true);
}

void ShardWorker::ReleaseBudget(std::size_t k) {
  queued_edges_.fetch_sub(k, std::memory_order_seq_cst);
}

bool ShardWorker::TryPushChunk(Chunk&& chunk) {
  std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = ring_[pos & ring_mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.chunk = std::move(chunk);
        // seq_cst publish: pairs with the worker's park-protocol RingReady
        // load (Dekker — see PublishAccepted).
        cell.seq.store(pos + 1, std::memory_order_seq_cst);
        return true;
      }
    } else if (dif < 0) {
      return false;  // ring out of cells
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
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
  // The handoff is complete: these edges no longer count against the
  // producer budget (matching the old swap semantics, where the whole
  // buffer left the depth gauge before it was applied).
  ReleaseBudget(out->size());
  return true;
}

bool ShardWorker::RingReady() const {
  const Cell& cell = ring_[dequeue_pos_ & ring_mask_];
  return cell.seq.load(std::memory_order_seq_cst) == dequeue_pos_ + 1;
}

void ShardWorker::PublishAccepted(std::size_t k) {
  submitted_.fetch_add(k, std::memory_order_seq_cst);
  // Wakeup coalescing (Dekker): the producer published its cell seq
  // (seq_cst) before this load; the worker sets parked_ (seq_cst) before
  // its RingReady check. Whichever ran second sees the other's write, so
  // either the worker finds the chunk on its own or we find parked_ set
  // and wake it — never both asleep.
  if (parked_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    work_cv_.notify_one();
  }
}

void ShardWorker::NotifySpaceFreed() {
  // Same Dekker shape as PublishAccepted: producers register in
  // space_waiters_ (seq_cst) before re-checking the budget; the worker
  // released budget (seq_cst) before this load.
  if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    space_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Producer paths.

Status ShardWorker::Submit(const Edge& raw_edge) {
  return EnqueueImpl(std::span<const Edge>(&raw_edge, 1), nullptr);
}

Status ShardWorker::SubmitBatch(std::span<const Edge> raw_edges,
                                std::size_t* accepted) {
  return EnqueueImpl(raw_edges, accepted);
}

Status ShardWorker::SubmitBatch(std::vector<Edge>&& chunk,
                                std::size_t* accepted) {
  return EnqueueImpl(std::span<const Edge>(chunk.data(), chunk.size()),
                     accepted, &chunk);
}

std::size_t ShardWorker::OfferBatch(std::span<const Edge> edges) {
  if (edges.empty()) return 0;
  if (stopping_flag_.load(std::memory_order_acquire)) return 0;
  const std::size_t take = TryClaimUpTo(edges.size());
  if (take == 0) return 0;
  // Post-claim stop re-check, same as EnqueueImpl: an accepted-then-lost
  // chunk is worse than a rejected one.
  if (stopping_flag_.load(std::memory_order_seq_cst)) {
    ReleaseBudget(take);
    return 0;
  }
  Chunk chunk(edges.subspan(0, take));
  if (!TryPushChunk(std::move(chunk))) {
    ReleaseBudget(take);
    return 0;
  }
  PublishAccepted(take);
  return take;
}

Status ShardWorker::SubmitRetire(Timestamp horizon) {
  if (stopping_flag_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardWorker is stopped");
  }
  // Same lock-free fast path as EnqueueImpl, claiming one edge of budget
  // for the marker (including the post-claim stop re-check — see
  // EnqueueImpl for why it must follow the claim).
  if (TryClaimBudget(1)) {
    if (stopping_flag_.load(std::memory_order_seq_cst)) {
      ReleaseBudget(1);
      return Status::FailedPrecondition("ShardWorker is stopped");
    }
    Chunk chunk;
    chunk.is_retire = true;
    chunk.retire_horizon = horizon;
    if (TryPushChunk(std::move(chunk))) {
      PublishAccepted(1);
      return Status::OK();
    }
    ReleaseBudget(1);
  }
  if (!options_.block_when_full) {
    return Status::OutOfRange("ShardWorker queue full");
  }
  std::unique_lock<std::mutex> lock(queue_mutex_);
  space_waiters_.fetch_add(1, std::memory_order_seq_cst);
  Status result = Status::OK();
  for (;;) {
    if (stopping_) {
      result = Status::FailedPrecondition("ShardWorker is stopped");
      break;
    }
    if (TryClaimBudget(1)) {
      Chunk chunk;
      chunk.is_retire = true;
      chunk.retire_horizon = horizon;
      if (TryPushChunk(std::move(chunk))) {
        submitted_.fetch_add(1, std::memory_order_seq_cst);
        work_cv_.notify_one();
        break;
      }
      ReleaseBudget(1);
    }
    space_cv_.wait(lock);
  }
  space_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

Status ShardWorker::EnqueueImpl(std::span<const Edge> edges,
                                std::size_t* accepted,
                                std::vector<Edge>* owned) {
  if (accepted != nullptr) *accepted = 0;
  if (edges.empty()) return Status::OK();
  if (stopping_flag_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardWorker is stopped");
  }
  const bool allow_partial = accepted != nullptr;
  if (!allow_partial && edges.size() > options_.max_queue) {
    return Status::InvalidArgument(
        "ShardWorker::SubmitBatch: chunk exceeds max_queue");
  }

  std::size_t done = 0;
  // Lock-free fast path: claim budget, claim a cell, publish.
  {
    const std::size_t want = edges.size();
    const std::size_t take =
        allow_partial ? TryClaimUpTo(want)
                      : (TryClaimBudget(want) ? want : 0);
    if (take > 0) {
      // Re-check the stop flag AFTER the claim (seq_cst on both sides):
      // either this load sees the flag and we release + fail, or the
      // claim precedes the flag store in the seq_cst order — and then the
      // exiting worker's queued_edges_==0 check (which runs after the
      // flag store) must observe the claim and keep draining. Without
      // this, a producer that read the flag as false before Stop() could
      // publish into a ring nobody will ever pop: accepted, then lost.
      if (stopping_flag_.load(std::memory_order_seq_cst)) {
        ReleaseBudget(take);
        return Status::FailedPrecondition("ShardWorker is stopped");
      }
      const bool moved_owned =
          owned != nullptr && take == edges.size() && take > 1;
      Chunk chunk = moved_owned ? Chunk(std::move(*owned))
                                : Chunk(edges.subspan(0, take));
      if (TryPushChunk(std::move(chunk))) {
        PublishAccepted(take);
        done = take;
        if (accepted != nullptr) *accepted = done;
        if (done == edges.size()) return Status::OK();
      } else {
        ReleaseBudget(take);
        if (moved_owned) {
          // TryPushChunk does not consume on failure; hand the storage
          // back so `edges` (a span over it) stays valid for the slow
          // path and the caller keeps its intact chunk on error.
          *owned = std::move(chunk.many);
        }
      }
    }
  }
  if (!options_.block_when_full) {
    // Fail fast. With `accepted`, the prefix that fit stays enqueued and
    // is reported exactly; without it, nothing was enqueued.
    return Status::OutOfRange("ShardWorker queue full");
  }

  // Blocking slow path: register as a space waiter and hand the remainder
  // over (in one piece, or — with `accepted` — in pieces) as the worker
  // frees space.
  std::unique_lock<std::mutex> lock(queue_mutex_);
  space_waiters_.fetch_add(1, std::memory_order_seq_cst);
  bool stopped = false;
  while (done < edges.size()) {
    if (stopping_) {
      stopped = true;
      break;
    }
    const std::size_t want = edges.size() - done;
    const std::size_t take =
        allow_partial ? TryClaimUpTo(want)
                      : (TryClaimBudget(want) ? want : 0);
    if (take > 0) {
      Chunk chunk(edges.subspan(done, take));
      if (TryPushChunk(std::move(chunk))) {
        // Already under queue_mutex_ — notify the worker directly instead
        // of PublishAccepted's lock-taking coalesced wakeup.
        submitted_.fetch_add(take, std::memory_order_seq_cst);
        work_cv_.notify_one();
        done += take;
        if (accepted != nullptr) *accepted = done;
        continue;
      }
      ReleaseBudget(take);
    }
    space_cv_.wait(lock);
  }
  space_waiters_.fetch_sub(1, std::memory_order_relaxed);
  if (stopped) {
    return Status::FailedPrecondition("ShardWorker is stopped");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Drain / Stop.

void ShardWorker::Drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  const std::uint64_t target = submitted_.load(std::memory_order_seq_cst);
  if (exact_through_ >= target || worker_exited_) return;
  // The worker flushes the benign buffers and republishes only while a
  // drain waiter is registered (exactness on demand keeps edge-grouping
  // amortization intact between drains), so wake it up.
  ++drain_waiters_;
  work_cv_.notify_one();
  drain_cv_.wait(lock, [this, target] {
    return exact_through_ >= target || worker_exited_;
  });
  --drain_waiters_;
}

bool ShardWorker::DrainFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  const std::uint64_t target = submitted_.load(std::memory_order_seq_cst);
  if (exact_through_ >= target || worker_exited_) return true;
  ++drain_waiters_;
  work_cv_.notify_one();
  const bool reached = drain_cv_.wait_for(lock, timeout, [this, target] {
    return exact_through_ >= target || worker_exited_;
  });
  --drain_waiters_;
  return reached;
}

void ShardWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    // seq_cst: pairs with the producers' post-claim re-check (EnqueueImpl)
    // and the worker's exit-time queued_edges_ check.
    stopping_flag_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::shared_ptr<const Community> ShardWorker::CurrentSnapshot() const {
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  return snapshot_.load();
#else
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
#endif
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
  Drain();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::SavePartition: partition not owned by this worker");
  }
  // A full save is a checkpoint: whatever history the log held is now
  // covered by the base snapshot, window log included. (SaveState flushes
  // first; a later chain replays from that flushed state, so no marker
  // needs to survive the reset.)
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
  Drain();
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

void ShardWorker::RebaselineLocked(Partition& p) {
  // Re-baseline the alert filter on the restored community and cache it so
  // readers switch over atomically (the caller republishes the argmax).
  // The non-flushing read preserves the replayed benign buffer (Lemma 4.4:
  // buffered edges cannot have improved the community, so the baseline is
  // the same either way).
  Community restored = p.spade.peel_state().DetectCommunity();
  p.last_reported = SortedMembers(restored);
  p.last_density = restored.density;
  p.since_detect = 0;
  p.current = std::make_shared<const Community>(std::move(restored));
}

Status ShardWorker::ReplayLocked(Partition& p,
                                 std::span<const DeltaSegment> segments) {
  // Replay the applied history through the same entry points the live
  // worker used. Every record passed CRC validation, so a failure here
  // means the chain does not match the detector it replays into — and it
  // surfaces as a Status, not a partial silent state.
  for (const DeltaSegment& segment : segments) {
    for (const DeltaRecord& record : segment.records) {
      if (record.flush) {
        SPADE_RETURN_NOT_OK(p.spade.Flush());
      } else if (record.retire) {
        const auto retired = p.spade.RetireOlderThan(record.horizon);
        if (!retired.ok()) return retired.status();
        if (retired.value().size() != record.retired) {
          return Status::Internal(
              "replay of partition " + std::to_string(p.pid) + " epoch " +
              std::to_string(segment.epoch) + ": retire pass retired " +
              std::to_string(retired.value().size()) + " edges, recorded " +
              std::to_string(record.retired));
        }
        retired_.fetch_add(record.retired, std::memory_order_relaxed);
      } else {
        SPADE_RETURN_NOT_OK(p.spade.ApplyEdge(record.edge));
      }
    }
  }
  // The replayed records came from a sealed checkpoint: the detector now
  // matches that checkpoint, so the in-memory history restarts from it
  // (after a segment replay the owner also invalidates its chain cache,
  // making the next save a full base — see
  // ShardedDetectionService::ApplyChainEpoch).
  p.delta_log.clear();
  p.delta_overflow = false;
  p.delta_tracking = true;
  RebaselineLocked(p);
  PublishArgmaxLocked();
  return Status::OK();
}

Status ShardWorker::RestorePartitionChain(std::size_t pid,
                                          RestorePlan&& plan) {
  Drain();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::RestorePartitionChain: partition not owned by this "
        "worker");
  }
  SPADE_RETURN_NOT_OK(p->spade.RestoreFromParts(std::move(plan.base)));
  return ReplayLocked(*p, plan.segments);
}

Status ShardWorker::ReplayPartitionSegment(
    std::size_t pid, const DeltaSegment& segment,
    std::chrono::milliseconds drain_timeout) {
  if (!DrainFor(drain_timeout)) {
    return Status::FailedPrecondition(
        "ReplayPartitionSegment: shard queue did not drain within " +
        std::to_string(drain_timeout.count()) + "ms");
  }
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::ReplayPartitionSegment: partition not owned by this "
        "worker");
  }
  return ReplayLocked(*p, std::span<const DeltaSegment>(&segment, 1));
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
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  snapshot_.store(std::move(best));
#else
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(best);
#endif
}

void ShardWorker::DetectAndPublish(Partition& p) {
  // Caller holds detector_mutex_.
  if (p.spade.PendingBenignEdges() > 0) {
    // Detect() is about to fold the benign buffer in; the replayed history
    // must flush at exactly this point to stay bit-identical (the flush
    // changes the graph, and state-dependent semantics weigh later edges
    // against it).
    AppendDeltaRecord(p, DeltaRecord::Flush());
  }
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
      AppendDeltaRecord(*p, DeltaRecord::Insert(edge));
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

void ShardWorker::MakeExact() {
  std::vector<std::shared_ptr<const Community>> alerts;
  {
    std::lock_guard<std::mutex> apply_lock(detector_mutex_);
    for (auto& p : parts_) {
      if (p->since_detect > 0 || p->spade.PendingBenignEdges() > 0) {
        DetectAndPublish(*p);
      }
    }
    alerts = TakePendingAlertsLocked();
  }
  for (const auto& a : alerts) on_alert_(*a);
  // A backlogged edge has not been applied anywhere yet: the snapshot
  // cannot be exact until the owner accepts it (the timed park retries).
  if (!forward_backlog_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Only an empty ring makes the snapshot exact; a racing Submit defers
    // exactness to the next round.
    if (queued_edges_.load(std::memory_order_seq_cst) == 0) {
      exact_through_ = consumed_q_;
    }
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
          // chunk (claims raise queued_edges_ before the cell publish):
          // a Submit that raced Stop() and was accepted must still be
          // applied, or "Stop drains queued edges first" silently drops
          // it. The producer publishes or releases momentarily.
          if (queued_edges_.load(std::memory_order_seq_cst) == 0) {
            exit_loop = true;
          } else {
            inflight_claim = true;
          }
        } else {
          // A Drain() waiter needs the snapshot brought up to date (flush
          // buffered benign edges, republish); no new edges to apply.
          make_exact = drain_waiters_ > 0 && exact_through_ < consumed_q_;
        }
      }
      if (exit_loop) break;
      if (inflight_claim) {
        std::this_thread::yield();
        continue;
      }
      if (make_exact) MakeExact();
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

    // Round-end exactness: every partition detected-and-flushed, and no
    // backlogged edge awaiting its owner.
    bool exact_after_batch = forward_backlog_.empty();
    if (exact_after_batch) {
      std::lock_guard<std::mutex> apply_lock(detector_mutex_);
      for (const auto& p : parts_) {
        if (p->since_detect != 0 || p->spade.PendingBenignEdges() != 0) {
          exact_after_batch = false;
          break;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      consumed_q_ = consumed_;
      // Cheap advance: if the batch happened to end on a fresh detection,
      // the published snapshot is already exact and a later Drain() needs
      // no worker round-trip. Otherwise exactness is produced on demand by
      // the MakeExact branch above.
      if (exact_after_batch &&
          queued_edges_.load(std::memory_order_seq_cst) == 0) {
        exact_through_ = consumed_q_;
      }
    }
    drain_cv_.notify_all();
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

  // Final shutdown flush.
  {
    std::vector<std::shared_ptr<const Community>> alerts;
    {
      std::lock_guard<std::mutex> apply_lock(detector_mutex_);
      for (auto& p : parts_) {
        if (p->since_detect > 0 || p->spade.PendingBenignEdges() > 0) {
          DetectAndPublish(*p);
        }
      }
      alerts = TakePendingAlertsLocked();
    }
    for (const auto& a : alerts) on_alert_(*a);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    worker_exited_ = true;
    exact_through_ = consumed_;
  }
  drain_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace spade
