#include "service/sharded_detection_service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "graph/dynamic_graph.h"
#include "peel/static_peeler.h"
#include "service/router_scratch.h"
#include "storage/checked_io.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"
#include "storage/snapshot.h"

namespace spade {

namespace {

/// splitmix64 finalizer: adjacent vertex ids land on unrelated shards.
std::size_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

Partitioner HashOfSourcePartitioner() {
  return [](VertexId v) { return SplitMix(v); };
}

Partitioner TenantPartitioner(VertexId vertices_per_tenant) {
  SPADE_CHECK(vertices_per_tenant > 0);
  return [vertices_per_tenant](VertexId v) -> std::size_t {
    return v / vertices_per_tenant;
  };
}

namespace {

/// Stop()'s bound on the drain that lets forwarded backlogs hand off
/// before the workers stop accepting.
constexpr std::chrono::milliseconds kStopSettle{400};

/// One partition scratch per producer thread, shared across services: a
/// chunk is partitioned and handed over within one SubmitBatch call, so
/// nothing aliases, and the arenas amortize to zero allocations per batch.
RouterScratch& TlsRouterScratch() {
  thread_local RouterScratch scratch;
  return scratch;
}

// fetch_add on atomic<double> is C++20-and-up; the CAS loop is the portable
// spelling and contends only when two workers land on the same shard pair in
// the same instant. Returns the pre-add value.
double AtomicAddDouble(std::atomic<double>& slot, double delta) {
  double seen = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(seen, seen + delta,
                                     std::memory_order_relaxed)) {
  }
  return seen;
}

}  // namespace

namespace {

/// Worker count for a fleet of `num_partitions` detectors at
/// `partitions_per_shard` granularity (0 counts as 1; divisibility is
/// checked in the constructor body, after this feeds the map size).
std::size_t WorkerCountFor(std::size_t num_partitions,
                           std::size_t partitions_per_shard) {
  const std::size_t pps = std::max<std::size_t>(1, partitions_per_shard);
  return std::max<std::size_t>(1, num_partitions / pps);
}

}  // namespace

ShardedDetectionService::ShardedDetectionService(
    std::vector<Spade> shards, ShardAlertFn on_alert,
    ShardedDetectionServiceOptions options)
    : options_(std::move(options)),
      on_alert_(std::move(on_alert)),
      map_(shards.size(),
           WorkerCountFor(shards.size(),
                          options_.rebalance.partitions_per_shard)),
      slab_pool_(std::make_shared<SlabPool>()),
      boundary_(shards.size()) {
  SPADE_CHECK(!shards.empty());
  const std::size_t pps =
      std::max<std::size_t>(1, options_.rebalance.partitions_per_shard);
  SPADE_CHECK(shards.size() % pps == 0);
  const std::size_t num_partitions = shards.size();
  const std::size_t num_workers = num_partitions / pps;
  if (!options_.partitioner) options_.partitioner = HashOfSourcePartitioner();
  semantics_ = shards.front().semantics_name();
  const bool trigger_armed =
      options_.stitch.trigger_weight > 0.0 && num_partitions > 1;
  if (trigger_armed) {
    const std::size_t pairs = num_partitions * num_partitions;
    pair_weight_ = std::make_unique<std::atomic<double>[]>(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      pair_weight_[i].store(0.0, std::memory_order_relaxed);
    }
  }
  // Count the initial graphs' cross-home edges before any worker exists;
  // from here on the workers' hooks keep the counts current.
  for (std::size_t pid = 0; pid < num_partitions; ++pid) {
    RecountBoundary(pid, shards[pid]);
  }
  // Workers start their threads inside the ShardWorker constructor, so the
  // boundary hook may fire while this loop is still building later shards.
  // It must not read workers_.size(); the partition count is captured
  // instead.
  BoundaryUpdateFn boundary_hook;
  if (num_partitions > 1) {
    boundary_hook = [this, num_partitions](const Edge& e, double applied,
                                           bool retired) {
      OnBoundaryUpdate(num_partitions, e, applied, retired);
    };
  }
  // Routing and forwarding closures read `this->map_` and
  // `this->options_.partitioner` — both fully built before any worker
  // exists. Fixed fleets get the same closures as rebalancing ones: their
  // partitions never move, so the forward path simply never runs.
  const PartitionOfFn partition_of = [this](const Edge& e) {
    return PartitionOf(e);
  };
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    FraudAlertFn shard_alert;
    if (on_alert_) {
      shard_alert = [this, i](const Community& c) { on_alert_(i, c); };
    }
    const int cpu = options_.shard_cpus.empty()
                        ? -1
                        : options_.shard_cpus[i % options_.shard_cpus.size()];
    ForwardFn forward = [this, i](std::span<const Edge> edges) {
      return RouteForward(i, edges);
    };
    // Initial placement: partition pid lives on worker pid % num_workers
    // (matching the PartitionMap's epoch-0 entries).
    std::vector<ShardWorker::PartitionSeed> seeds;
    seeds.reserve(pps);
    for (std::size_t pid = i; pid < num_partitions; pid += num_workers) {
      // A windowed fleet expires through each detector's own window log.
      if (options_.window.span > 0) shards[pid].TurnOnWindowLog();
      seeds.push_back(
          ShardWorker::PartitionSeed{pid, std::move(shards[pid])});
    }
    workers_.push_back(std::make_unique<ShardWorker>(
        std::move(seeds), num_partitions, partition_of, std::move(forward),
        std::move(shard_alert), options_.shard, boundary_hook, slab_pool_,
        cpu));
  }
  // The interval path runs for a single shard too: a stitch pass there is
  // just "publish the one shard's snapshot with provenance", which is what
  // makes CurrentGlobalCommunity() well-defined (stitch_passes advances,
  // shards == {0}) instead of silently never stitching.
  if (options_.stitch.interval_ms > 0 || trigger_armed) {
    stitcher_ = std::thread([this] { StitcherLoop(); });
  }
  if (options_.rebalance.interval_ms > 0) {
    rebalancer_ = std::thread([this] { RebalancerLoop(); });
  }
}

ShardedDetectionService::~ShardedDetectionService() { Stop(); }

std::size_t ShardedDetectionService::PartitionOf(const Edge& raw_edge) const {
  // The STABLE routing key: a partition id never changes for an edge, only
  // the partition's owner shard does (through map_). Keying on the source
  // home makes per-partition order equal per-source order.
  return spade::PartitionOf(options_.partitioner, map_.num_partitions(),
                            raw_edge);
}

std::size_t ShardedDetectionService::ShardOf(const Edge& raw_edge) const {
  return map_.ShardOf(PartitionOf(raw_edge));
}

std::size_t ShardedDetectionService::HomeShardOf(VertexId v) const {
  return map_.ShardOf(options_.partitioner(v) % map_.num_partitions());
}

void ShardedDetectionService::SeedBoundaryIndex(std::span<const Edge>) {}

namespace {

/// Adds one cross-home edge's endpoints to a boundary weight map, or (for
/// `retired`) subtracts them; a vertex leaves the map when its count
/// reaches 0.
void ApplyBoundaryEdge(std::unordered_map<VertexId, BoundaryWeight>* weight,
                       const Edge& edge, double applied, bool retired) {
  for (const VertexId v : {edge.src, edge.dst}) {
    if (!retired) {
      BoundaryWeight& w = (*weight)[v];
      w.weight += applied;
      ++w.count;
      continue;
    }
    const auto it = weight->find(v);
    // A retire can miss only in the instant between a restore's replay and
    // its recount, which rebuilds the map anyway.
    if (it == weight->end()) continue;
    it->second.weight -= applied;
    if (--it->second.count == 0) weight->erase(it);
  }
}

}  // namespace

void ShardedDetectionService::OnBoundaryUpdate(std::size_t num_partitions,
                                               const Edge& edge,
                                               double applied, bool retired) {
  const std::size_t src_home = options_.partitioner(edge.src) % num_partitions;
  const std::size_t dst_home = options_.partitioner(edge.dst) % num_partitions;
  if (src_home == dst_home) return;
  {
    // At the APPLIED semantic weight (what the detector credited), inside
    // the worker's apply critical section, so the weights always describe
    // exactly the edges in the detectors. Keyed by the storing partition
    // (the source's home): a rebalance moves detectors between workers but
    // never renames a partition.
    PartitionBoundary& b = boundary_[src_home];
    std::lock_guard<std::mutex> lock(b.mutex);
    ApplyBoundaryEdge(&b.weight, edge, applied, retired);
    b.entries.store(b.weight.size(), std::memory_order_relaxed);
    if (!retired) {
      b.edges.fetch_add(1, std::memory_order_relaxed);
      boundary_recorded_.fetch_add(1, std::memory_order_relaxed);
    } else if (b.edges.load(std::memory_order_relaxed) > 0) {
      // Zero only in the same restore instant ApplyBoundaryEdge tolerates.
      b.edges.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (!pair_weight_) return;
  // Insert AND retire deltas both count toward the trigger: either one
  // moves the seam's true density away from what the last pass measured.
  std::atomic<double>& slot =
      pair_weight_[src_home * num_partitions + dst_home];
  const double before = AtomicAddDouble(slot, std::abs(applied));
  const double threshold = options_.stitch.trigger_weight;
  if (before < threshold && before + std::abs(applied) >= threshold) {
    stitch_triggers_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stitcher_mutex_);
      trigger_pending_ = true;
    }
    stitcher_cv_.notify_all();
  }
}

void ShardedDetectionService::RecountBoundary(std::size_t pid,
                                              const Spade& detector) {
  const std::size_t n = boundary_.size();
  if (n == 1) return;  // one partition: every edge is same-home
  const auto home = [&](VertexId v) { return options_.partitioner(v) % n; };
  std::unordered_map<VertexId, BoundaryWeight> weight;
  std::uint64_t edges = 0;
  const auto count = [&](VertexId src, std::size_t src_home, VertexId dst,
                         double w) {
    if (home(dst) == src_home) return;
    ApplyBoundaryEdge(&weight, Edge{src, dst, w, 0}, w, /*retired=*/false);
    ++edges;
  };
  const DynamicGraph& g = detector.graph();
  for (std::size_t u = 0; u < g.NumVertices(); ++u) {
    const auto src = static_cast<VertexId>(u);
    const std::vector<NeighborEntry>& out = g.OutNeighbors(src);
    if (out.empty()) continue;
    const std::size_t src_home = home(src);
    for (const NeighborEntry& e : out) count(src, src_home, e.vertex, e.weight);
  }
  // Buffered benign edges are in the detector too, just not yet in its
  // graph; the hook counted them when they were applied.
  for (const Edge& e : detector.benign_buffer()) {
    count(e.src, home(e.src), e.dst, e.weight);
  }
  PartitionBoundary& b = boundary_[pid];
  std::lock_guard<std::mutex> lock(b.mutex);
  b.weight = std::move(weight);
  b.edges.store(edges, std::memory_order_relaxed);
  b.entries.store(b.weight.size(), std::memory_order_relaxed);
}

std::unordered_map<VertexId, BoundaryWeight>
ShardedDetectionService::BoundaryWeights() const {
  std::unordered_map<VertexId, BoundaryWeight> merged;
  for (const PartitionBoundary& b : boundary_) {
    std::lock_guard<std::mutex> lock(b.mutex);
    for (const auto& [v, w] : b.weight) {
      BoundaryWeight& m = merged[v];
      m.weight += w.weight;
      m.count += w.count;
    }
  }
  return merged;
}

void ShardedDetectionService::ObserveTimestamp(Timestamp ts) {
  // CAS-max: concurrent producers race, the highest timestamp wins. This
  // is the window policy's entire hot-path cost — one relaxed RMW per
  // edge (per chunk on the batched path).
  Timestamp seen = watermark_.load(std::memory_order_relaxed);
  while (ts > seen && !watermark_.compare_exchange_weak(
                          seen, ts, std::memory_order_relaxed)) {
  }
  const Timestamp mark = std::max(ts, seen);
  if (mark <= options_.window.span) return;  // window not yet full
  const Timestamp horizon = mark - options_.window.span;
  Timestamp stride = options_.window.stride;
  if (stride <= 0) {
    stride = std::max<Timestamp>(1, options_.window.span / 8);
  }
  // One producer wins each stride trigger; the CAS loop keeps losers from
  // re-firing the same horizon.
  Timestamp last = last_horizon_.load(std::memory_order_relaxed);
  for (;;) {
    if (horizon < last + stride) return;
    if (last_horizon_.compare_exchange_weak(last, horizon,
                                            std::memory_order_relaxed)) {
      break;
    }
  }
  for (auto& w : workers_) {
    // A full queue in fail-fast mode can reject the marker. Dropping it is
    // safe: a retire pass expires everything older than its horizon, so
    // the next stride trigger covers whatever this one missed.
    const Status s = w->SubmitRetire(horizon);
    if (!s.ok() && s.code() != StatusCode::kOutOfRange) {
      SPADE_LOG_WARNING() << "window retire trigger failed: " << s.ToString();
    }
  }
}

void ShardedDetectionService::ObserveBatchTimestamps(
    std::span<const Edge> raw_edges) {
  Timestamp max_ts = raw_edges.front().ts;
  for (const Edge& e : raw_edges) max_ts = std::max(max_ts, e.ts);
  ObserveTimestamp(max_ts);
}

Status ShardedDetectionService::RetireOlderThan(Timestamp horizon) {
  if (options_.window.span <= 0) {
    return Status::FailedPrecondition(
        "RetireOlderThan: window expiry is off (WindowOptions::span == 0)");
  }
  Status first_error = Status::OK();
  for (auto& w : workers_) {
    const Status s = w->SubmitRetire(horizon);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

bool ShardedDetectionService::NoDeletionSince(
    const std::vector<std::uint64_t>& generations) const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->DeletionGeneration() != generations[i]) return false;
  }
  return true;
}

std::uint64_t ShardedDetectionService::EdgesRetired() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->EdgesRetired();
  return total;
}

std::vector<Edge> ShardedDetectionService::ShardWindow(
    std::size_t shard) const {
  SPADE_CHECK(shard < workers_.size());
  return workers_[shard]->WindowEdges();
}

Status ShardedDetectionService::Submit(const Edge& raw_edge) {
  if (options_.window.span > 0) ObserveTimestamp(raw_edge.ts);
  const std::size_t n = workers_.size();
  if (n == 1) return workers_[0]->Submit(raw_edge);
  // The router only routes: the worker counts a cross-home edge into the
  // boundary weights at its APPLIED weight as it applies it
  // (OnBoundaryUpdate), so FD's state-dependent weights agree too.
  //
  // Routing is two loads: the stable partition key, then one acquire read
  // through the lock-free partition map to the current owner. A racing
  // rebalance can direct this edge at the just-vacated owner; the worker's
  // apply loop notices the foreign pid and forwards it (never drops it).
  return workers_[map_.ShardOf(PartitionOf(raw_edge))]->Submit(raw_edge);
}

Status ShardedDetectionService::SubmitBatch(std::span<const Edge> raw_edges,
                                            std::size_t* enqueued) {
  if (enqueued != nullptr) *enqueued = 0;
  if (raw_edges.empty()) return Status::OK();
  if (options_.window.span > 0) ObserveBatchTimestamps(raw_edges);
  if (workers_.size() == 1) {
    // Single-shard fast path: no partitioning, no boundary edges — the
    // chunk hands over as-is (accepted accounting included when asked).
    std::size_t accepted = 0;
    const Status s = workers_[0]->SubmitBatch(
        raw_edges, enqueued != nullptr ? &accepted : nullptr);
    if (enqueued != nullptr) *enqueued = accepted;
    return s;
  }
  RouterScratch& scratch = TlsRouterScratch();
  scratch.Partition(options_.partitioner, map_, workers_.size(), raw_edges,
                    slab_pool_.get());
  // Boundary counting happens on the worker apply path (see Submit); the
  // batched router's only job is splitting the chunk into per-shard slabs.
  // Move-through: each scratch-built slab becomes a ring slab, so the whole
  // batched path copies each edge exactly once.
  const std::size_t n = workers_.size();
  if (enqueued == nullptr) {
    // All-or-nothing across shards: refuse a part that can never fit
    // before enqueuing anything. In fail-fast mode, claim every part before
    // publishing any, and hand every claim back on a refusal; a blocking
    // part waits for space, so there only a stopping fleet refuses one.
    for (std::size_t s = 0; s < n; ++s) {
      if (scratch.Part(s).size() > options_.shard.max_queue) {
        return Status::InvalidArgument(
            "SubmitBatch: a shard's part exceeds max_queue");
      }
    }
    if (!options_.shard.block_when_full) {
      for (std::size_t s = 0; s < n; ++s) {
        if (scratch.Part(s).empty()) continue;
        const Status claimed =
            workers_[s]->ClaimBatch(scratch.Part(s).size());
        if (claimed.ok()) continue;
        for (std::size_t r = 0; r < s; ++r) {
          if (!scratch.Part(r).empty()) {
            workers_[r]->ReleaseClaim(scratch.Part(r).size());
          }
        }
        return claimed;
      }
      for (std::size_t s = 0; s < n; ++s) {
        if (!scratch.Part(s).empty()) {
          workers_[s]->PublishClaimed(scratch.TakePart(s));
        }
      }
      return Status::OK();
    }
  }
  Status first_error = Status::OK();
  for (std::size_t s = 0; s < n; ++s) {
    if (scratch.Part(s).empty()) continue;
    std::size_t accepted = 0;
    const Status status = workers_[s]->SubmitBatch(
        scratch.TakePart(s), enqueued != nullptr ? &accepted : nullptr);
    if (enqueued != nullptr) *enqueued += accepted;
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

std::uint64_t ShardedDetectionService::TotalSubmitted() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->Submitted();
  return total;
}

void ShardedDetectionService::Drain() { DrainFor(std::nullopt); }

bool ShardedDetectionService::DrainFor(
    std::optional<std::chrono::milliseconds> timeout) {
  // Forwarding means one pass is not enough: an edge that raced a
  // partition move re-enters the NEW owner's queue, possibly after that
  // worker's drain already returned. Iterate to a fixpoint — when a full
  // pass completes and the fleet-wide submitted count did not move, no
  // forwarded edge is in flight anywhere. A timeout is one shared
  // deadline: each shard gets whatever budget remains, so the total wait
  // is bounded no matter how many shards lag.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + timeout.value_or(std::chrono::milliseconds(0));
  const auto remaining = [&]() -> std::optional<std::chrono::milliseconds> {
    if (!timeout.has_value()) return std::nullopt;
    return std::max(std::chrono::milliseconds(0),
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now()));
  };
  for (;;) {
    const std::uint64_t before = TotalSubmitted();
    for (auto& w : workers_) {
      if (!w->DrainFor(remaining())) return false;
    }
    if (TotalSubmitted() == before) return true;
    if (timeout.has_value() && Clock::now() >= deadline) return false;
  }
}

void ShardedDetectionService::Stop() {
  {
    std::lock_guard<std::mutex> lock(rebalancer_mutex_);
    rebalancer_stop_ = true;
  }
  rebalancer_cv_.notify_all();
  if (rebalancer_.joinable()) rebalancer_.join();
  {
    std::lock_guard<std::mutex> lock(stitcher_mutex_);
    stitcher_stop_ = true;
  }
  stitcher_cv_.notify_all();
  if (stitcher_.joinable()) stitcher_.join();
  // Bounded settle: give forwarded backlogs a chance to hand off before
  // workers stop accepting (a stopped worker rejects OfferBatch, which
  // would strand a victim's backlog in the final flush-or-drop).
  DrainFor(kStopSettle);
  for (auto& w : workers_) w->Stop();
}

void ShardedDetectionService::ResetQueueHighWater() {
  for (auto& w : workers_) w->ResetHighWater();
}

Status ShardedDetectionService::InspectPartition(
    std::size_t pid, const std::function<void(const Spade&)>& fn) const {
  if (pid >= map_.num_partitions()) {
    return Status::InvalidArgument("InspectPartition: partition " +
                                   std::to_string(pid) + " out of range");
  }
  // The rebalance lock freezes placement, so the owner read here is the
  // owner when the inspection runs (no move can slip between the two).
  std::lock_guard<std::mutex> lock(rebalance_mutex_);
  return workers_[map_.ShardOf(pid)]->InspectPartition(pid, fn);
}

Status ShardedDetectionService::MovePartition(std::size_t pid,
                                              std::size_t to_shard,
                                              bool stolen) {
  if (pid >= map_.num_partitions()) {
    return Status::InvalidArgument("MovePartition: partition " +
                                   std::to_string(pid) + " out of range");
  }
  if (to_shard >= workers_.size()) {
    return Status::InvalidArgument("MovePartition: shard " +
                                   std::to_string(to_shard) +
                                   " out of range");
  }
  std::lock_guard<std::mutex> lock(rebalance_mutex_);
  const std::size_t from = map_.ShardOf(pid);
  if (from == to_shard) return Status::OK();
  // Quiesce (best effort, bounded): shrink the set of in-flight edges the
  // thief will have to bounce back. Correctness does not depend on this —
  // any edge still queued at the victim after the detach is forwarded by
  // its apply loop under the new routing epoch.
  workers_[from]->DrainFor(
      std::chrono::milliseconds(options_.rebalance.quiesce_timeout_ms));
  SPADE_RETURN_NOT_OK(PlacePartitionLocked(pid, to_shard));
  partitions_moved_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedDetectionService::PlacePartitionLocked(std::size_t pid,
                                                     std::size_t to_shard) {
  const std::size_t from = map_.ShardOf(pid);
  if (from == to_shard) return Status::OK();
  std::unique_ptr<ShardWorker::Partition> part =
      workers_[from]->DetachPartition(pid);
  if (part == nullptr) {
    return Status::Internal("partition " + std::to_string(pid) +
                            " not owned by its mapped shard " +
                            std::to_string(from));
  }
  // Order matters: attach BEFORE publish. Between detach and publish,
  // edges for pid still route to `from`, whose apply loop backlogs and
  // forwards them; the forward targets map_.ShardOf(pid), which must
  // already own the partition by the time it reads the new entry.
  workers_[to_shard]->AttachPartition(std::move(part));
  map_.Publish(pid, to_shard);
  return Status::OK();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
ShardedDetectionService::PlacementRows() const {
  // Sparse: only partitions living away from their default worker
  // (pid % num_workers) are recorded.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;
  for (std::size_t pid = 0; pid < map_.num_partitions(); ++pid) {
    const std::size_t shard = map_.ShardOf(pid);
    if (shard != pid % workers_.size()) {
      rows.emplace_back(static_cast<std::uint32_t>(pid),
                        static_cast<std::uint32_t>(shard));
    }
  }
  return rows;
}

Status ShardedDetectionService::RebalanceNow(std::size_t pid,
                                             std::size_t to_shard) {
  return MovePartition(pid, to_shard, /*stolen=*/false);
}

std::size_t ShardedDetectionService::RouteForward(
    std::size_t from, std::span<const Edge> edges) {
  // Called from worker `from`'s apply loop with its misrouted backlog.
  // Non-blocking by contract: OfferBatch never parks, so two mutually
  // forwarding workers cannot deadlock. Returns the accepted PREFIX
  // length; the caller keeps the rest and retries next round.
  std::size_t done = 0;
  while (done < edges.size()) {
    const std::size_t pid = PartitionOf(edges[done]);
    const std::size_t target = map_.ShardOf(pid);
    // Came home: the partition moved back while the edge sat in the
    // backlog. Stop here — the caller re-checks ownership and applies
    // locally (forwarding to ourselves through the ring would reorder it
    // behind edges that arrived later).
    if (target == from) break;
    std::size_t run = done + 1;
    while (run < edges.size() &&
           map_.ShardOf(PartitionOf(edges[run])) == target) {
      ++run;
    }
    const std::size_t len = run - done;
    const std::size_t accepted =
        workers_[target]->OfferBatch(edges.subspan(done, len));
    done += accepted;
    if (accepted < len) break;  // target full: stop early, keep the rest
  }
  if (done > 0) forwarded_edges_.fetch_add(done, std::memory_order_relaxed);
  return done;
}

void ShardedDetectionService::RebalancerLoop() {
  const RebalanceOptions& opt = options_.rebalance;
  std::unique_lock<std::mutex> lock(rebalancer_mutex_);
  while (!rebalancer_stop_) {
    rebalancer_cv_.wait_for(lock, std::chrono::milliseconds(opt.interval_ms),
                            [this] { return rebalancer_stop_; });
    if (rebalancer_stop_) break;
    lock.unlock();

    // Victim/thief selection on RECENT queue high-water marks (reset each
    // scan, so one historic burst cannot keep triggering steals forever).
    std::size_t victim = 0, thief = 0;
    std::size_t victim_hwm = 0;
    std::size_t thief_hwm = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::size_t hwm = workers_[i]->TakeRecentHighWater();
      if (hwm > victim_hwm) {
        victim_hwm = hwm;
        victim = i;
      }
      if (hwm < thief_hwm) {
        thief_hwm = hwm;
        thief = i;
      }
    }
    bool moved = false;
    const bool skewed =
        victim != thief && victim_hwm >= opt.min_queue_depth &&
        static_cast<double>(victim_hwm) >=
            opt.skew_ratio *
                static_cast<double>(std::max<std::size_t>(1, thief_hwm));
    if (skewed) {
      // Pick the partition whose departure best levels the pair, by
      // recent applied-edge load. Never empty the victim completely —
      // a single-partition worker's hot partition is not stealable
      // (moving it just relocates the hotspot).
      const auto victim_loads = workers_[victim]->PartitionLoads();
      std::uint64_t thief_total = 0;
      for (const auto& [pid, load] : workers_[thief]->PartitionLoads()) {
        thief_total += load;
      }
      if (victim_loads.size() >= 2) {
        std::uint64_t victim_total = 0;
        for (const auto& [pid, load] : victim_loads) victim_total += load;
        std::size_t best_pid = map_.num_partitions();
        std::uint64_t best_peak = std::numeric_limits<std::uint64_t>::max();
        for (const auto& [pid, load] : victim_loads) {
          if (load == 0) continue;
          const std::uint64_t peak =
              std::max(victim_total - load, thief_total + load);
          if (peak < best_peak) {
            best_peak = peak;
            best_pid = pid;
          }
        }
        // Hysteresis: only move when the pair's projected peak load drops
        // by at least min_improvement — otherwise thrash costs more than
        // the imbalance.
        if (best_pid < map_.num_partitions() && victim_total > 0 &&
            static_cast<double>(victim_total) - static_cast<double>(best_peak) >=
                opt.min_improvement * static_cast<double>(victim_total)) {
          const Status s = MovePartition(best_pid, thief, /*stolen=*/true);
          if (!s.ok()) {
            SPADE_LOG_WARNING()
                << "rebalancer: steal of partition " << best_pid
                << " for shard " << thief << " failed: " << s.ToString();
          }
          moved = s.ok();
        }
      }
    }
    lock.lock();
    if (moved && opt.cooldown_ms > 0) {
      // Post-move cooldown: let the new placement's queue stats settle
      // before judging skew again.
      rebalancer_cv_.wait_for(lock, std::chrono::milliseconds(opt.cooldown_ms),
                              [this] { return rebalancer_stop_; });
    }
  }
}

std::pair<std::size_t, std::shared_ptr<const Community>>
ShardedDetectionService::ArgmaxSnapshot() const {
  // One load per shard; the winning snapshot is returned from the same
  // pass (re-loading after the argmax could observe a newer, lower-density
  // republication and break the "densest over all snapshots" contract).
  std::size_t best = 0;
  std::shared_ptr<const Community> best_snap;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    auto snap = workers_[i]->CurrentSnapshot();
    if (snap && (!best_snap || snap->density > best_snap->density)) {
      best_snap = std::move(snap);
      best = i;
    }
  }
  return {best, std::move(best_snap)};
}

std::size_t ShardedDetectionService::TopShard() const {
  return ArgmaxSnapshot().first;
}

Community ShardedDetectionService::CurrentCommunity() const {
  const auto [shard, snap] = ArgmaxSnapshot();
  return snap ? *snap : Community{};
}

GlobalCommunity ShardedDetectionService::CurrentGlobalCommunity() const {
  // Snapshots first, generations second (DESIGN.md §4.4). A worker bumps
  // its generation before a deletion and republishes after it, so a read
  // that loaded a post-deletion snapshot below also loads the bump.
  const auto stitched = stitched_.Load();
  const auto [shard, snap] = ArgmaxSnapshot();
  const double argmax_density = snap ? snap->density : 0.0;
  // An unchanged generation on every worker means the pass measured a
  // graph that has only grown since, so its density cannot overstate.
  if (stitched && stitched->community.density >= argmax_density &&
      NoDeletionSince(stitched->generations)) {
    return stitched->community;
  }
  GlobalCommunity g;
  if (snap) {
    g.members = snap->members;
    g.density = snap->density;
    g.shards.push_back(shard);
  }
  return g;
}

GlobalCommunity ShardedDetectionService::StitchNow() {
  return StitchPass(/*unbounded_seam=*/false);
}

GlobalCommunity ShardedDetectionService::StitchPass(bool unbounded_seam) {
  if (options_.stitch.drain_before_stitch) Drain();

  GlobalCommunity result;
  bool fire_alert = false;
  {
    std::lock_guard<std::mutex> stitch_lock(stitch_mutex_);
    const std::uint64_t pass =
        stitch_passes_.fetch_add(1, std::memory_order_relaxed) + 1;
    result.stitch_pass = pass;

    // Every worker's deletion generation, before anything the pass
    // measures: readers serve the result only while all of them hold.
    std::vector<std::uint64_t> generations(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      generations[i] = workers_[i]->DeletionGeneration();
    }

    // Zero the trigger accumulators FIRST: weight applied between this
    // point and the merge below is counted twice (merged by this pass and
    // still credited toward the next trigger), which costs at worst one
    // spurious wakeup — the safe side of the race. Zeroing after the merge
    // would lose that weight and could leave a crossed threshold unseen.
    if (pair_weight_) {
      const std::size_t pairs =
          map_.num_partitions() * map_.num_partitions();
      for (std::size_t i = 0; i < pairs; ++i) {
        pair_weight_[i].exchange(0.0, std::memory_order_relaxed);
      }
    }

    // One snapshot load per shard, reused for both the seam candidates and
    // the argmax fallback so the pass compares against a consistent view.
    std::vector<std::shared_ptr<const Community>> snaps(workers_.size());
    std::size_t argmax_shard = 0;
    double argmax_density = -1.0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      snaps[i] = workers_[i]->CurrentSnapshot();
      if (snaps[i] && snaps[i]->density > argmax_density) {
        argmax_density = snaps[i]->density;
        argmax_shard = i;
      }
    }

    // Seam candidates: every shard's snapshot members (so the stitched
    // answer can only refine the argmax), plus the heaviest
    // boundary-adjacent vertices up to the seam budget.
    std::unordered_set<VertexId> seam_set;
    for (const auto& snap : snaps) {
      if (!snap) continue;
      seam_set.insert(snap->members.begin(), snap->members.end());
    }
    if (map_.num_partitions() > 1) {
      // Freshness bookmark, read BEFORE the merge: every edge counted up to
      // here is inside the merged weights (the hook bumps the counter under
      // the same partition mutex the merge takes next), so the live counter
      // minus this snapshot bounds how many edges behind a stitched read
      // can be (GetStats, lock-free).
      merged_recorded_.store(
          boundary_recorded_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      // The merge takes the per-partition boundary mutexes, never a
      // detector mutex, so it never waits on an apply.
      const auto boundary_weight = BoundaryWeights();
      const std::size_t budget =
          unbounded_seam
              ? std::numeric_limits<std::size_t>::max()
              : std::max(options_.stitch.max_seam_vertices, seam_set.size());
      if (seam_set.size() + boundary_weight.size() <= budget) {
        for (const auto& [v, w] : boundary_weight) seam_set.insert(v);
      } else {
        std::vector<std::pair<double, VertexId>> heaviest;
        heaviest.reserve(boundary_weight.size());
        for (const auto& [v, w] : boundary_weight) {
          if (seam_set.count(v) == 0) heaviest.push_back({w.weight, v});
        }
        const std::size_t take =
            std::min(heaviest.size(), budget - seam_set.size());
        if (take < heaviest.size()) {
          // The budget dropped real candidates: the published answer may
          // understate the true cross-shard density. Surface it — callers
          // (and the trigger-driven stitcher, which escalates to an
          // unbounded pass) must not mistake a truncated pass for exact.
          result.seam_truncated = true;
          seam_truncated_.fetch_add(1, std::memory_order_relaxed);
          SPADE_LOG_WARNING()
              << "stitch pass " << pass << " truncated the seam: dropped "
              << (heaviest.size() - take) << " of " << heaviest.size()
              << " boundary candidates (max_seam_vertices="
              << options_.stitch.max_seam_vertices << ")";
        }
        std::partial_sort(heaviest.begin(),
                          heaviest.begin() + static_cast<std::ptrdiff_t>(take),
                          heaviest.end(), std::greater<>());
        for (std::size_t i = 0; i < take; ++i) {
          seam_set.insert(heaviest[i].second);
        }
      }
    }

    // Gather the exact induced subgraph over the seam set. Each edge lives
    // in exactly one shard's detector, so the union across shards is the
    // global induced edge multiset with the applied semantic weights —
    // nothing is double-counted and nothing inside the seam is missed.
    std::vector<VertexId> seam(seam_set.begin(), seam_set.end());
    std::sort(seam.begin(), seam.end());
    std::unordered_map<VertexId, VertexId> local_id;
    local_id.reserve(seam.size());
    for (std::size_t i = 0; i < seam.size(); ++i) {
      local_id.emplace(seam[i], static_cast<VertexId>(i));
    }
    std::vector<Edge> seam_edges;
    std::vector<double> seam_vertex_weight(seam.size(), 0.0);
    const auto contains = [&local_id](VertexId v) {
      return local_id.count(v) != 0;
    };
    {
      // Freeze placement for the gather: each partition's edges must be
      // scanned exactly once, and a concurrent move could otherwise hand a
      // partition from an already-visited worker to a not-yet-visited one
      // (double count) or the reverse (miss). Lock order stitch_mutex_ >
      // rebalance_mutex_ matches MovePartition, which never stitches.
      std::lock_guard<std::mutex> rebalance_lock(rebalance_mutex_);
      for (const auto& worker : workers_) {
        worker->CollectInduced(seam, contains, &seam_edges,
                               &seam_vertex_weight);
      }
    }
    result.seam_vertices = seam.size();
    result.seam_edges = seam_edges.size();

    // Peel the seam graph with the canonical static peeler. The density of
    // whatever suffix wins is the exact global induced density of that
    // member set (all of its edges are in the seam graph by construction).
    Community seam_best;
    if (!seam.empty()) {
      DynamicGraph seam_graph(seam.size());
      for (std::size_t i = 0; i < seam.size(); ++i) {
        seam_graph.SetVertexWeight(static_cast<VertexId>(i),
                                   seam_vertex_weight[i]);
      }
      for (const Edge& e : seam_edges) {
        const Status s = seam_graph.AddEdge(local_id.at(e.src),
                                            local_id.at(e.dst), e.weight);
        SPADE_DCHECK(s.ok());
        (void)s;
      }
      const PeelState state = PeelStatic(seam_graph);
      const Community local = state.DetectCommunity();
      seam_best.density = local.density;
      seam_best.members.reserve(local.members.size());
      for (const VertexId v : local.members) {
        seam_best.members.push_back(seam[v]);
      }
    }

    // The seam peel wins only when it is strictly denser than every
    // single-shard view; otherwise the pass republishes the argmax (with
    // provenance), so a stitched read never regresses below the plain one.
    if (!seam_best.members.empty() && seam_best.density > argmax_density) {
      result.members = std::move(seam_best.members);
      result.density = seam_best.density;
      result.stitched = true;
    } else if (argmax_density >= 0.0 && snaps[argmax_shard]) {
      result.members = snaps[argmax_shard]->members;
      result.density = snaps[argmax_shard]->density;
      result.stitched = false;
    }

    std::vector<std::size_t> member_shards;
    for (const VertexId v : result.members) {
      member_shards.push_back(HomeShardOf(v));
    }
    std::sort(member_shards.begin(), member_shards.end());
    member_shards.erase(
        std::unique(member_shards.begin(), member_shards.end()),
        member_shards.end());
    result.shards = std::move(member_shards);

    const auto published = std::make_shared<const StitchedSnapshot>(
        StitchedSnapshot{result, std::move(generations)});
    stitched_.Store(published);
    // Alert only on a result readers can still be served: one that raced a
    // deletion is published but hidden, and neither alerts nor becomes the
    // alert baseline.
    if (result.stitched && NoDeletionSince(published->generations)) {
      std::vector<VertexId> sorted = result.members;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != last_stitched_members_ ||
          result.density != last_stitched_density_) {
        last_stitched_members_ = std::move(sorted);
        last_stitched_density_ = result.density;
        stitched_alerts_.fetch_add(1, std::memory_order_relaxed);
        fire_alert = true;
      }
    }
  }
  // Deliver outside the stitch lock, so a slow moderator (or one that calls
  // back into the service) cannot deadlock or delay the next pass.
  if (fire_alert && options_.stitch.on_stitch_alert) {
    options_.stitch.on_stitch_alert(result);
  }
  return result;
}

void ShardedDetectionService::StitcherLoop() {
  std::unique_lock<std::mutex> lock(stitcher_mutex_);
  while (!stitcher_stop_) {
    const auto wake = [this] { return stitcher_stop_ || trigger_pending_; };
    if (options_.stitch.interval_ms > 0) {
      // Timer AND trigger: the interval is the staleness backstop, the
      // trigger delivers freshness the moment enough seam weight moves.
      stitcher_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.stitch.interval_ms), wake);
    } else {
      // Pure event-driven mode: no timer, the queue wakes us.
      stitcher_cv_.wait(lock, wake);
    }
    if (stitcher_stop_) break;
    trigger_pending_ = false;
    lock.unlock();
    GlobalCommunity r = StitchPass(/*unbounded_seam=*/false);
    // A truncated triggered pass may have peeled the wrong seam subset;
    // the escalation pass pays the full cost once rather than publishing
    // a silently understated stitched density until the next trigger.
    if (r.seam_truncated) StitchPass(/*unbounded_seam=*/true);
    lock.lock();
  }
}

std::shared_ptr<const Community> ShardedDetectionService::ShardSnapshot(
    std::size_t shard) const {
  SPADE_CHECK(shard < workers_.size());
  return workers_[shard]->CurrentSnapshot();
}

Community ShardedDetectionService::ShardCommunity(std::size_t shard) const {
  SPADE_CHECK(shard < workers_.size());
  return workers_[shard]->CurrentCommunity();
}

void ShardedDetectionService::InspectShard(
    std::size_t shard, const std::function<void(const Spade&)>& fn) const {
  SPADE_CHECK(shard < workers_.size());
  workers_[shard]->InspectDetector(fn);
}

ShardedServiceStats ShardedDetectionService::GetStats() const {
  ShardedServiceStats stats;
  stats.shard_edges.reserve(workers_.size());
  stats.shard_alerts.reserve(workers_.size());
  stats.shard_queue_depth.reserve(workers_.size());
  for (const auto& w : workers_) {
    const std::uint64_t edges = w->EdgesProcessed();
    const std::uint64_t alerts = w->AlertsDelivered();
    const std::uint64_t retired = w->EdgesRetired();
    stats.edges_processed += edges;
    stats.alerts_delivered += alerts;
    stats.rejected_edges += w->EdgesRejected();
    stats.dropped_edges += w->EdgesDropped();
    stats.retired_edges += retired;
    stats.shard_edges.push_back(edges);
    stats.shard_alerts.push_back(alerts);
    stats.shard_retired.push_back(retired);
    stats.shard_detections.push_back(w->DetectionsRun());
    stats.shard_queue_depth.push_back(w->QueueDepth());
    stats.shard_queue_hwm.push_back(w->QueueDepthHighWater());
    stats.shard_busy_fraction.push_back(w->BusyFraction());
    stats.shard_partitions.push_back(w->OwnedPartitionCount());
  }
  stats.num_partitions = map_.num_partitions();
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.partitions_moved = partitions_moved_.load(std::memory_order_relaxed);
  stats.forwarded_edges = forwarded_edges_.load(std::memory_order_relaxed);
  for (const PartitionBoundary& b : boundary_) {
    stats.boundary_edges += b.edges.load(std::memory_order_relaxed);
    stats.boundary_resident_bytes +=
        b.entries.load(std::memory_order_relaxed) *
        sizeof(std::pair<VertexId, BoundaryWeight>);
  }
  stats.stitch_passes = stitch_passes_.load(std::memory_order_relaxed);
  stats.stitched_alerts = stitched_alerts_.load(std::memory_order_relaxed);
  stats.seam_truncated = seam_truncated_.load(std::memory_order_relaxed);
  stats.stitch_triggers = stitch_triggers_.load(std::memory_order_relaxed);
  // Freshness in edges: cross-home edges applied since the last merge.
  // The two loads are not one snapshot, so clamp rather than trusting the
  // subtraction.
  const std::uint64_t recorded =
      boundary_recorded_.load(std::memory_order_relaxed);
  const std::uint64_t merged = merged_recorded_.load(std::memory_order_relaxed);
  stats.boundary_unconsumed_edges = recorded > merged ? recorded - merged : 0;
  return stats;
}

std::uint64_t ShardedDetectionService::EdgesProcessed() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->EdgesProcessed();
  return total;
}

std::uint64_t ShardedDetectionService::AlertsDelivered() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->AlertsDelivered();
  return total;
}

namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

std::uint64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool AllDigits(std::string_view s) {
  return !s.empty() &&
         s.find_first_not_of("0123456789") == std::string_view::npos;
}

bool ParseEpochSuffix(std::string_view s, std::uint64_t* epoch) {
  if (!AllDigits(s) || s.size() > 19) return false;  // u64 max is 20 digits
  std::uint64_t value = 0;
  for (const char c : s) value = value * 10 + static_cast<std::uint64_t>(c - '0');
  *epoch = value;
  return true;
}

/// Strict parser for epoch-stamped checkpoint artifact names: matches
/// exactly `shard-<digits>.snapshot-<digits>` and
/// `shard-<digits>.delta-<digits>`, yielding the epoch. Every foreign file —
/// client spill buffers, ingest seqmaps, editor droppings — never matches,
/// so sharing the directory with non-checkpoint files neither perturbs
/// epoch numbering nor gets them garbage-collected. The single classifier
/// serves both the GC and the epoch scanner: if they ever disagreed,
/// NextEpochForDir could hand out an epoch whose crashed files survived GC
/// — the stale-bytes collision the stamping exists to prevent.
bool ParseEpochStampedArtifact(const std::string& name,
                               std::uint64_t* epoch) {
  std::string_view v(name);
  constexpr std::string_view kShard = "shard-";
  if (v.substr(0, kShard.size()) != kShard) return false;
  v.remove_prefix(kShard.size());
  const std::size_t dot = v.find('.');
  if (dot == std::string_view::npos || !AllDigits(v.substr(0, dot))) {
    return false;
  }
  v.remove_prefix(dot + 1);
  for (const std::string_view kind :
       {std::string_view("snapshot-"), std::string_view("delta-")}) {
    if (v.substr(0, kind.size()) == kind) {
      return ParseEpochSuffix(v.substr(kind.size()), epoch);
    }
  }
  return false;
}

/// First epoch a chain-less save into `dir` may use. Epoch numbers must
/// never collide with anything already in the directory: a fresh service
/// saving over an older higher-epoch manifest at epoch 1 would rename new
/// bases over that manifest's stamped files, reintroducing the
/// old-manifest-replays-chain-onto-new-base corruption the stamping
/// exists to prevent. The manifest gives the honest answer when readable;
/// the file scan also covers torn manifests and orphaned higher-epoch
/// files.
std::uint64_t NextEpochForDir(const std::string& dir) {
  std::uint64_t next = 1;
  ShardManifest existing;
  if (ReadShardManifest(dir, &existing).ok()) {
    next = existing.epoch + 1;
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t epoch = 0;
    if (ParseEpochStampedArtifact(name, &epoch)) {
      next = std::max<std::uint64_t>(next, epoch + 1);
    }
  }
  return next;
}

/// Phase 1 of every chain replay, no side effects: parses and CRC-checks
/// epochs [first, last] of `manifest` into the partitions' plans, up to the
/// first epoch with a torn segment, whose error it stores in `*torn`; the
/// plans and `info` then describe the longest valid prefix. Torn is what a
/// crash or bit rot leaves: a short file, or one whose CRC trailer does not
/// match it. A segment that is intact and still unreadable (another
/// version's or another format's), or that does not extend its
/// partition's chain, no crash explains, so it fails the call instead.
Status ReadChainRange(const std::string& dir, const ShardManifest& manifest,
                      std::uint64_t first, std::uint64_t last,
                      std::vector<ShardWorker::RestorePlan>* plans,
                      ShardedDetectionService::RestoreInfo* info,
                      Status* torn) {
  const std::size_t num_partitions = plans->size();
  info->manifest_epoch = manifest.epoch;
  info->restored_epoch = first - 1;
  std::vector<DeltaSegment> epoch_segments(num_partitions);
  for (std::uint64_t e = first; e <= last; ++e) {
    for (std::size_t pid = 0; pid < num_partitions; ++pid) {
      const std::size_t row = (e - manifest.base_epoch - 1) * num_partitions;
      const std::string path = JoinPath(dir, manifest.deltas[row + pid].file);
      DeltaSegment& segment = epoch_segments[pid];
      const Status read = ReadDeltaSegment(path, &segment);
      if (!read.ok()) {
        if (storage::HasIntactTrailer(path)) return read;
        *torn = read;
        return Status::OK();
      }
      if (segment.shard != pid || segment.epoch != e ||
          segment.prev_epoch != e - 1) {
        return Status::IOError("segment " + path +
                               " does not advance partition " +
                               std::to_string(pid) + " from epoch " +
                               std::to_string(e - 1));
      }
    }
    for (std::size_t pid = 0; pid < num_partitions; ++pid) {
      info->delta_edges_replayed += epoch_segments[pid].NumEdges();
      (*plans)[pid].segments.push_back(std::move(epoch_segments[pid]));
    }
    info->restored_epoch = e;
    ++info->replayed_epochs;
  }
  return Status::OK();
}

}  // namespace

Status ShardedDetectionService::SaveFull(const std::string& dir,
                                         std::uint64_t epoch,
                                         SaveInfo* info) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  // Any failure below leaves the previous manifest in charge; drop the
  // cached chain so the next save starts clean rather than extending a
  // chain whose on-disk tail may not exist.
  chain_dir_.clear();

  // Placement freeze: no partition may change owner between "which worker
  // saves pid" below and the placement rows recorded in the manifest, or
  // the manifest would describe a fleet that never existed.
  std::lock_guard<std::mutex> rebalance_lock(rebalance_mutex_);

  const std::size_t num_partitions = map_.num_partitions();
  ShardManifest manifest;
  // Checkpoint files are per PARTITION (the stable unit); `num_shards` in
  // the manifest is the partition count.
  manifest.num_shards = static_cast<std::uint32_t>(num_partitions);
  manifest.semantics = semantics_;
  manifest.epoch = epoch;
  manifest.base_epoch = epoch;
  manifest.files.reserve(num_partitions);
  std::uint64_t bytes = 0;
  for (std::size_t pid = 0; pid < num_partitions; ++pid) {
    // Epoch-stamped names, never reused: a crash between these renames
    // and the manifest write leaves the PREVIOUS manifest in charge, and
    // that manifest must keep referencing its own (untouched) bases — a
    // shared name would let it silently replay its delta chain onto this
    // newer base (every CRC valid, a state no checkpoint ever held).
    const std::string name = ShardSnapshotFileName(pid, epoch);
    const std::string path = JoinPath(dir, name);
    // A full save is the checkpoint baseline: it arms per-partition delta
    // tracking so the next save can be incremental.
    SPADE_RETURN_NOT_OK(workers_[map_.ShardOf(pid)]->SavePartition(pid, path));
    bytes += FileSizeOrZero(path);
    manifest.files.push_back(name);
  }
  manifest.placement = PlacementRows();
  // Manifest last and atomically: a crash anywhere above leaves either no
  // manifest (kNotFound) or the previous epoch's manifest (clean restore
  // to the previous checkpoint) — never a torn directory in charge.
  SPADE_RETURN_NOT_OK(WriteShardManifest(dir, manifest));
  bytes += FileSizeOrZero(ShardManifestPath(dir));

  chain_dir_ = dir;
  chain_ = std::move(manifest);
  chain_base_bytes_ = bytes;
  chain_delta_bytes_ = 0;
  RemoveStaleChainFiles(dir);
  if (info != nullptr) {
    info->delta = false;
    info->epoch = epoch;
    info->bytes_written = bytes;
    info->chain_length = 0;
    info->delta_edges = 0;
  }
  return Status::OK();
}

Status ShardedDetectionService::SaveDeltaEpoch(const std::string& dir,
                                               SaveInfo* info) {
  std::lock_guard<std::mutex> rebalance_lock(rebalance_mutex_);
  const std::size_t num_partitions = map_.num_partitions();
  const std::uint64_t epoch = chain_.epoch + 1;
  ShardManifest manifest = chain_;  // extend the cached chain
  std::uint64_t bytes = 0;
  std::size_t delta_edges = 0;
  for (std::size_t pid = 0; pid < num_partitions; ++pid) {
    const std::string name = ShardDeltaFileName(pid, epoch);
    ShardWorker::DeltaSaveInfo shard_info;
    // The segment tag is the PARTITION id — segments follow the partition
    // across moves, so a chain saved under three different placements
    // still validates and replays as one per-partition history.
    SPADE_RETURN_NOT_OK(workers_[map_.ShardOf(pid)]->SavePartitionDelta(
        pid, JoinPath(dir, name), static_cast<std::uint32_t>(pid),
        chain_.epoch, epoch, &shard_info));
    bytes += shard_info.bytes;
    delta_edges += shard_info.edges;
    manifest.deltas.push_back(
        {epoch, static_cast<std::uint32_t>(pid), name});
  }
  // Refresh the placement rows: the manifest must describe the fleet at
  // ITS epoch, and partitions may have moved since the base was written.
  manifest.placement = PlacementRows();
  manifest.epoch = epoch;
  SPADE_RETURN_NOT_OK(WriteShardManifest(dir, manifest));
  bytes += FileSizeOrZero(ShardManifestPath(dir));

  chain_ = std::move(manifest);
  chain_delta_bytes_ += bytes;
  if (info != nullptr) {
    info->delta = true;
    info->epoch = epoch;
    info->bytes_written = bytes;
    info->chain_length = chain_.ChainLength();
    info->delta_edges = delta_edges;
  }
  return Status::OK();
}

void ShardedDetectionService::RemoveStaleChainFiles(
    const std::string& dir) const {
  std::unordered_set<std::string> referenced(chain_.files.begin(),
                                             chain_.files.end());
  for (const DeltaSegmentRef& ref : chain_.deltas) referenced.insert(ref.file);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    // Only epoch-stamped artifacts are ever collected, so foreign files
    // sharing the directory survive untouched.
    std::uint64_t epoch = 0;
    if (ParseEpochStampedArtifact(name, &epoch) &&
        referenced.count(name) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

Status ShardedDetectionService::SaveState(const std::string& dir,
                                          SaveMode mode, SaveInfo* info) {
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  if (info != nullptr) *info = SaveInfo{};
  const bool chain_active = !chain_dir_.empty() && chain_dir_ == dir;
  if (mode == SaveMode::kDelta && !chain_active) {
    return Status::FailedPrecondition(
        "SaveState(kDelta): no active delta chain in " + dir +
        " (write a full checkpoint there first)");
  }
  bool want_delta = chain_active && mode != SaveMode::kFull;
  bool compacted = false;
  if (want_delta && mode == SaveMode::kAuto) {
    // Compaction policy: fold the chain back into a fresh base when it is
    // long (restore replay cost) or heavy relative to the base (directory
    // byte overhead). Byte accounting uses the chain as written so far —
    // the decision lags one epoch, which keeps it free of a pre-pass over
    // every worker's log.
    const bool too_long = chain_.ChainLength() >= options_.checkpoint.max_chain_length;
    const bool too_heavy =
        static_cast<double>(chain_delta_bytes_) >
        options_.checkpoint.max_delta_base_ratio *
            static_cast<double>(std::max<std::uint64_t>(1, chain_base_bytes_));
    if (too_long || too_heavy) {
      want_delta = false;
      compacted = true;
    }
  }
  const std::uint64_t epoch =
      chain_active ? chain_.epoch + 1 : NextEpochForDir(dir);
  if (want_delta) {
    const Status s = SaveDeltaEpoch(dir, info);
    if (s.ok()) return s;
    // A failed delta attempt may already have consumed some workers' logs
    // into segment files the manifest never adopted; extending the chain
    // after that would silently lose their records. Invalidate it — the
    // only safe continuation is a fresh base.
    chain_dir_.clear();
    // A worker whose delta log overflowed reports kFailedPrecondition; in
    // auto mode the right response is the fallback the caller would have
    // to do anyway.
    if (mode == SaveMode::kDelta ||
        s.code() != StatusCode::kFailedPrecondition) {
      return s;
    }
    compacted = true;
  }
  const Status s = SaveFull(dir, epoch, info);
  if (s.ok() && info != nullptr) info->compacted = compacted;
  return s;
}

Status ShardedDetectionService::ReplayPlans(
    std::vector<ShardWorker::RestorePlan> plans, const Timer& stage,
    RestoreInfo* info) {
  const std::size_t num_partitions = plans.size();
  std::vector<Status> statuses(num_partitions, Status::OK());
  std::vector<double> recount_millis(num_partitions, 0.0);
  std::vector<std::size_t> merges(num_partitions, 0);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t pid; (pid = next.fetch_add(1)) < num_partitions;) {
      ShardWorker& owner = *workers_[map_.ShardOf(pid)];
      statuses[pid] =
          owner.ReplayPartition(pid, std::move(plans[pid]), &merges[pid]);
      // Replay fires no boundary hook: recount the partition once, under
      // its detector mutex so no apply interleaves with the count.
      const Timer recount;
      const Status counted =
          owner.InspectPartition(pid, [this, pid](const Spade& detector) {
            RecountBoundary(pid, detector);
          });
      recount_millis[pid] = recount.ElapsedMillis();
      if (statuses[pid].ok()) statuses[pid] = counted;
    }
  };
  // The calling thread is one of the pool's threads.
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < std::min(workers_.size(), num_partitions);
       ++t) {
    threads.emplace_back(work);
  }
  work();
  for (std::thread& t : threads) t.join();
  info->replay_millis = stage.ElapsedMillis();
  for (const double ms : recount_millis) info->recount_millis += ms;
  for (const std::size_t m : merges) info->replay_merges += m;
  for (const Status& s : statuses) SPADE_RETURN_NOT_OK(s);
  return Status::OK();
}

Status ShardedDetectionService::ReadManifest(const std::string& dir,
                                             ShardManifest* manifest) const {
  SPADE_RETURN_NOT_OK(ReadShardManifest(dir, manifest));
  if (manifest->num_shards != map_.num_partitions()) {
    return Status::FailedPrecondition(
        "sharded snapshot has " + std::to_string(manifest->num_shards) +
        " partitions but the service has " +
        std::to_string(map_.num_partitions()));
  }
  return Status::OK();
}

Status ShardedDetectionService::RestoreState(const std::string& dir,
                                             RestoreInfo* info) {
  const Timer total;
  Timer stage;
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  RestoreInfo local;
  RestoreInfo& out = info != nullptr ? *info : local;
  out = RestoreInfo{};
  const std::size_t num_partitions = map_.num_partitions();
  ShardManifest manifest;
  SPADE_RETURN_NOT_OK(ReadManifest(dir, &manifest));
  // Resolve the checkpoint's placement: default home unless a sparse
  // placement row overrides it. A placement naming a worker this fleet
  // does not have is rejected up front (Phase 1 has no side effects yet).
  std::vector<std::size_t> target_shard(num_partitions);
  for (std::size_t pid = 0; pid < num_partitions; ++pid) {
    target_shard[pid] = pid % workers_.size();
  }
  for (const auto& [pid, shard] : manifest.placement) {
    if (pid >= num_partitions || shard >= workers_.size()) {
      return Status::FailedPrecondition(
          "sharded snapshot places partition " + std::to_string(pid) +
          " on shard " + std::to_string(shard) +
          ", outside this service's fleet");
    }
    target_shard[pid] = shard;
  }

  // ---- Phase 1: parse + CRC-check every file, no side effects. ----------
  // Bases first: a torn base is unrecoverable (fail cleanly, leaving the
  // running fleet untouched).
  std::vector<ShardWorker::RestorePlan> plans(num_partitions);
  for (std::size_t pid = 0; pid < num_partitions; ++pid) {
    Spade::Parts& base = plans[pid].base.emplace();
    SPADE_RETURN_NOT_OK(LoadSnapshot(JoinPath(dir, manifest.files[pid]),
                                     &base.graph, &base.state,
                                     &base.state_present, &base.window));
    // Refused here: RestoreFromParts refusing in phase 2 would leave the
    // fleet half restored.
    if (options_.window.span <= 0 && !base.window.empty()) {
      return Status::FailedPrecondition(
          "sharded snapshot partition " + std::to_string(pid) +
          " carries a window log but this service has window expiry off");
    }
  }
  // The chain, oldest first, up to the first epoch with a torn file.
  // Everything before it is durable by construction (those files were
  // fully written before the later manifest was published), so the
  // longest valid prefix IS the last durable checkpoint.
  Status torn;
  SPADE_RETURN_NOT_OK(ReadChainRange(dir, manifest, manifest.base_epoch + 1,
                                     manifest.epoch, &plans, &out, &torn));
  if (!torn.ok()) {
    SPADE_LOG_WARNING() << "RestoreState: chain torn at epoch "
                        << (out.restored_epoch + 1)
                        << "; recovering to durable epoch "
                        << out.restored_epoch << ": " << torn.ToString();
  }
  // Byte accounting of the chain the restore resumes (CheckpointPolicy).
  std::uint64_t base_bytes = 0;
  for (const std::string& f : manifest.files) {
    base_bytes += FileSizeOrZero(JoinPath(dir, f));
  }
  std::uint64_t delta_bytes = 0;
  for (std::uint64_t i = 0; i < out.replayed_epochs * num_partitions; ++i) {
    delta_bytes += FileSizeOrZero(JoinPath(dir, manifest.deltas[i].file));
  }
  out.validate_millis = stage.ElapsedMillis();
  stage.Restart();

  // ---- Phase 2: install. Everything applied below passed validation. ----
  Drain();
  // stats() must describe the restored run. The pre-restore stitched
  // snapshot needs no reset: every replay bumps its worker's deletion
  // generation, so readers stop serving it.
  {
    std::lock_guard<std::mutex> stitch_lock(stitch_mutex_);
    last_stitched_members_.clear();
    last_stitched_density_ = -1.0;
    stitch_passes_.store(0, std::memory_order_relaxed);
    stitched_alerts_.store(0, std::memory_order_relaxed);
  }
  {
    // Placement install + replay run under one rebalance hold: a steal
    // landing between "move pid to its checkpoint shard" and "replay pid
    // there" would replay into the wrong worker (kNotFound).
    std::lock_guard<std::mutex> rebalance_lock(rebalance_mutex_);
    for (std::size_t pid = 0; pid < num_partitions; ++pid) {
      SPADE_RETURN_NOT_OK(PlacePartitionLocked(pid, target_shard[pid]));
    }
    SPADE_RETURN_NOT_OK(ReplayPlans(std::move(plans), stage, &out));
  }

  // Resume the chain in this directory: the next SaveState extends it.
  chain_dir_ = dir;
  chain_ = std::move(manifest);
  out.truncated_chain = !torn.ok();
  if (out.truncated_chain) {
    // Truncate the cached chain to the durable prefix, and collect the torn
    // epochs' files now (best effort): leaving them would let a later save
    // reuse their epoch numbers while the on-disk manifest still references
    // the old bytes — a crash in that window would splice two timelines
    // into one restorable (and wrong) chain.
    chain_.epoch = out.restored_epoch;
    chain_.deltas.resize((out.restored_epoch - chain_.base_epoch) *
                         num_partitions);
    RemoveStaleChainFiles(dir);
  }
  chain_base_bytes_ = base_bytes;
  chain_delta_bytes_ = delta_bytes;
  out.restore_millis = total.ElapsedMillis();
  return Status::OK();
}

Status ShardedDetectionService::ApplyChainRange(
    const std::string& dir, std::uint64_t first_epoch,
    std::uint64_t last_epoch, std::chrono::milliseconds drain_timeout,
    RestoreInfo* info) {
  const Timer total;
  Timer stage;
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  RestoreInfo local;
  RestoreInfo& out = info != nullptr ? *info : local;
  out = RestoreInfo{};
  ShardManifest manifest;
  SPADE_RETURN_NOT_OK(ReadManifest(dir, &manifest));
  if (first_epoch <= manifest.base_epoch || last_epoch > manifest.epoch ||
      first_epoch > last_epoch) {
    return Status::OutOfRange(
        "ApplyChainRange: epochs [" + std::to_string(first_epoch) + ", " +
        std::to_string(last_epoch) + "] are not delta epochs of " + dir +
        " (chain covers (" + std::to_string(manifest.base_epoch) + ", " +
        std::to_string(manifest.epoch) + "])");
  }

  // ---- Phase 1: parse + CRC-check the whole range, no side effects. ----
  std::vector<ShardWorker::RestorePlan> plans(map_.num_partitions());
  Status torn;
  const Status chain = ReadChainRange(dir, manifest, first_epoch, last_epoch,
                                      &plans, &out, &torn);
  out.validate_millis = stage.ElapsedMillis();
  stage.Restart();
  SPADE_RETURN_NOT_OK(chain);
  SPADE_RETURN_NOT_OK(torn);  // a valid prefix is not the range asked for

  // ---- Phase 2: replay. Everything below passed validation. -------------
  if (!DrainFor(drain_timeout)) {
    return Status::FailedPrecondition(
        "ApplyChainRange: the fleet did not drain within " +
        std::to_string(drain_timeout.count()) + "ms");
  }
  // The cached save chain no longer matches the replayed-ahead delta logs:
  // the next SaveState must write a full base, not skip the replayed epochs.
  chain_dir_.clear();
  {
    // Placement freeze: the owner looked up for each plan must still own
    // the partition when the replay runs on it.
    std::lock_guard<std::mutex> rebalance_lock(rebalance_mutex_);
    SPADE_RETURN_NOT_OK(ReplayPlans(std::move(plans), stage, &out));
  }
  out.restore_millis = total.ElapsedMillis();
  return Status::OK();
}

}  // namespace spade
