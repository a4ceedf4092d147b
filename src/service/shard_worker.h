// ShardWorker: one worker thread draining a lock-light chunk-handoff queue
// through a set of exclusively-owned detector partitions.
//
// Every worker is a partition owner (DESIGN.md §10): it owns a set of
// epoch-versioned *partitions* — each a Spade detector (window log
// included) plus its delta log and alert baseline, addressed by a stable
// partition id (pid) — and a partition can be detached from a loaded
// worker and attached to an idle one at a drain boundary, moving the
// detector by pointer. There is
// one shape: the required partition function maps each popped edge to its
// pid, the ownership table resolves the pid, and persistence is addressed
// by pid. ShardedDetectionService is the one client: its workers route by
// source home (PartitionOf, partition_map.h) whether or not the fleet
// rebalances, and a one-shard fleet is one worker owning partition 0.
//
// The three client-visible paths are decoupled so none of them serializes
// on an in-flight reorder:
//
//   * Submit / SubmitBatch / OfferBatch / SubmitRetire: producers hand
//     whole chunks to the worker through a bounded MPSC ring of edge slabs
//     (Vyukov-style sequence-stamped cells), all through one admission
//     path: a claim, then a publish. One CAS claims the chunk's queue
//     budget and one ring cell together, so the publish that follows
//     cannot fail: it takes the next ring position and stamps the cell's
//     sequence word. A mutex is touched only on the slow paths (full
//     queue in blocking mode, parking, DrainFor) — never per edge, and
//     never per chunk while the pipeline keeps up.
//   * CurrentCommunity / CurrentSnapshot: the worker publishes the densest
//     community across its partitions as an immutable snapshot behind a
//     pointer-swap mutex (common/published_ptr.h) that the apply path
//     never holds.
//   * EdgesProcessed / AlertsDelivered / QueueDepth: relaxed atomics.
//
// Forwarding protocol: an edge popped off the ring whose partition this
// worker does NOT own (it was routed under a stale partition-map entry
// while the partition moved) goes to a worker-local forward backlog and is
// re-submitted to the current owner via the service-provided ForwardFn —
// applied exactly once, at the owner. Edges are counted as consumed at
// their final disposal (local apply, or accepted forward), and the drain
// cursor only advances while the backlog is empty, so DrainFor() still
// means "everything this worker accepted has been applied somewhere or
// handed to its owner".
//
// Wakeup coalescing: producers notify the worker only when it is actually
// parked (`parked_` is set, seq_cst, before the worker re-checks the ring
// and waits; producers publish, then load `parked_` — the classic Dekker
// handshake, so either the worker sees the new slab or the producer sees
// the parked flag and wakes it). A producer feeding a busy worker performs
// zero syscalls and zero lock acquisitions per chunk.
//
// Alerts are delivered from the worker thread with no service lock held
// (the snapshot is taken first), so a slow moderator callback can delay the
// next detection but never blocks producers or readers.
//
// Window expiry (DESIGN.md §9.2): a retire marker rides the ring like a
// chunk; its pass runs Spade::RetireOlderThan on every owned partition and
// logs one retire-pass record per partition that retired anything, and
// chain replay pops the same horizon off the window log it rebuilds.
//
// Deletion generation (DESIGN.md §4.4): a lock-free counter that every
// retire pass that deletes bumps inside its detector critical section,
// before the first edge leaves a detector, and that every ReplayPartition
// bumps before it touches one. It is the one thing a reader of state
// measured across workers (the stitched read) needs to know about
// deletions: while the counter holds the value read before the
// measurement, this worker's graphs have only grown since.
//
// Snapshot-publication protocol (DESIGN.md §4.2): the worker republishes on
// every detection (urgent flush or detect_every cadence). Exactness is
// produced on demand: a DrainFor() waiter registers itself and wakes the
// worker, which detects every dirty partition (flushing its buffered
// benign edges), republishes, and advances the drain cursor — so DrainFor()
// returning true implies the published snapshot reflects every edge
// submitted before the call, while an undrained worker keeps its
// edge-grouping amortization instead of flushing every time its queue
// momentarily empties. While the worker is busy, the snapshot may trail
// the stream by at most the in-flight batch plus `detect_every` edges (all
// of them benign-buffered, which by Lemma 4.4 cannot have improved the
// community).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/published_ptr.h"
#include "common/slab_pool.h"
#include "common/status.h"
#include "core/spade.h"
#include "graph/types.h"
#include "storage/delta_segment.h"

namespace spade {

/// Invoked from the worker thread after a detection whose community differs
/// from the previously reported one. No service lock is held.
using FraudAlertFn = std::function<void(const Community&)>;

/// Invoked from the worker thread, inside the apply critical section, for
/// every applied edge (`retired` false, `applied` the semantic weight
/// ApplyEdge charged) and every window-expired edge (`retired` true,
/// `applied` the weight it was deleted at). The sharded service uses it to
/// add cross-home edges to, and subtract them from, its per-partition
/// boundary weights — running under the detector mutex is what keeps those
/// weights equal to the edges in the detector whenever the mutex is free.
/// Keep it cheap; it is on the apply hot path. Not fired during
/// restore/replay: the service recounts a replayed partition instead.
using BoundaryUpdateFn = std::function<void(const Edge&, double, bool)>;

/// Maps an edge to its stable partition id. Required. Evaluated under the
/// detector mutex for every applied edge, so keep it cheap.
using PartitionOfFn = std::function<std::size_t(const Edge&)>;

/// Re-submits edges that arrived at a worker which no longer owns their
/// partition to the current owner. Must NOT block (it runs on the victim's
/// worker thread; a blocking forward between two full workers deadlocks) —
/// it returns the length of the accepted PREFIX, and the worker retries
/// the remainder later. Called with no worker lock held. Null only for a
/// worker whose partitions never move: an unowned edge reaching it is a
/// SPADE_CHECK failure, never a silent drop.
using ForwardFn = std::function<std::size_t(std::span<const Edge>)>;

/// Per-worker configuration: ShardedDetectionServiceOptions::shard, applied
/// to every worker of the fleet.
struct DetectionServiceOptions {
  /// Detect (and possibly alert) after at most this many applied edges even
  /// if no urgent edge forced a flush.
  std::size_t detect_every = 256;
  /// Bound on edges accepted but not yet taken off the handoff ring by the
  /// worker. Every accepted chunk also holds one ring cell until the
  /// worker pops it, and the ring has min(max_queue, 65536) cells (rounded
  /// up to a power of two): a chunk that finds the budget or the cells
  /// used up finds the queue full. Only tens of thousands of small chunks
  /// piled up against a stalled worker run out of cells first.
  std::size_t max_queue = 1 << 20;
  /// When the buffer is full: false = Submit fails fast with kOutOfRange;
  /// true = Submit blocks until the worker frees space (backpressure
  /// propagates to producers instead of dropping transactions).
  bool block_when_full = false;
};

/// One worker: a background thread draining a chunk-handoff ring through a
/// set of exclusively-owned Spade detector partitions.
class ShardWorker {
 public:
  /// One movable unit of detector state: the Spade instance (window log
  /// included) plus the bookkeeping that travels with it in a steal —
  /// delta log, alert baseline, cached community.
  /// Owned by exactly one worker at a time (or by the service, briefly,
  /// between Detach and Attach); all fields are guarded by the owning
  /// worker's detector mutex.
  struct Partition {
    Partition(std::size_t id, Spade detector)
        : pid(id), spade(std::move(detector)) {}

    const std::size_t pid;
    Spade spade;
    /// Alert baseline: last reported community (sorted) + density.
    std::vector<VertexId> last_reported;
    double last_density = -1.0;
    std::size_t since_detect = 0;
    /// Applied-history log for incremental checkpoints (DESIGN.md §5).
    bool delta_tracking = false;
    bool delta_overflow = false;
    std::vector<DeltaRecord> delta_log;
    /// Latest detected community for this partition (feeds the worker's
    /// published argmax snapshot).
    std::shared_ptr<const Community> current;
    /// Edges applied since the last PartitionLoads() scan — the steal
    /// policy's per-partition load signal.
    std::uint64_t recent_load = 0;
  };

  /// Initial partition assignment: a fully built detector (graph loaded,
  /// semantics installed) and the pid it owns.
  struct PartitionSeed {
    std::size_t pid = 0;
    Spade spade;
  };

  /// Takes ownership of the seeded partitions; edge grouping is turned on
  /// in each, and the worker starts immediately. `total_partitions` sizes
  /// the pid lookup table (a detached partition's slot goes null;
  /// AttachPartition refills it). `partition_of` (required) maps an edge
  /// to its pid; `forward` re-submits edges for partitions this worker
  /// does not own (see ForwardFn). `on_boundary` (optional) fires per
  /// applied/retired edge inside the apply critical section (see
  /// BoundaryUpdateFn).
  /// `slab_pool` (optional) receives consumed batch slabs for recycling.
  /// `cpu` >= 0 pins the worker thread to that CPU (Linux only; elsewhere,
  /// and for a CPU that does not exist, the worker logs a warning and runs
  /// unpinned).
  ShardWorker(std::vector<PartitionSeed> seeds, std::size_t total_partitions,
              PartitionOfFn partition_of, ForwardFn forward,
              FraudAlertFn on_alert, DetectionServiceOptions options = {},
              BoundaryUpdateFn on_boundary = nullptr,
              std::shared_ptr<SlabPool> slab_pool = nullptr, int cpu = -1);

  /// Stops the worker, draining queued edges first.
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Enqueues one transaction; callable from any thread. Fails with
  /// kFailedPrecondition after Stop(); when the buffer is full it either
  /// fails with kOutOfRange or blocks, per `block_when_full`. Lock-free
  /// unless the queue is full.
  Status Submit(const Edge& raw_edge);

  /// Bulk enqueue: one claim (budget and ring cell), one publish and (at
  /// most) one worker wakeup for the whole chunk — the high-throughput
  /// producer path.
  ///
  /// Without `accepted` the call is all-or-nothing: it fails with
  /// kOutOfRange (or blocks until the whole chunk fits) when the chunk does
  /// not fit, and with kInvalidArgument when it can never fit
  /// (chunk > max_queue); on failure nothing was enqueued.
  ///
  /// With `accepted` the call is best-effort and `*accepted` is always the
  /// exact number of edges enqueued (a prefix of the chunk): in fail-fast
  /// mode a full queue accepts the prefix that fits and returns
  /// kOutOfRange; in blocking mode the chunk may be handed over in pieces
  /// as space frees up (pieces from concurrent producers can interleave
  /// between them), and a Stop() arriving mid-wait returns
  /// kFailedPrecondition with the already-handed-over prefix counted.
  Status SubmitBatch(std::span<const Edge> raw_edges,
                     std::size_t* accepted = nullptr);

  /// Move-through variant: when the whole chunk is accepted in one piece
  /// (the common case), the vector becomes the ring slab directly — zero
  /// edge copies on this call. Copies instead (leaving `chunk` intact for
  /// the unaccepted suffix accounting) when backpressure splits or
  /// truncates the handoff; same contract as the span overload otherwise.
  Status SubmitBatch(std::vector<Edge>&& chunk,
                     std::size_t* accepted = nullptr);

  /// Never-blocking best-effort enqueue: accepts the prefix that fits
  /// right now and returns its length (0 when the queue is full or the
  /// worker stopped), regardless of `block_when_full`. This is the
  /// forwarding entry point — a victim's worker thread re-submitting
  /// moved-partition edges must not park inside another worker's
  /// backpressure wait.
  std::size_t OfferBatch(std::span<const Edge> edges);

  /// Enqueues a retire marker: when the worker reaches it, every owned
  /// partition runs Spade::RetireOlderThan(`horizon`), and one that retired
  /// anything logs a retire-pass record for the delta chain. The marker
  /// rides the same ring as edge chunks — one unit of queue budget, the
  /// same drain/exactness protocol — so DrainFor() after a successful
  /// SubmitRetire implies the pass has fully applied. Same full-queue
  /// behavior as Submit.
  Status SubmitRetire(Timestamp horizon);

  /// Two-phase admission for a caller that must land parts on several
  /// workers all-or-nothing (ShardedDetectionService::SubmitBatch in
  /// fail-fast mode). ClaimBatch never blocks: it claims queue budget and
  /// one ring cell for `k` edges and returns OK, kOutOfRange when they do
  /// not fit now, or kFailedPrecondition after Stop(). A successful claim
  /// is then either published by PublishClaimed — with exactly `k` edges;
  /// it cannot fail — or handed back by ReleaseClaim(k). Until then the
  /// claim counts against the queue, and a stopping worker waits for it.
  Status ClaimBatch(std::size_t k);
  void PublishClaimed(std::vector<Edge>&& chunk);
  void ReleaseClaim(std::size_t k);

  /// Waits until every edge submitted before this call has been applied
  /// (or handed to its current owner, for partitions that moved away) AND
  /// the published snapshot reflects the locally-applied ones, and returns
  /// true — at once when the worker has exited. Without a `timeout` it
  /// waits as long as that takes; with one it returns false when the
  /// deadline passes first (the caller's edges may still be in flight), so
  /// replication and promotion surface a wedged shard as a status instead
  /// of hanging the control plane (DESIGN.md §7).
  bool DrainFor(std::optional<std::chrono::milliseconds> timeout =
                    std::nullopt);

  /// Drains, stops the worker and joins it. Idempotent.
  void Stop();

  /// Latest published community snapshot — the densest community across
  /// this worker's partitions; never blocks on the apply path. The pointer
  /// is immutable and safe to hold across further updates.
  std::shared_ptr<const Community> CurrentSnapshot() const;

  /// Convenience copy of the latest snapshot.
  Community CurrentCommunity() const {
    const auto snap = CurrentSnapshot();
    return snap ? *snap : Community{};
  }

  /// Edges applied by the worker so far (relaxed; never takes a lock).
  std::uint64_t EdgesProcessed() const {
    return processed_.load(std::memory_order_relaxed);
  }

  /// Alerts delivered so far (relaxed; never takes a lock).
  std::uint64_t AlertsDelivered() const {
    return alerts_.load(std::memory_order_relaxed);
  }

  /// Edges the detector refused at apply so far (Spade::ApplyEdge failed;
  /// relaxed, never takes a lock).
  std::uint64_t EdgesRejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Edges a stopping worker could neither apply nor forward (relaxed;
  /// never takes a lock).
  std::uint64_t EdgesDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Edges retired by window expiry so far, live or replayed (relaxed;
  /// never takes a lock). A stats counter; DeletionGeneration() is the
  /// one that orders deletions against readers.
  std::uint64_t EdgesRetired() const {
    return retired_.load(std::memory_order_relaxed);
  }

  /// The deletion generation (see the class comment): bumped, seq_cst,
  /// before a retire pass deletes its first edge and at the start of every
  /// ReplayPartition. Never takes a lock.
  std::uint64_t DeletionGeneration() const {
    return deletion_generation_.load(std::memory_order_seq_cst);
  }

  /// Copy of the owned detectors' window logs, partitions in ascending-pid
  /// order, arrival order within each (applied weights). Takes the
  /// detector mutex; tests and diagnostics only.
  std::vector<Edge> WindowEdges() const;

  /// Detections (Detect + snapshot publications) run so far (lock-free).
  std::uint64_t DetectionsRun() const {
    return detections_.load(std::memory_order_relaxed);
  }

  /// Edges accepted (published into the ring) so far — the DrainFor target.
  std::uint64_t Submitted() const {
    return submitted_.load(std::memory_order_seq_cst);
  }

  /// Edges accepted or claimed but not yet taken off the ring by the
  /// worker (relaxed atomic; never takes a lock, may trail an in-flight
  /// handoff).
  std::size_t QueueDepth() const {
    return queued_.load(std::memory_order_relaxed) & kEdgeMask;
  }

  /// Highest queue depth observed at a successful enqueue since the last
  /// ResetHighWater() (relaxed; never takes a lock). The bench uses it to
  /// report handoff pressure: a high-water mark near max_queue means
  /// producers outran this shard.
  std::size_t QueueDepthHighWater() const {
    const std::size_t recent =
        queue_hwm_recent_.load(std::memory_order_relaxed);
    const std::size_t total =
        queue_hwm_total_.load(std::memory_order_relaxed);
    return recent > total ? recent : total;
  }

  /// Drains the RECENT high-water mark (and folds it into the long-run
  /// one): returns the highest depth observed since the previous call.
  /// The rebalancer polls this per scan, so its skew signal measures the
  /// current interval instead of an admission-phase peak from minutes ago.
  std::size_t TakeRecentHighWater();

  /// Zeroes both high-water marks (recent and long-run). Phase-structured
  /// measurements (admission vs drain in ReplayThroughService) reset
  /// between phases so the second phase's peak is not masked by the first.
  void ResetHighWater();

  /// Fraction of wall time since construction the worker spent applying
  /// edges / retires (busy), as opposed to parked or gathering. Relaxed.
  double BusyFraction() const;

  /// Number of partitions this worker currently owns (relaxed; lock-free,
  /// so a stats poller never waits behind an apply).
  std::size_t OwnedPartitionCount() const {
    return owned_partitions_.load(std::memory_order_relaxed);
  }

  /// Per-partition applied-edge counts since the previous call
  /// (exchange-reset under the detector mutex): the steal policy's load
  /// signal. Pairs of {pid, edges applied}.
  std::vector<std::pair<std::size_t, std::uint64_t>> PartitionLoads();

  /// Detaches an owned partition for a move: removes it from the ownership
  /// table (subsequent ring edges for this pid go to the forward backlog)
  /// and republishes the snapshot without it. Returns null when this
  /// worker does not own `pid`. The caller (the service, under its
  /// rebalance lock) attaches the partition to its new owner and THEN
  /// publishes the routing change.
  std::unique_ptr<Partition> DetachPartition(std::size_t pid);

  /// Attaches a partition (from DetachPartition on another worker) and
  /// republishes the snapshot including it.
  void AttachPartition(std::unique_ptr<Partition> partition);

  /// Copies the induced subgraph over `vertices` out of every owned
  /// partition's detector graph, for the cross-shard stitch pass: every
  /// out-edge of a listed vertex whose destination satisfies `contains` is
  /// appended to `edges` (global vertex ids, applied semantic weights —
  /// out-edges only, so an edge is emitted exactly once), and
  /// `vertex_weight[i]` is raised to this worker's prior for
  /// `vertices[i]`. Holds the detector mutex for the scan (O(out-degree
  /// sum of the listed vertices)), so it delays at most one in-flight
  /// apply and never touches the queue. Benign-buffered edges are not yet
  /// in the graph; a caller wanting them included drains first.
  void CollectInduced(std::span<const VertexId> vertices,
                      const std::function<bool(VertexId)>& contains,
                      std::vector<Edge>* edges,
                      std::vector<double>* vertex_weight) const;

  /// Result of one incremental checkpoint of a partition.
  struct DeltaSaveInfo {
    std::uint64_t bytes = 0;   // segment file size incl. trailer
    std::size_t edges = 0;     // edges inserted or retired (NumEdges)
    std::size_t records = 0;   // records of every kind written
  };

  /// Everything needed to bring one partition to a checkpoint epoch: the
  /// base snapshot a restore installs first (none when a standby extends
  /// the current state), then the delta segments to replay. The caller
  /// parses and CRC-checks every file before constructing a plan, so
  /// applying one cannot half-fail on bad input.
  struct RestorePlan {
    std::optional<Spade::Parts> base;
    std::vector<DeltaSegment> segments;  // ascending, contiguous epochs
  };

  /// Runs `fn` on the first owned partition's detector under the detector
  /// mutex (tests and diagnostics). Blocks this worker's apply path for
  /// the duration; never touches the queue.
  void InspectDetector(const std::function<void(const Spade&)>& fn) const;

  // --- persistence, addressed by pid (each call fails kNotFound when this
  // worker does not own `pid`) ----------------------------------------------

  /// Drains, then persists one partition's full detector state (and window
  /// log) under the detector lock. Safe to call while producers keep
  /// submitting; the snapshot is a consistent prefix of the stream. A full
  /// save is a checkpoint: the delta log is reset and the partition begins
  /// (or continues) recording applied history for a future
  /// SavePartitionDelta.
  Status SavePartition(std::size_t pid, const std::string& path);

  /// Incremental checkpoint: drains, then writes only the partition's
  /// applied history since the last checkpoint (inserts at their applied
  /// weights, retire passes) as a delta segment advancing `prev_epoch` ->
  /// `epoch` (`shard` is the segment tag — the sharded service passes the
  /// pid), and clears the log. Cost is O(edges since last checkpoint): the
  /// drain already flushed, so the detector state is not touched, but for
  /// one flush of edges buffered by ingest that raced the drain. Fails
  /// with kFailedPrecondition when no checkpoint baseline exists (tracking
  /// never started) or the log overflowed kMaxDeltaLog; the caller falls
  /// back to a full SavePartition.
  Status SavePartitionDelta(std::size_t pid, const std::string& path,
                            std::uint32_t shard, std::uint64_t prev_epoch,
                            std::uint64_t epoch,
                            DeltaSaveInfo* info = nullptr);

  /// Bumps the deletion generation, then installs the plan's base (when it
  /// has one) and replays its delta segments with one Spade::ReplayDelta —
  /// at most one DeleteBatch and one InsertBatch, whatever the range's
  /// length — so the result is bit-identical to the detector that wrote
  /// the chain (DESIGN.md §5.3).
  /// `merges` (optional) receives the merges the replay ran. The replayed
  /// community is republished and becomes the alert baseline, and delta
  /// tracking is armed for the next incremental checkpoint, as after
  /// SavePartition. Does not drain: the caller quiesces the fleet first.
  /// Replays of other partitions may run concurrently (each takes only its
  /// worker's detector mutex).
  Status ReplayPartition(std::size_t pid, RestorePlan plan,
                         std::size_t* merges = nullptr);

  /// Runs `fn` on one owned partition's detector under the detector mutex.
  Status InspectPartition(std::size_t pid,
                          const std::function<void(const Spade&)>& fn) const;

 private:
  /// One handoff unit: a single inline edge (per-edge Submit pays no
  /// allocation), an owned slab of edges (SubmitBatch copies the caller's
  /// span once), or a retire marker (SubmitRetire) carrying the expiry
  /// horizon. A marker counts as one edge of queue budget so the shared
  /// claim/release/drain accounting needs no special case.
  struct Chunk {
    Chunk() = default;
    explicit Chunk(std::span<const Edge> edges) {
      if (edges.size() == 1) {
        one = edges[0];
        is_one = true;
      } else {
        many.assign(edges.begin(), edges.end());
      }
    }
    explicit Chunk(std::vector<Edge>&& edges) {
      if (edges.size() == 1) {
        one = edges[0];
        is_one = true;
      } else {
        many = std::move(edges);
      }
    }
    std::size_t size() const {
      return (is_one || is_retire) ? 1 : many.size();
    }
    Edge one{};
    bool is_one = false;
    bool is_retire = false;
    Timestamp retire_horizon = 0;
    std::vector<Edge> many;
  };

  /// One ring cell: Vyukov sequence stamp + the chunk payload. `seq == pos`
  /// means free for the producer claiming position `pos`; `seq == pos + 1`
  /// means published and ready for the consumer.
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    Chunk chunk;
  };

  void WorkerLoop();

  /// `queued_` packs everything a claim reserves into one word, so one CAS
  /// claims it all: the low kCellShift bits count claimed edges (the queue
  /// budget), the bits above them claimed ring cells, and the top bit is
  /// set by Stop() — after it no claim succeeds. max_queue is clamped to
  /// kEdgeMask.
  static constexpr int kCellShift = 40;
  static constexpr std::uint64_t kEdgeMask =
      (std::uint64_t{1} << kCellShift) - 1;
  static constexpr std::uint64_t kOneCell = std::uint64_t{1} << kCellShift;
  static constexpr std::uint64_t kStopped = std::uint64_t{1} << 63;

  /// The one admission path (Submit, SubmitBatch, OfferBatch,
  /// SubmitRetire): claims, then publishes, `n` edges' worth of chunks —
  /// all-or-nothing unless `allow_partial` (kInvalidArgument when n >
  /// max_queue) — and, when `block` and the queue is full, waits for
  /// space. `make_chunk(offset, count)` builds the chunk for edges
  /// [offset, offset + count). `*accepted` (optional) is always the exact
  /// number of edges published.
  template <typename MakeChunk>
  Status Admit(std::size_t n, bool allow_partial, bool block,
               const MakeChunk& make_chunk, std::size_t* accepted);
  /// Admit over a span of edges (SubmitBatch, OfferBatch): best-effort iff
  /// `accepted`. `owned` (optional) is the storage behind `edges`; when the
  /// whole span goes in one piece it is moved into the ring, not copied.
  Status Enqueue(std::span<const Edge> edges, std::size_t* accepted,
                 std::vector<Edge>* owned, bool block);

  /// One CAS: claims up to `k` edges of budget plus one ring cell
  /// (all-or-nothing unless `allow_partial`) and returns the claimed edge
  /// count — 0 when nothing fits now, nullopt after Stop().
  std::optional<std::size_t> TryClaim(std::size_t k, bool allow_partial);
  /// Publishes a claimed chunk into the next ring position (its claimed
  /// cell is free, so this cannot fail), counts it as accepted and wakes
  /// the worker iff it is parked. `queue_locked`: the caller holds
  /// queue_mutex_.
  void Publish(Chunk&& chunk, bool queue_locked);
  /// Releases the claim of `k` edges and their cell (popped, or never
  /// published).
  void Unclaim(std::size_t k);
  /// Single-consumer pop (worker thread only); releases the popped chunk's
  /// claim and returns false when no published cell is ready.
  bool TryPopChunk(Chunk* out);
  /// Worker thread only: is the next ring cell published? (Also evaluated
  /// inside the worker's own condvar predicate — never by other threads.)
  bool RingReady() const;
  /// No claim is outstanding: nothing in the ring, nothing being published.
  bool RingEmpty() const {
    return (queued_.load(std::memory_order_seq_cst) & ~kStopped) == 0;
  }
  /// Wakes blocked producers iff any are registered.
  void NotifySpaceFreed();

  /// The one exactness step, run at every round end (`detect` false), for
  /// a DrainFor waiter with nothing left to apply, and at shutdown
  /// (`detect` true). It finds every dirty partition — edges applied since
  /// its last Detect, or benign-buffered. With `detect` it flushes and
  /// detects each (delivering alerts); without it, one dirty partition
  /// means the snapshot is not exact. When none is left dirty, the forward
  /// backlog is empty and so is the ring, it advances the drain cursor to
  /// the consumed count.
  void SettleExactness(bool detect);

  /// Looks up the owned partition for an edge (detector mutex held):
  /// partition_of_ -> pid -> ownership table. Null when this worker does
  /// not own the pid.
  Partition* PartitionForLocked(const Edge& edge);

  /// Finds an owned partition by pid (detector mutex held).
  Partition* FindPartitionLocked(std::size_t pid);
  const Partition* FindPartitionLocked(std::size_t pid) const;

  /// Applies one edge to its owned partition, or pushes it onto the
  /// forward backlog when the partition moved away. Fires the alert
  /// callback (outside the lock). Returns true when applied locally.
  bool ApplyOne(const Edge& edge);

  /// Worker thread only: re-applies backlog edges whose partition came
  /// home, forwards the rest to their current owners (accepted-prefix,
  /// never blocking), and counts accepted edges as consumed.
  void FlushForwardBacklog();

  /// Cap on a partition's in-memory delta log (applied-history records
  /// kept for the next incremental checkpoint). A worker whose owner stops
  /// checkpointing must not grow without bound: at the cap the log is
  /// dropped and the next checkpoint falls back to a full snapshot.
  static constexpr std::size_t kMaxDeltaLog = std::size_t{1} << 20;

  /// Appends one applied-history record to a partition's delta log
  /// (detector mutex held). Drops the whole log and marks overflow at the
  /// cap.
  void AppendDeltaRecord(Partition& p, const DeltaRecord& record);

  /// Publishes the densest community across owned partitions (detector
  /// mutex held). An empty worker publishes an empty community.
  void PublishArgmaxLocked();

  /// Flushes + detects one partition, refreshes the published snapshot,
  /// queues an alert if the partition's community changed (detector mutex
  /// held; the caller fires pending alerts after unlocking).
  void DetectAndPublish(Partition& p);

  /// Moves out queued alerts (detector mutex held).
  std::vector<std::shared_ptr<const Community>> TakePendingAlertsLocked() {
    return std::move(pending_alerts_);
  }

  DetectionServiceOptions options_;
  FraudAlertFn on_alert_;

  // --- chunk-handoff ring (lock-free producer hot path) ------------------
  std::vector<Cell> ring_;    // power-of-two cells, fixed at construction
  std::uint64_t ring_mask_ = 0;
  std::atomic<std::uint64_t> enqueue_pos_{0};
  std::uint64_t dequeue_pos_ = 0;  // worker thread only
  /// Claimed edges, claimed cells and the stop bit (see kCellShift).
  /// seq_cst where it pairs with the park/space Dekker handshakes.
  std::atomic<std::uint64_t> queued_{0};
  /// High-water mark, split into a resettable recent window and a long-run
  /// fold (see TakeRecentHighWater): TryClaim CAS-maxes the recent one.
  std::atomic<std::size_t> queue_hwm_recent_{0};
  std::atomic<std::size_t> queue_hwm_total_{0};
  /// Edges accepted (published) by Publish — the DrainFor target.
  std::atomic<std::uint64_t> submitted_{0};
  /// Worker is (about to be) asleep on work_cv_; producers notify only
  /// when set (wakeup coalescing).
  std::atomic<bool> parked_{false};
  /// Producers blocked on space_cv_; the worker locks + notifies only when
  /// nonzero.
  std::atomic<std::size_t> space_waiters_{0};

  // --- slow-path coordination (guarded by queue_mutex_) ------------------
  mutable std::mutex queue_mutex_;
  std::condition_variable work_cv_;   // signals the (parked) worker
  std::condition_variable drain_cv_;  // signals DrainFor() waiters
  std::condition_variable space_cv_;  // signals blocked producers
  bool stopping_ = false;
  bool worker_exited_ = false;
  std::size_t drain_waiters_ = 0;    // threads parked in DrainFor()
  std::uint64_t consumed_q_ = 0;     // mirror of consumed_ for predicates
  std::uint64_t exact_through_ = 0;  // edges reflected in an exact snapshot

  // --- partitions, touched only by the worker thread (or by Save/Restore/
  // Detach while the worker is parked in its queue wait; detector_mutex_
  // makes that exclusion explicit and TSan-visible). Never taken by
  // readers. ---------------------------------------------------------------
  mutable std::mutex detector_mutex_;
  std::vector<std::unique_ptr<Partition>> parts_;
  /// pid -> owned partition (null = not owned here). Sized
  /// total_partitions at construction.
  std::vector<Partition*> by_pid_;
  PartitionOfFn partition_of_;
  ForwardFn forward_;
  std::uint64_t consumed_ = 0;  // edges disposed of (applied or forwarded)
  // Set by DetectAndPublish when a partition's community changed; the
  // worker moves them out and fires callbacks after releasing
  // detector_mutex_.
  std::vector<std::shared_ptr<const Community>> pending_alerts_;
  /// Worker-thread-only: edges popped off the ring for partitions this
  /// worker no longer owns, awaiting forward to the current owner.
  std::vector<Edge> forward_backlog_;

  // --- published state (readers never wait on the apply path) ----------
  PublishedPtr<Community> snapshot_;
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> alerts_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> deletion_generation_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> dropped_{0};
  /// Mirror of parts_.size(), kept by the constructor, AttachPartition and
  /// DetachPartition for OwnedPartitionCount.
  std::atomic<std::size_t> owned_partitions_{0};
  /// Nanoseconds the worker spent in apply/retire/backlog work (vs parked
  /// or gathering); BusyFraction divides by wall time since start_.
  std::atomic<std::uint64_t> busy_ns_{0};
  std::chrono::steady_clock::time_point start_;
  BoundaryUpdateFn on_boundary_;
  std::shared_ptr<SlabPool> slab_pool_;

  std::thread worker_;
};

}  // namespace spade
