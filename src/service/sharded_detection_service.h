// ShardedDetectionService: N independent ShardWorker pipelines behind a
// pluggable partitioner — the service-layer analogue of κ-Join's
// vertex-cover decomposition (PAPERS.md): split the workload into parts
// whose updates never interact, run each part's detector on its own core,
// and combine answers at read time. A one-shard fleet is the
// single-detector service: one worker owning partition 0, every chunk
// handed straight to it, and no boundary weights.
//
// Partitioner contract: a Partitioner is one function, vertex -> home key
// (partition_map.h). A vertex's home partition is its key modulo the
// partition count, and every edge belongs to its SOURCE's home partition
// (PartitionOf) — Submit, SubmitBatch's router, forwarding and each
// worker's ownership lookup all apply that one rule, so per-edge, batched
// and forwarded routing agree by construction. An edge whose endpoints
// share a home is fully visible to its partition. An edge whose endpoints'
// homes differ (a cross-home edge) still lands in exactly one detector;
// the service keeps no second copy of it, only boundary weights counted
// beside the detectors: one map per partition, vertex -> {weight, count}
// summed over the cross-home edges stored in that partition's detector
// (graph plus benign buffer). The applying worker adds or subtracts each
// cross-home edge at its applied weight from inside its apply critical
// section, the constructor counts the initial graphs, and a chain replay
// recounts each partition from its detector once, after the replay.
//
// Cross-shard reads: CurrentCommunity() is the densest community over all
// shard snapshots (per-shard argmax). The stitch pass (StitchNow,
// or a background stitcher when StitchOptions::interval_ms > 0 runs it on
// a timer and/or StitchOptions::trigger_weight > 0 wakes it the moment a
// shard pair's accumulated unstitched weight crosses the threshold) closes
// the argmax's blind spot: it merges the boundary weights into its seam
// candidates, builds a seam graph over the heaviest boundary vertices plus
// every shard's snapshot members, gathers that vertex set's induced edges
// from the shard detectors (each edge lives in exactly one shard, so the
// union is the exact global induced subgraph), peels it with the static
// peeler, and publishes the result as a GlobalCommunity snapshot behind the
// same pointer-swap publication as the shard snapshots, together with
// every worker's deletion generation as the pass read it before measuring
// anything. The stitched read, CurrentGlobalCommunity(), returns the denser
// of the stitched snapshot and the live argmax while every worker still
// reports the generation its pass recorded, and the live argmax otherwise.
// Resident boundary memory is O(boundary vertices). DESIGN.md §4.4 has the
// exactness, freshness and staleness statements.

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
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/published_ptr.h"
#include "common/slab_pool.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/spade.h"
#include "graph/types.h"
#include "service/partition_map.h"
#include "service/shard_worker.h"
#include "storage/sharded_snapshot.h"

namespace spade {

/// Alert callback with the originating shard id. Invoked from that shard's
/// worker thread; callbacks from different shards run concurrently.
using ShardAlertFn = std::function<void(std::size_t shard, const Community&)>;

/// Default partitioner: a mixed hash of the vertex id, so adjacent ids land
/// in unrelated partitions.
Partitioner HashOfSourcePartitioner();

/// Tenant routing for id spaces laid out as [tenant * vertices_per_tenant,
/// (tenant+1) * vertices_per_tenant): home(v) = v / vertices_per_tenant, so
/// an edge routes to its source's tenant. A cross-tenant edge is applied in
/// the source tenant's partition and counted in its boundary weights, so a
/// community spanning tenants is reachable by the stitch pass instead of
/// silently invisible.
Partitioner TenantPartitioner(VertexId vertices_per_tenant);

/// Result of a stitch pass (and the stitched read): a community whose
/// density was evaluated on the exact global induced subgraph of its
/// members, tagged with the home shards that contribute members.
struct GlobalCommunity : Community {
  /// True when the seam-graph peel produced this answer (strictly denser
  /// than every single-shard snapshot); false when the pass fell back to
  /// the per-shard argmax.
  bool stitched = false;
  /// Sorted unique home shards of the members.
  std::vector<std::size_t> shards;
  /// Monotone stitch-pass counter that produced this snapshot (0 = never).
  std::uint64_t stitch_pass = 0;
  /// Seam-graph size of the producing pass (diagnostics).
  std::size_t seam_vertices = 0;
  std::size_t seam_edges = 0;
  /// True when the producing pass dropped boundary-candidate vertices at
  /// the max_seam_vertices budget — the answer may under-report a global
  /// community that needed the dropped vertices. The background stitcher
  /// escalates to an unbounded pass when it sees this.
  bool seam_truncated = false;
};

/// Invoked after a stitch pass whose winning community came from the seam
/// peel and differs from the previous stitched detection. Runs on the
/// calling (or background stitcher) thread with no service lock held.
using StitchAlertFn = std::function<void(const GlobalCommunity&)>;

/// Stitch-pass configuration.
struct StitchOptions {
  /// Cap on the seam-graph vertex count. Shard snapshot members are always
  /// included; boundary vertices fill the remainder in decreasing order of
  /// boundary weight.
  std::size_t max_seam_vertices = 4096;
  /// Drain every shard before gathering, so the seam graph reflects every
  /// edge submitted before the pass (the exactness the differential suite
  /// pins). Turning it off trades a bounded-staleness seam for not waiting
  /// on the queues.
  bool drain_before_stitch = true;
  /// When > 0, a background thread runs a stitch pass at this period.
  std::uint32_t interval_ms = 0;
  /// Event-driven stitching: when > 0, every applied (or retired)
  /// cross-shard edge adds its absolute applied weight to a per-shard-pair
  /// accumulator, and any pair crossing this threshold wakes the
  /// background stitcher immediately — freshness becomes "bounded edges
  /// behind the threshold crossing" instead of "interval_ms behind".
  /// Works alone (interval_ms == 0: the stitcher only wakes on triggers)
  /// or combined (triggers cut the wait short). Accumulators reset at
  /// every pass. 0 = timer-only stitching.
  double trigger_weight = 0.0;
  /// Stitched-detection alerts (see StitchAlertFn).
  StitchAlertFn on_stitch_alert;
};

/// Work-stealing rebalance policy (DESIGN.md §10). Every fleet runs the
/// partition-move protocol, so RebalanceNow works on any fleet; background
/// steals need `interval_ms > 0`. With the defaults (`partitions_per_shard`
/// 1, `interval_ms` 0) partitions move only when RebalanceNow asks.
struct RebalanceOptions {
  /// Detector partitions per worker. The constructor's `shards` vector has
  /// one detector per PARTITION; the worker count is
  /// shards.size() / partitions_per_shard (must divide evenly). More
  /// partitions per shard = finer-grained steals, at the cost of one
  /// routing-table entry and one detector per partition.
  std::size_t partitions_per_shard = 1;
  /// Rebalancer scan period; 0 = no background rebalancer (manual
  /// RebalanceNow only).
  std::uint32_t interval_ms = 0;
  /// Steal when the loaded worker's recent queue high-water exceeds
  /// skew_ratio x the idlest worker's.
  double skew_ratio = 4.0;
  /// ... and that high-water is at least this deep (don't shuffle
  /// partitions over noise).
  std::size_t min_queue_depth = 512;
  /// ... and moving the chosen partition shrinks the victim-vs-thief load
  /// gap by at least this fraction (hysteresis against ping-ponging a
  /// partition between two workers).
  double min_improvement = 0.15;
  /// Minimum wait between moves.
  std::uint32_t cooldown_ms = 200;
  /// Best-effort drain of the victim before detaching (bounds how many
  /// in-flight edges the move turns into forwards; the protocol is correct
  /// at 0, just chattier).
  std::uint32_t quiesce_timeout_ms = 5;
};

/// Sliding-window expiry policy. With `span > 0` every partition's detector
/// keeps its window log (Spade::TurnOnWindowLog), the router
/// tracks a high-water event-time watermark over submitted edges, and
/// whenever the watermark advances a stride past the last expiry horizon
/// the service enqueues a retire marker on every shard: edges older than
/// `watermark - span` are deleted from the detectors with their recorded
/// applied weights, through the same ring and drain protocol as inserts.
/// Each retired cross-home edge leaves the boundary weights in the same
/// critical section that deletes it, so resident state is O(window), not
/// O(history), with no eviction of its own. `span == 0` (default)
/// disables everything: the service is insert-only and pays nothing.
struct WindowOptions {
  /// Window span in event-time units (same clock as Edge::ts); 0 = off.
  Timestamp span = 0;
  /// Minimum watermark advance between automatic retire passes. 0 picks
  /// span / 8 — ~8 passes per window of traffic, amortizing the marker +
  /// deletion cost while keeping resident overshoot under ~12% of span.
  Timestamp stride = 0;
};

/// When an auto-mode SaveState folds the delta chain back into a fresh
/// base instead of appending another segment. Either trigger alone forces
/// compaction; both bound the restore-time replay work (chain length) and
/// the directory's byte overhead relative to one full snapshot.
struct CheckpointPolicy {
  /// Compact when the chain already holds this many delta epochs.
  std::size_t max_chain_length = 16;
  /// Compact when accumulated delta bytes exceed this fraction of the
  /// base-snapshot bytes.
  double max_delta_base_ratio = 0.5;
};

struct ShardedDetectionServiceOptions {
  /// Knobs applied to every shard worker.
  DetectionServiceOptions shard;
  /// Vertex homes (edges route by their source's home); null selects
  /// HashOfSourcePartitioner().
  Partitioner partitioner;
  /// Cross-shard stitching knobs.
  StitchOptions stitch;
  /// Delta-chain compaction triggers for auto-mode SaveState.
  CheckpointPolicy checkpoint;
  /// Sliding-window expiry (span == 0 = insert-only service, no window
  /// log, no watermark tracking).
  WindowOptions window;
  /// CPU pinning for the shard workers: shard i pins to
  /// shard_cpus[i % shard_cpus.size()] (empty = unpinned). Linux-only;
  /// elsewhere, and for CPUs that do not exist, the worker logs a warning
  /// and runs unpinned — never an error.
  std::vector<int> shard_cpus;
  /// Work-stealing rebalance (partition granularity, steal policy).
  RebalanceOptions rebalance;
};

/// Accumulated boundary weight of one vertex: the summed applied weight and
/// the number of the cross-home edges incident to it.
struct BoundaryWeight {
  double weight = 0.0;
  std::uint64_t count = 0;
};

/// Merged + per-shard service counters. All reads are lock-free (queue
/// depths come from a relaxed mirror, not the queue mutex).
struct ShardedServiceStats {
  std::uint64_t edges_processed = 0;
  std::uint64_t alerts_delivered = 0;
  /// Edges a detector refused at apply (Spade::ApplyEdge failed: self-loop,
  /// non-finite or non-positive weight). Each also logs once.
  std::uint64_t rejected_edges = 0;
  /// Edges a stopping worker could neither apply nor forward to their
  /// partition's current owner. Each batch also logs once.
  std::uint64_t dropped_edges = 0;
  /// Cross-home edges currently stored in the detectors (graphs plus
  /// benign buffers).
  std::uint64_t boundary_edges = 0;
  std::uint64_t stitch_passes = 0;
  std::uint64_t stitched_alerts = 0;
  /// Stitch passes that dropped seam candidates at the max_seam_vertices
  /// budget (each also logs once). A growing value means the budget is
  /// binding and stitched answers may under-report; raise the budget or
  /// rely on the stitcher's escalation pass.
  std::uint64_t seam_truncated = 0;
  /// Event-driven stitcher wakeups (trigger_weight crossings observed).
  std::uint64_t stitch_triggers = 0;
  /// Stitched-read freshness in edges: cross-home edges applied since the
  /// last stitch pass merged the boundary weights (0 = seam candidates
  /// fully caught up).
  std::uint64_t boundary_unconsumed_edges = 0;
  /// Approximate resident payload bytes of the boundary weights (one
  /// vertex entry per partition map it appears in).
  std::size_t boundary_resident_bytes = 0;
  /// Edges removed by window expiry across all shards (0 when window off).
  std::uint64_t retired_edges = 0;
  /// Detector partitions in the fleet (== num_shards unless
  /// partitions_per_shard > 1).
  std::size_t num_partitions = 0;
  /// Partition moves initiated by the background rebalancer's steal policy.
  std::uint64_t steals = 0;
  /// All partition moves (steals + manual RebalanceNow calls).
  std::uint64_t partitions_moved = 0;
  /// Edges that arrived at a stale owner after a move and were re-submitted
  /// to the current owner (each counted once per successful forward hop).
  std::uint64_t forwarded_edges = 0;
  std::vector<std::uint64_t> shard_edges;
  std::vector<std::uint64_t> shard_alerts;
  std::vector<std::uint64_t> shard_retired;
  std::vector<std::uint64_t> shard_detections;
  std::vector<std::size_t> shard_queue_depth;
  /// Highest queue depth each shard reached since the last
  /// ResetQueueHighWater() (or ever): the handoff-pressure gauge — a
  /// high-water mark near max_queue means producers outran that shard.
  std::vector<std::size_t> shard_queue_hwm;
  /// Fraction of wall time each worker spent applying edges (vs parked):
  /// the skew gauge the steal policy acts on.
  std::vector<double> shard_busy_fraction;
  /// Partitions each worker currently owns.
  std::vector<std::size_t> shard_partitions;
};

/// Partition-parallel streaming front-end over N Spade detectors.
class ShardedDetectionService {
 public:
  /// Takes ownership of one fully built detector per PARTITION (all built
  /// with the same semantics; each should hold its partition's initial
  /// graph). With the default RebalanceOptions a partition is a shard and
  /// this is one detector per shard; with partitions_per_shard = k the
  /// fleet runs shards.size() / k workers and partition pid starts on
  /// worker pid % num_shards. Workers start immediately.
  ShardedDetectionService(std::vector<Spade> shards, ShardAlertFn on_alert,
                          ShardedDetectionServiceOptions options = {});

  /// Stops all shards.
  ~ShardedDetectionService();

  ShardedDetectionService(const ShardedDetectionService&) = delete;
  ShardedDetectionService& operator=(const ShardedDetectionService&) = delete;

  std::size_t num_shards() const { return workers_.size(); }

  /// Detector partitions in the fleet (>= num_shards; the routing
  /// granularity and the unit of rebalance).
  std::size_t num_partitions() const { return map_.num_partitions(); }

  /// Worker currently owning partition `pid` (lock-free; advisory under a
  /// concurrent move).
  std::size_t PartitionShard(std::size_t pid) const {
    return map_.ShardOf(pid);
  }

  /// Routes the edge to its shard and enqueues it; callable from any
  /// thread. Per-shard FIFO order is preserved per producer thread. An
  /// edge whose endpoint homes differ enters the boundary weights when the
  /// OWNING WORKER applies it (at the applied semantic weight, inside the
  /// detector critical section), so a rejected edge is never counted.
  Status Submit(const Edge& raw_edge);

  /// Bulk submit, the multi-producer throughput path: a thread-local
  /// RouterScratch partitions the chunk with one routing pass (flat
  /// reusable arenas, no per-call vector-of-vectors) and each shard
  /// receives its contiguous part through the lock-free chunk handoff.
  /// Boundary counting happens worker-side, exactly as in Submit. Order
  /// within the chunk is preserved per shard.
  ///
  /// Without `enqueued` the batch is all-or-nothing across shards: on
  /// failure no edge of it was enqueued, so a caller may resend it whole
  /// (the wire ingest tier's exactly-once contract). kInvalidArgument when
  /// a shard's part exceeds max_queue; in fail-fast mode, every part is
  /// claimed before any is published and a full shard returns kOutOfRange
  /// after the claims are handed back; in blocking mode every part waits
  /// for space, so only a stopping fleet (kFailedPrecondition) can refuse
  /// one, and parts already handed over stay.
  ///
  /// With `enqueued` the call is best-effort: every shard's part is
  /// attempted, the first failure is returned, and `*enqueued` is the
  /// exact number of edges accepted — including prefixes a shard partially
  /// accepted under backpressure (see ShardWorker::SubmitBatch).
  Status SubmitBatch(std::span<const Edge> raw_edges,
                     std::size_t* enqueued = nullptr);

  /// The shard `raw_edge` would be routed to.
  std::size_t ShardOf(const Edge& raw_edge) const;

  /// The shard currently owning a vertex's home partition (the stitch
  /// pass's provenance tag).
  std::size_t HomeShardOf(VertexId v) const;

  /// Does nothing: the constructor already counts the initial graphs'
  /// cross-home edges into the boundary weights. Kept only because the
  /// perfbench harness still calls it; new code should not.
  void SeedBoundaryIndex(std::span<const Edge> raw_edges);

  /// Blocks until every shard has applied and republished everything
  /// submitted before this call: DrainFor without a timeout.
  void Drain();

  /// Drains every shard to a fixpoint (a forwarded edge re-enters a queue
  /// after its victim drained, so passes repeat until the fleet-wide
  /// accepted count holds still) and returns true. With a `timeout` — one
  /// shared deadline, not per shard — it returns false when the deadline
  /// passed with at least one shard still behind. Replication seals and
  /// follower promotion use that so a wedged shard degrades to a reported
  /// failure instead of hanging the control plane.
  bool DrainFor(std::optional<std::chrono::milliseconds> timeout);

  /// Drains and stops all shard workers (and the background stitcher).
  /// Idempotent.
  void Stop();

  /// Argmax read: the densest community over all shard snapshots (ties
  /// break toward the lower shard id; never blocks on any apply path).
  /// Never sees a community that spans shards.
  Community CurrentCommunity() const;

  /// Stitched read with provenance: the denser of the latest stitched
  /// snapshot and the live argmax, tagged with contributing shards — never
  /// waits on a pass, but only as fresh as the last one. Inserts only grow
  /// a fixed member set's induced density, so a snapshot measured on a
  /// graph that has only grown since never overstates. A deletion (a
  /// retire pass, a restore or a chain replay) can make it overstate, so
  /// the read compares every worker's deletion generation with the one
  /// the pass recorded, after loading the snapshots, and on any mismatch
  /// returns the live argmax until the next pass. Every worker, not just
  /// the snapshot's `shards`: a move can carry a contributing partition to
  /// another worker.
  GlobalCommunity CurrentGlobalCommunity() const;

  /// Runs a stitch pass now: (drain,) merge the boundary weights, gather
  /// the seam graph from the shard detectors, peel it, publish and return
  /// the winner. Concurrent calls serialize. See class comment.
  GlobalCommunity StitchNow();

  /// Shard id whose snapshot wins the density argmax. Advisory under
  /// concurrent updates: the shard may republish between this call and a
  /// subsequent read (CurrentCommunity() does its argmax and read in one
  /// pass and is not subject to that race).
  std::size_t TopShard() const;

  /// Latest published snapshot of one shard (never blocks).
  std::shared_ptr<const Community> ShardSnapshot(std::size_t shard) const;
  Community ShardCommunity(std::size_t shard) const;

  /// Runs `fn` on one shard's detector under its detector mutex (tests and
  /// diagnostics: peel-state differentials, graph audits). Blocks that
  /// shard's apply path for the duration. With partitions_per_shard > 1 the
  /// shard's FIRST owned partition is inspected; use InspectPartition for a
  /// specific one.
  void InspectShard(std::size_t shard,
                    const std::function<void(const Spade&)>& fn) const;

  /// Runs `fn` on one partition's detector, wherever it currently lives
  /// (takes the rebalance lock so the partition cannot move mid-inspect).
  Status InspectPartition(std::size_t pid,
                          const std::function<void(const Spade&)>& fn) const;

  /// Moves partition `pid` to worker `to_shard` at a drain boundary: the
  /// current owner is (best-effort) quiesced, the partition detaches,
  /// attaches to the target, and the routing entry republishes with a
  /// bumped epoch. Edges routed under the old entry are forwarded by the
  /// old owner — none lost, none double-applied. Concurrent moves
  /// serialize. A no-op (OK) when `pid` already lives on `to_shard`.
  Status RebalanceNow(std::size_t pid, std::size_t to_shard);

  /// The boundary weights merged over every partition: each vertex of a
  /// cross-home edge stored in some detector, with the summed applied
  /// weight and count of those edges — the stitch pass's seam candidates,
  /// also read by tests and diagnostics. Takes each partition's boundary
  /// mutex in turn, never a detector mutex.
  std::unordered_map<VertexId, BoundaryWeight> BoundaryWeights() const;

  /// Explicit window expiry: enqueues a retire marker on every shard
  /// (edges with ts < `horizon` are deleted with their recorded applied
  /// weights, and cross-home ones leave the boundary weights with them —
  /// same ring and drain protocol as inserts, so Drain() after this call
  /// implies the expiry has fully applied). Requires
  /// WindowOptions::span > 0. The first shard enqueue error is returned;
  /// shards that accepted the marker still retire.
  Status RetireOlderThan(Timestamp horizon);

  /// High-water event timestamp over all submitted edges (relaxed; 0 until
  /// the first submit). Only tracked when the window is on.
  Timestamp Watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }

  /// Edges removed by window expiry across all shards.
  std::uint64_t EdgesRetired() const;

  /// Copy of one shard's window log (tests and diagnostics; takes that
  /// shard's detector mutex).
  std::vector<Edge> ShardWindow(std::size_t shard) const;

  /// Merged counters plus per-shard breakdown.
  ShardedServiceStats GetStats() const;
  std::uint64_t EdgesProcessed() const;
  std::uint64_t AlertsDelivered() const;

  /// Zeroes every shard's queue high-water mark. Phase-structured
  /// measurements (admission vs drain) reset between phases so the second
  /// phase's peak is not masked by the first's.
  void ResetQueueHighWater();

  /// Checkpoint flavor for SaveState.
  enum class SaveMode {
    /// Delta when a chain is active in `dir` and the CheckpointPolicy
    /// allows it; full (base rewrite) otherwise.
    kAuto,
    /// Always rewrite the base snapshots (and start a fresh chain).
    kFull,
    /// Always append a delta epoch; fails with kFailedPrecondition when no
    /// chain is active in `dir` (bench/tests that must isolate delta cost).
    kDelta,
  };

  /// What one SaveState actually did.
  struct SaveInfo {
    bool delta = false;        // wrote only delta segments
    bool compacted = false;    // auto mode folded the chain into a new base
    std::uint64_t epoch = 0;   // checkpoint epoch this save produced
    std::uint64_t bytes_written = 0;  // all files incl. manifest
    std::size_t chain_length = 0;     // delta epochs now in the manifest
    std::size_t delta_edges = 0;      // NumEdges across all segments
  };

  /// What one RestoreState or ApplyChainRange did. Two stages split
  /// `restore_millis`: validate (every file read, parse + CRC) and replay
  /// (quiescing plus the replay pool's wall time). `recount_millis` is the
  /// part of the replay the pool's threads spent recounting boundary
  /// weights, summed over partitions.
  struct RestoreInfo {
    std::uint64_t manifest_epoch = 0;  // epoch the manifest claims
    std::uint64_t restored_epoch = 0;  // epoch actually reconstructed
    std::uint64_t replayed_epochs = 0;  // delta epochs replayed
    std::size_t delta_edges_replayed = 0;
    /// Merges (DeleteBatch or InsertBatch calls) the replay ran, summed
    /// over partitions: at most 2 per partition, whatever the range holds.
    std::size_t replay_merges = 0;
    /// A torn/corrupt chain tail forced recovery to an earlier durable epoch.
    bool truncated_chain = false;
    double restore_millis = 0.0;  // the whole call
    double validate_millis = 0.0;
    double replay_millis = 0.0;
    double recount_millis = 0.0;
  };

  /// Checkpoints all shards into `dir` (created if needed). The first save
  /// into a directory writes full base snapshots; subsequent saves into
  /// the same directory append one delta epoch — per-shard segments
  /// holding only the edges applied since the previous checkpoint and a
  /// rewritten (tiny) manifest — so checkpoint cost tracks traffic, not
  /// graph size. The
  /// CheckpointPolicy folds the chain back into a fresh base when it grows
  /// past its bounds. Drains each shard first. Crash-safe at every point:
  /// the manifest is written last and atomically, and every bulk file
  /// carries a CRC trailer, so a torn save either leaves the previous
  /// manifest in charge or is detected at restore.
  Status SaveState(const std::string& dir, SaveMode mode = SaveMode::kAuto,
                   SaveInfo* info = nullptr);

  /// Restores a directory written by SaveState. The manifest's shard count
  /// must match this service's — validated (like everything else) before
  /// any side effect: the whole chain is parsed and CRC-checked first, and
  /// only then installed, so a failed restore never leaves a partial
  /// graph. A torn chain tail (crash during the last delta save: a short
  /// segment, or one whose CRC trailer does not match) recovers to the last
  /// epoch whose files are all intact; a torn base or manifest, and an
  /// intact segment that is another version's or does not extend its
  /// partition's chain, fail cleanly with every file kept. Each
  /// partition's chain replays as one range, in at most one DeleteBatch
  /// and one InsertBatch (Spade::ReplayDelta), and restored
  /// detectors are bit-identical to the ones that wrote the chain, on the
  /// parallel replay ApplyChainRange shares (ReplayPlans).
  /// Detectors keep their installed semantics; the checkpoint's placement
  /// is restored; the stitch counters and the stitched alert baseline are
  /// reset, so stats() describes the restored run, and the replay's
  /// deletion-generation bump keeps the pre-restore stitched snapshot from
  /// being served (see CurrentGlobalCommunity). The directory's chain
  /// is resumed: the next SaveState into it appends a delta epoch. Only
  /// manifest version 6 is accepted; any other fails with kIOError naming
  /// it, before any file of the directory is touched.
  Status RestoreState(const std::string& dir, RestoreInfo* info = nullptr);

  /// Warm-standby increment: applies delta epochs [first_epoch, last_epoch]
  /// of `dir` on top of the current state (a follower at epoch
  /// first_epoch - 1 catching up), through RestoreState's parallel replay,
  /// into each partition's current owner. kOutOfRange unless base <
  /// first_epoch <= last_epoch <= the manifest's epoch. All-or-nothing:
  /// every segment of the range is parsed, CRC-checked and chain-validated
  /// before any detector is touched, so a corrupt one fails the call with
  /// the IOError naming its file and the fleet intact. Requires a quiesced
  /// service; a fleet that cannot drain within `drain_timeout` fails
  /// before any replay. Invalidates the cached save chain (the next
  /// SaveState writes a full base). `info` is filled as by RestoreState;
  /// after a failure only its stage times are meaningful.
  Status ApplyChainRange(const std::string& dir, std::uint64_t first_epoch,
                         std::uint64_t last_epoch,
                         std::chrono::milliseconds drain_timeout,
                         RestoreInfo* info = nullptr);

 private:
  /// Single-pass density argmax over the shard snapshots: (shard, snapshot).
  std::pair<std::size_t, std::shared_ptr<const Community>> ArgmaxSnapshot()
      const;

  void StitcherLoop();

  /// The stitch pass body (StitchNow with the default budget; the
  /// stitcher's escalation retry with an unbounded seam).
  GlobalCommunity StitchPass(bool unbounded_seam);

  /// Worker-side boundary hook body (BoundaryUpdateFn): adds an applied
  /// cross-home edge to (or subtracts a retired one from) its partition's
  /// boundary weights at its applied weight, and feeds the trigger
  /// accumulators. Keyed by partition (the source's home), NOT by current
  /// owner shard, so the weights survive partition moves.
  /// `num_partitions` is captured, not read from members — workers start
  /// (and may call this) while the constructor is still building later
  /// shards.
  void OnBoundaryUpdate(std::size_t num_partitions, const Edge& edge,
                        double applied, bool retired);

  /// Replaces partition `pid`'s boundary weights with a from-scratch count
  /// of the cross-home edges in `detector`'s graph and benign buffer. The
  /// caller keeps the detector still meanwhile: before its worker exists,
  /// or under its worker's detector mutex (ReplayPlans).
  void RecountBoundary(std::size_t pid, const Spade& detector);

  /// ReadShardManifest, failing kFailedPrecondition unless the manifest's
  /// partition count is this fleet's.
  Status ReadManifest(const std::string& dir, ShardManifest* manifest) const;

  /// Phase 2 of RestoreState and ApplyChainRange: one task per partition,
  /// on min(workers, partitions) threads, replays the partition's plan into
  /// its current owner and then recounts its boundary weights. Partitions
  /// share only their worker's detector mutex, so the result does not
  /// depend on the interleaving. Sets `info`'s replay_millis to `stage`'s
  /// reading once the pool is done (`stage` started with the replay stage)
  /// and its recount_millis to the recounts' summed time. Caller holds
  /// save_mutex_ and rebalance_mutex_, with the fleet drained.
  Status ReplayPlans(std::vector<ShardWorker::RestorePlan> plans,
                     const Timer& stage, RestoreInfo* info);

  /// The stable partition id of an edge: spade::PartitionOf over this
  /// service's partitioner and partition count.
  std::size_t PartitionOf(const Edge& raw_edge) const;

  /// ForwardFn body for worker `from`: re-submits edges whose partitions
  /// moved away to their current owners via the never-blocking OfferBatch.
  /// Returns the accepted prefix length; stops early at the first edge
  /// whose partition came back home (`from` re-applies it locally).
  std::size_t RouteForward(std::size_t from, std::span<const Edge> edges);

  /// Shared body of RebalanceNow and the rebalancer's steals (takes
  /// rebalance_mutex_, quiesces the current owner, then places the
  /// partition). `stolen` tags the steals counter.
  Status MovePartition(std::size_t pid, std::size_t to_shard, bool stolen);

  /// The one placement step, for moves and for RestoreState's checkpointed
  /// placement: detaches `pid` from its owner, attaches it to `to_shard`,
  /// then publishes the routing entry (a no-op when it already lives
  /// there). Caller holds rebalance_mutex_.
  Status PlacePartitionLocked(std::size_t pid, std::size_t to_shard);

  /// The manifest's sparse placement rows, (pid, owner) for every
  /// partition living away from its default worker (pid % num_workers),
  /// written by both kinds of save. Caller holds rebalance_mutex_.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> PlacementRows() const;

  /// Background steal loop (started when rebalance.interval_ms > 0).
  void RebalancerLoop();

  /// Sum of every worker's accepted-edge counter; stable across two reads
  /// with no concurrent producers, which is what DrainFor's fixpoint loop
  /// needs (a forwarded edge re-enters a queue AFTER the victim's Drain
  /// returned, so one pass over the workers is not enough).
  std::uint64_t TotalSubmitted() const;

  /// Window-mode submit hook: CAS-max the watermark over `ts` and, when it
  /// has advanced a full stride past the last automatic horizon, enqueue a
  /// retire pass on every shard. No-op when the window is off.
  void ObserveTimestamp(Timestamp ts);
  /// Highest event timestamp in `raw_edges` (one scan per batch chunk).
  void ObserveBatchTimestamps(std::span<const Edge> raw_edges);

  /// True while every worker still reports the deletion generation
  /// `generations` recorded for it.
  bool NoDeletionSince(const std::vector<std::uint64_t>& generations) const;

  /// Full checkpoint: base snapshots + chainless manifest at `epoch`.
  /// Caller holds save_mutex_.
  Status SaveFull(const std::string& dir, std::uint64_t epoch,
                  SaveInfo* info);
  /// Incremental checkpoint appending epoch `chain_.epoch + 1`. Caller
  /// holds save_mutex_.
  Status SaveDeltaEpoch(const std::string& dir, SaveInfo* info);
  /// Deletes base/delta files in `dir` that the just-written manifest no
  /// longer references (best effort; orphans are harmless but untidy).
  void RemoveStaleChainFiles(const std::string& dir) const;

  ShardedDetectionServiceOptions options_;
  ShardAlertFn on_alert_;  // outlives the workers (declared first)
  std::string semantics_;
  /// Partition -> current owner shard (lock-free reads on every Submit;
  /// declared before workers_ so forward closures can capture it safely).
  PartitionMap map_;
  /// Recycles consumed batch slabs back to the batched router.
  std::shared_ptr<SlabPool> slab_pool_;

  // --- boundary weights (declared before workers_: their hooks write it) --
  /// One partition's boundary weights: vertex -> {weight, count} over the
  /// cross-home edges stored in that partition's detector. `mutex` guards
  /// `weight`; the two atomics mirror it for lock-free stats. Lock order:
  /// a worker's detector mutex, then this one.
  struct PartitionBoundary {
    mutable std::mutex mutex;
    std::unordered_map<VertexId, BoundaryWeight> weight;
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::size_t> entries{0};
  };
  /// One per partition, fixed at construction (PartitionBoundary is
  /// immovable; never resized).
  std::vector<PartitionBoundary> boundary_;
  /// Cross-home edges the hook has added since construction (monotone;
  /// recounts excluded). The stitched read's freshness is this minus
  /// merged_recorded_.
  std::atomic<std::uint64_t> boundary_recorded_{0};

  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // --- rebalance state ---------------------------------------------------
  /// Serializes partition moves (and excludes them from checkpoints and
  /// stitch gathers: Save*/StitchPass hold it so placement is frozen while
  /// they read multiple workers). Ordered AFTER save_mutex_ and
  /// stitch_mutex_: those paths acquire it, never the reverse.
  mutable std::mutex rebalance_mutex_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> partitions_moved_{0};
  std::atomic<std::uint64_t> forwarded_edges_{0};
  std::mutex rebalancer_mutex_;
  std::condition_variable rebalancer_cv_;
  bool rebalancer_stop_ = false;
  std::thread rebalancer_;

  // --- checkpoint chain state (guarded by save_mutex_; Save/Restore
  // serialize against each other, never against producers or readers) ----
  mutable std::mutex save_mutex_;
  /// Directory of the active delta chain ("" = none; next save is full).
  std::string chain_dir_;
  /// Cached manifest of `chain_dir_` (what a restore would read).
  ShardManifest chain_;
  /// Byte accounting driving CheckpointPolicy::max_delta_base_ratio.
  std::uint64_t chain_base_bytes_ = 0;
  std::uint64_t chain_delta_bytes_ = 0;

  // --- window expiry state (lock-free; submit hot path touches only the
  // watermark CAS-max when the window is on) ------------------------------
  /// High-water event timestamp over all submitted edges.
  std::atomic<Timestamp> watermark_{0};
  /// Horizon of the last automatically triggered retire pass; the next
  /// trigger fires when watermark - span >= last_horizon_ + stride.
  std::atomic<Timestamp> last_horizon_{0};

  // --- stitch state (all guarded by stitch_mutex_; passes serialize) -----
  mutable std::mutex stitch_mutex_;
  std::vector<VertexId> last_stitched_members_;  // sorted
  double last_stitched_density_ = -1.0;

  // --- published stitched snapshot (readers never wait on a pass; same
  // publication as ShardWorker's shard snapshot) ------------------------
  /// One pass's result and every worker's deletion generation, read before
  /// the pass measured anything.
  struct StitchedSnapshot {
    GlobalCommunity community;
    std::vector<std::uint64_t> generations;
  };
  PublishedPtr<StitchedSnapshot> stitched_;
  std::atomic<std::uint64_t> stitch_passes_{0};
  std::atomic<std::uint64_t> stitched_alerts_{0};
  std::atomic<std::uint64_t> seam_truncated_{0};
  std::atomic<std::uint64_t> stitch_triggers_{0};
  /// boundary_recorded_ as read just before each stitch pass merged the
  /// boundary weights; the difference against the live counter is the
  /// stitched read's freshness in edges (GetStats, lock-free).
  std::atomic<std::uint64_t> merged_recorded_{0};

  // --- trigger accumulators (written from worker apply paths; one atomic
  // double per ordered PARTITION pair, CAS-add — allocated only when the
  // trigger is armed: trigger_weight > 0 and the fleet has > 1
  // partition) -------------------------------------------------------------
  std::unique_ptr<std::atomic<double>[]> pair_weight_;

  // --- background stitcher (started when stitch.interval_ms > 0 or the
  // trigger is armed) -----------------------------------------------------
  std::mutex stitcher_mutex_;
  std::condition_variable stitcher_cv_;
  bool stitcher_stop_ = false;
  /// A trigger crossed the threshold since the last pass started
  /// (guarded by stitcher_mutex_, like stitcher_stop_).
  bool trigger_pending_ = false;
  std::thread stitcher_;
};

}  // namespace spade
