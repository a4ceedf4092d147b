// Replayer: drives a Spade instance with a labeled update stream and
// measures the paper's evaluation metrics — per-edge elapsed time E,
// fraud-activity latency L (Eq. 4, queueing + processing), and prevention
// ratio R.
//
// Simulated time model: stream timestamps are microseconds. Processing cost
// is measured on the wall clock and added to the simulated arrival time of
// the flush trigger, so L decomposes exactly like the paper's Figure 8:
// queueing time (τ_s - τ_i, simulated) plus reorder time (τ_f - τ_s,
// measured).

#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "core/incremental_engine.h"
#include "core/spade.h"
#include "service/sharded_detection_service.h"
#include "stream/labeled_stream.h"

namespace spade {

/// How the replayer batches updates.
struct ReplayOptions {
  /// Fixed batch size |ΔE| (1 = per-edge incremental); ignored when
  /// `use_edge_grouping` is set.
  std::size_t batch_size = 1;

  /// Use Spade's Algorithm 3 edge grouping instead of fixed batching.
  bool use_edge_grouping = false;

  /// Run Detect() (community extraction) after every flush; mirrors the
  /// deployment loop and is required for prevention accounting.
  bool detect_after_flush = true;
};

/// Aggregate measurements of one replay.
struct ReplayReport {
  std::size_t edges_processed = 0;
  std::size_t flushes = 0;

  /// Wall-clock reorder cost, total and per-edge average (paper's E).
  double total_process_micros = 0.0;
  double MeanMicrosPerEdge() const {
    return edges_processed == 0
               ? 0.0
               : total_process_micros / static_cast<double>(edges_processed);
  }

  /// Simulated per-fraud-edge latency τ_f − τ_i (queueing + processing).
  Summary fraud_latency_micros;
  /// Simulated queueing-only component τ_s − τ_i of fraud edges.
  Summary fraud_queue_micros;

  /// Pooled prevention ratio R over all fraud groups.
  double prevention_ratio = 0.0;
  /// Per-group detection times (simulated micros; <0 = never detected).
  std::vector<double> group_detection_time;

  /// Affected-area accounting accumulated over the run.
  ReorderStats reorder_stats;
};

/// Replays `stream` into `spade` under the given batching policy.
///
/// `spade` must already hold the initial graph (the 90% split). Fraud groups
/// are "detected" the first time any of their member vertices appears in the
/// detected community S_P after a flush.
ReplayReport Replay(Spade* spade, const LabeledStream& stream,
                    const ReplayOptions& options);

// ---------------------------------------------------------------------------
// Multi-producer service replay: the throughput-oriented counterpart of
// Replay(). Instead of simulating the deployment loop single-threaded, it
// stands up a real ShardedDetectionService, fans the stream out from
// `num_producers` submit threads as fast as the service accepts it, and
// measures wall-clock ingest throughput plus the submit→alert latency of
// each fraud group.

/// Options for ReplayThroughService. Producers hand the stream to the
/// service only through best-effort SubmitBatch calls of `producer_batch`
/// edges: edges a call could not enqueue count as submit failures.
struct ServiceReplayOptions {
  /// Concurrent submit threads. Producers claim contiguous chunks of the
  /// stream off a shared cursor, so each forwards the globally-interleaved
  /// arrival order (cross-chunk per-shard order is then
  /// scheduling-dependent, as with any concurrent ingest tier).
  std::size_t num_producers = 4;
  /// Edges per producer SubmitBatch call (the slice each producer claims
  /// off the shared cursor). Chunking amortizes the routing pass, the
  /// queue claim and the worker wakeup over the slice.
  std::size_t producer_batch = 64;
  /// Run one cross-shard stitch pass after the drain and report its result
  /// (final_stitched / final_argmax / stitch_millis). Groups only reachable
  /// through stitching are credited as detected from the stitched snapshot.
  /// The stitch cost is excluded from wall_seconds (it is an amortized
  /// periodic pass, not per-edge work) and reported separately.
  bool final_stitch = false;
  /// When > 0, a checkpointer thread runs ShardedDetectionService::
  /// SaveState (auto mode: full base first, delta epochs after) into
  /// `checkpoint_dir` every time roughly this many more edges have been
  /// applied, plus once after the final drain — the deployment loop's
  /// durability tier running against live traffic. Checkpoint time is
  /// reported separately, but the per-checkpoint drains do overlap the
  /// ingest window, so enable this for durability studies, not for
  /// throughput comparisons.
  std::size_t checkpoint_every_edges = 0;
  std::string checkpoint_dir;
  /// Service construction knobs (shard worker options + partitioner).
  ShardedDetectionServiceOptions service;
};

/// Aggregate measurements of one service replay.
struct ServiceReplayReport {
  std::size_t edges_submitted = 0;
  std::size_t submit_failures = 0;
  /// Submit start to Drain() return (every edge applied and republished).
  double wall_seconds = 0.0;
  /// Submit start to the last producer's return — the admission phase.
  /// With ample queue budget this isolates the router+handoff cost from
  /// the apply cost; when backpressure throttles producers to the workers'
  /// pace it converges toward wall_seconds.
  double submit_seconds = 0.0;
  std::uint64_t edges_processed = 0;
  std::uint64_t alerts = 0;
  std::uint64_t detections = 0;

  /// Aggregate end-to-end throughput (submit start → drained), edges/s.
  double SubmitThroughputEps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(edges_submitted) / wall_seconds
               : 0.0;
  }

  /// Admission throughput (submit start → producers done), edges/s.
  double AdmissionThroughputEps() const {
    return submit_seconds > 0.0
               ? static_cast<double>(edges_submitted) / submit_seconds
               : 0.0;
  }

  /// Wall-clock latency from a fraud group's first submit *attempt* to the
  /// first alert (or final snapshot) containing one of its vertices (in
  /// fail-fast mode a group's first edge may have been rejected; its clock
  /// still starts at the attempt).
  Summary fraud_latency_micros;
  std::size_t groups_detected = 0;
  std::size_t groups_total = 0;

  /// Filled when ServiceReplayOptions::final_stitch is set.
  bool stitched_valid = false;
  GlobalCommunity final_stitched;
  Community final_argmax;
  double stitch_millis = 0.0;
  std::uint64_t boundary_edges = 0;

  /// Highest queue depth any shard reached during the ADMISSION phase
  /// (submit start → producers done). Handoff pressure: near the
  /// configured max_queue means producers outran a shard worker.
  std::size_t queue_hwm = 0;
  /// Highest queue depth any shard reached during the DRAIN phase. The
  /// marks are reset between phases (ResetQueueHighWater), so each number
  /// describes its own phase — previously the admission peak bled into
  /// every later reading.
  std::size_t queue_hwm_drain = 0;

  /// Filled when ServiceReplayOptions::checkpoint_every_edges > 0.
  std::size_t checkpoints = 0;        // saves taken (incl. the final one)
  std::size_t delta_checkpoints = 0;  // of which were delta epochs
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_millis = 0.0;
  std::uint64_t final_epoch = 0;      // checkpoint epoch after the last save
};

/// Builds a ShardedDetectionService over `shards` (moved in), replays
/// `stream` through it from multiple producer threads, drains, and stops
/// the service before returning.
ServiceReplayReport ReplayThroughService(std::vector<Spade> shards,
                                         const LabeledStream& stream,
                                         const ServiceReplayOptions& options);

}  // namespace spade
