// DetectionService: the deployment loop of the paper's Figure 1 as a
// thread-safe component — transaction producers submit edges from any
// thread; a background worker drains them through Spade (edge grouping on)
// and notifies moderators whenever the detected community changes.
//
// A thin façade over one ShardWorker that owns a single partition, pid 0
// (see shard_worker.h for the lock-split pipeline and the
// snapshot-publication protocol); ShardedDetectionService composes N of the
// same workers behind a partitioner, through the same pid-addressed API.
// The façade is kept because a huge amount of calling code only ever needs
// one shard.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/spade.h"
#include "graph/types.h"
#include "service/shard_worker.h"
#include "storage/snapshot.h"

namespace spade {

/// Thread-safe streaming front-end over one Spade detector.
class DetectionService {
 public:
  /// Takes ownership of a fully built detector (graph loaded, semantics
  /// installed). The worker starts immediately.
  DetectionService(Spade spade, FraudAlertFn on_alert,
                   DetectionServiceOptions options = {})
      : worker_(OnePartition(std::move(spade)), /*total_partitions=*/1,
                [](const Edge&) { return std::size_t{0}; },
                /*forward=*/nullptr, std::move(on_alert), options) {}

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Enqueues one transaction; callable from any thread. Fails with
  /// kFailedPrecondition after Stop(); a full queue either fails with
  /// kOutOfRange or blocks, per DetectionServiceOptions::block_when_full.
  Status Submit(const Edge& raw_edge) { return worker_.Submit(raw_edge); }

  /// Bulk enqueue through the lock-free chunk handoff: one budget claim,
  /// one ring cell, at most one worker wakeup for the whole chunk. Without
  /// `accepted` the call is all-or-nothing; with it, `*accepted` reports
  /// the exact enqueued prefix even when backpressure splits or truncates
  /// the chunk (see ShardWorker::SubmitBatch).
  Status SubmitBatch(std::span<const Edge> raw_edges,
                     std::size_t* accepted = nullptr) {
    return worker_.SubmitBatch(raw_edges, accepted);
  }

  /// Blocks until every edge submitted before this call has been applied
  /// and is reflected by CurrentCommunity().
  void Drain() { worker_.Drain(); }

  /// Bounded-wait Drain: true when the snapshot became exact within
  /// `timeout`, false when the deadline passed with edges still in flight.
  bool DrainFor(std::chrono::milliseconds timeout) {
    return worker_.DrainFor(timeout);
  }

  /// Drains, stops the worker and joins it. Idempotent.
  void Stop() { worker_.Stop(); }

  /// Latest published community; never blocks on an in-flight apply.
  Community CurrentCommunity() const { return worker_.CurrentCommunity(); }

  /// Zero-copy variant: the published snapshot itself.
  std::shared_ptr<const Community> CurrentSnapshot() const {
    return worker_.CurrentSnapshot();
  }

  /// Edges applied by the worker so far (lock-free).
  std::uint64_t EdgesProcessed() const { return worker_.EdgesProcessed(); }

  /// Alerts delivered so far (lock-free).
  std::uint64_t AlertsDelivered() const { return worker_.AlertsDelivered(); }

  /// Persists / restores the detector state (drains first). The restored
  /// community is republished and becomes the alert baseline.
  Status SaveState(const std::string& path) {
    return worker_.SavePartition(0, path);
  }
  Status RestoreState(const std::string& path) {
    ShardWorker::RestorePlan plan;
    SPADE_RETURN_NOT_OK(LoadSnapshot(path, &plan.graph, &plan.state,
                                     &plan.state_present, &plan.window));
    // A plan without segments: install the base, replay nothing. Delta
    // tracking stays off — this façade never writes delta segments.
    return worker_.RestorePartitionChain(0, std::move(plan),
                                         /*track_deltas=*/false);
  }

 private:
  static std::vector<ShardWorker::PartitionSeed> OnePartition(Spade spade) {
    std::vector<ShardWorker::PartitionSeed> seeds;
    seeds.push_back(ShardWorker::PartitionSeed{0, std::move(spade)});
    return seeds;
  }

  ShardWorker worker_;
};

}  // namespace spade
