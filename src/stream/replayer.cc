#include "stream/replayer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"

namespace spade {

namespace {

/// Marks groups whose vertices intersect the community as detected.
void UpdateDetections(const Community& community,
                      const LabeledStream& stream, double now_micros,
                      std::vector<double>* detection_time) {
  if (detection_time->empty()) return;
  std::unordered_set<VertexId> members(community.members.begin(),
                                       community.members.end());
  for (std::size_t gid = 0; gid < detection_time->size(); ++gid) {
    if ((*detection_time)[gid] >= 0.0) continue;
    for (VertexId v : stream.group_vertices[gid]) {
      if (members.count(v) != 0) {
        (*detection_time)[gid] = now_micros;
        break;
      }
    }
  }
}

}  // namespace

ReplayReport Replay(Spade* spade, const LabeledStream& stream,
                    const ReplayOptions& options) {
  SPADE_CHECK_EQ(stream.edges.size(), stream.group.size());
  ReplayReport report;
  report.group_detection_time.assign(stream.group_vertices.size(), -1.0);

  if (options.use_edge_grouping) {
    spade->TurnOnEdgeGrouping();
  } else {
    spade->TurnOffEdgeGrouping();
  }

  // Pending (queued) edge indices of the current batch/buffer.
  std::vector<std::size_t> queued;
  const std::size_t n = stream.edges.size();

  auto account_fraud = [&](double tau_f, double tau_s) {
    for (std::size_t idx : queued) {
      if (stream.IsFraud(idx)) {
        const double tau_i = static_cast<double>(stream.edges[idx].ts);
        report.fraud_latency_micros.Add(tau_f - tau_i);
        report.fraud_queue_micros.Add(std::max(0.0, tau_s - tau_i));
      }
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = stream.edges[i];
    queued.push_back(i);

    bool flushed = false;
    double tau_s = 0.0;
    double process_micros = 0.0;
    Community community;

    if (options.use_edge_grouping) {
      // Spade buffers internally; the pending count reveals whether this
      // edge triggered a flush.
      tau_s = static_cast<double>(e.ts);
      Timer timer;
      SPADE_CHECK(spade->ApplyEdge(e).ok());
      flushed = spade->PendingBenignEdges() == 0;
      if (flushed && options.detect_after_flush) {
        community = spade->Detect();
      }
      process_micros = timer.ElapsedMicros();
    } else if (queued.size() >= options.batch_size || i + 1 == n) {
      tau_s = static_cast<double>(e.ts);
      Timer timer;
      if (queued.size() == 1) {
        SPADE_CHECK(spade->ApplyEdge(stream.edges[queued[0]]).ok());
      } else {
        std::vector<Edge> batch;
        batch.reserve(queued.size());
        for (std::size_t idx : queued) batch.push_back(stream.edges[idx]);
        SPADE_CHECK(spade->ApplyBatchEdges(batch).ok());
      }
      if (options.detect_after_flush) {
        community = spade->Detect();
      }
      process_micros = timer.ElapsedMicros();
      flushed = true;
    }

    if (flushed) {
      const double tau_f = tau_s + process_micros;
      report.total_process_micros += process_micros;
      ++report.flushes;
      account_fraud(tau_f, tau_s);
      if (options.detect_after_flush) {
        UpdateDetections(community, stream, tau_f,
                         &report.group_detection_time);
      }
      queued.clear();
    }
  }

  // Drain anything still buffered (grouping mode).
  if (!queued.empty() || spade->PendingBenignEdges() > 0) {
    const double tau_s =
        n == 0 ? 0.0 : static_cast<double>(stream.edges.back().ts);
    Timer timer;
    Community community = spade->Detect();
    const double process_micros = timer.ElapsedMicros();
    const double tau_f = tau_s + process_micros;
    report.total_process_micros += process_micros;
    ++report.flushes;
    account_fraud(tau_f, tau_s);
    if (options.detect_after_flush) {
      UpdateDetections(community, stream, tau_f,
                       &report.group_detection_time);
    }
    queued.clear();
  }

  report.edges_processed = n;
  report.reorder_stats = spade->cumulative_stats();

  // Prevention ratio: fraction of fraud edges arriving after their group's
  // detection time (those transactions get banned before completion).
  std::size_t fraud_total = 0;
  std::size_t prevented = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t gid = stream.group[i];
    if (gid == kNormalEdge) continue;
    ++fraud_total;
    const double detected_at = report.group_detection_time[gid];
    if (detected_at >= 0.0 &&
        static_cast<double>(stream.edges[i].ts) > detected_at) {
      ++prevented;
    }
  }
  report.prevention_ratio =
      fraud_total == 0
          ? 0.0
          : static_cast<double>(prevented) / static_cast<double>(fraud_total);
  return report;
}

ServiceReplayReport ReplayThroughService(std::vector<Spade> shards,
                                         const LabeledStream& stream,
                                         const ServiceReplayOptions& options) {
  ServiceReplayReport report;
  const std::size_t n = stream.edges.size();
  const std::size_t groups = stream.group_vertices.size();
  report.groups_total = groups;

  const auto t0 = std::chrono::steady_clock::now();
  auto now_micros = [t0] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Group-membership index for the alert callbacks: vertex -> group ids.
  std::unordered_map<VertexId, std::vector<std::int32_t>> member_groups;
  for (std::size_t gid = 0; gid < groups; ++gid) {
    for (VertexId v : stream.group_vertices[gid]) {
      member_groups[v].push_back(static_cast<std::int32_t>(gid));
    }
  }

  // First-submit time per group: producers race, first CAS wins.
  std::vector<std::atomic<double>> first_submit(groups);
  for (auto& t : first_submit) t.store(-1.0, std::memory_order_relaxed);

  // Detection times, written from concurrent shard alert callbacks.
  std::mutex detect_mutex;
  std::vector<double> detect_time(groups, -1.0);
  std::size_t undetected = groups;
  auto mark_detected = [&](const Community& community, double now) {
    if (groups == 0) return;
    std::lock_guard<std::mutex> lock(detect_mutex);
    if (undetected == 0) return;
    for (VertexId v : community.members) {
      const auto it = member_groups.find(v);
      if (it == member_groups.end()) continue;
      for (const std::int32_t gid : it->second) {
        if (detect_time[gid] < 0.0) {
          detect_time[gid] = now;
          --undetected;
        }
      }
    }
  };

  ShardedDetectionServiceOptions service_options = options.service;
  ShardedDetectionService service(
      std::move(shards),
      [&](std::size_t /*shard*/, const Community& community) {
        mark_detected(community, now_micros());
      },
      std::move(service_options));

  // Checkpointer: a polling background thread taking an auto-mode save
  // whenever the fleet has applied another `checkpoint_every_edges` edges.
  // Polling (rather than producer-triggered saves) keeps the submit path
  // free of any checkpoint coupling; SaveState itself drains, so each save
  // is a consistent per-shard prefix of the stream. A save that is due
  // when ingest ends is still taken before the thread exits, so the count
  // of periodic saves does not depend on where the last poll fell.
  std::thread checkpointer;
  std::atomic<bool> checkpointing_done{false};
  std::mutex checkpoint_mutex;  // guards the report fields below
  auto take_checkpoint = [&] {
    ShardedDetectionService::SaveInfo save_info;
    const auto start = std::chrono::steady_clock::now();
    const Status s = service.SaveState(options.checkpoint_dir,
                                       ShardedDetectionService::SaveMode::kAuto,
                                       &save_info);
    const double millis = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (!s.ok()) {
      SPADE_LOG_WARNING() << "replay checkpoint failed: " << s.ToString();
      return;
    }
    std::lock_guard<std::mutex> lock(checkpoint_mutex);
    ++report.checkpoints;
    if (save_info.delta) ++report.delta_checkpoints;
    report.checkpoint_bytes += save_info.bytes_written;
    report.checkpoint_millis += millis;
    report.final_epoch = save_info.epoch;
  };
  if (options.checkpoint_every_edges > 0) {
    checkpointer = std::thread([&] {
      std::uint64_t next_target = options.checkpoint_every_edges;
      for (;;) {
        // Flag before count: once the flag reads true the fleet has
        // drained, so the count below is final and a due save is taken.
        const bool done = checkpointing_done.load(std::memory_order_acquire);
        if (service.EdgesProcessed() >= next_target) {
          take_checkpoint();
          next_target =
              service.EdgesProcessed() + options.checkpoint_every_edges;
        } else if (done) {
          break;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }

  const std::size_t num_producers = std::max<std::size_t>(
      1, std::min(options.num_producers, std::max<std::size_t>(1, n)));
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> producers;
  producers.reserve(num_producers);
  // Producers pull chunks off a shared cursor (multiple ingest gateways
  // draining one arrival queue). Chunks are contiguous slices of the
  // stream, so every producer forwards the globally-interleaved traffic —
  // a strided split would give each producer (and through the partitioner,
  // each shard) an artificially coherent sub-stream.
  const std::size_t producer_batch =
      std::max<std::size_t>(1, options.producer_batch);
  std::atomic<std::size_t> cursor{0};
  for (std::size_t p = 0; p < num_producers; ++p) {
    producers.emplace_back([&] {
      while (true) {
        const std::size_t start =
            cursor.fetch_add(producer_batch, std::memory_order_relaxed);
        if (start >= n) break;
        const std::size_t end = std::min(start + producer_batch, n);
        for (std::size_t i = start; i < end; ++i) {
          const std::int32_t gid = stream.group[i];
          if (gid != kNormalEdge &&
              first_submit[gid].load(std::memory_order_relaxed) < 0.0) {
            double expected = -1.0;
            first_submit[gid].compare_exchange_strong(expected, now_micros());
          }
        }
        const std::span<const Edge> chunk(stream.edges.data() + start,
                                          end - start);
        std::size_t enqueued = 0;
        if (!service.SubmitBatch(chunk, &enqueued).ok()) {
          failures.fetch_add(chunk.size() - enqueued,
                             std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  report.submit_seconds = now_micros() * 1e-6;
  // Phase boundary for the queue stats: capture the admission-phase peak,
  // then reset the marks so the drain below measures only its own
  // pressure — without the reset the admission peak bleeds into every
  // later reading and the drain number is meaningless.
  {
    const ShardedServiceStats stats = service.GetStats();
    for (const std::size_t hwm : stats.shard_queue_hwm) {
      report.queue_hwm = std::max(report.queue_hwm, hwm);
    }
  }
  service.ResetQueueHighWater();
  // Bounded drain first so a wedged shard queue surfaces as a warning
  // instead of a silent hang; the unbounded drain then finishes the job.
  if (!service.DrainFor(std::chrono::minutes(2))) {
    SPADE_LOG_WARNING()
        << "Replay: shard queues still busy after 2min; waiting unbounded";
  }
  service.Drain();
  report.wall_seconds = now_micros() * 1e-6;

  if (options.checkpoint_every_edges > 0) {
    checkpointing_done.store(true, std::memory_order_release);
    if (checkpointer.joinable()) checkpointer.join();
    // Final checkpoint so the directory covers the whole stream.
    take_checkpoint();
  }

  // Catch-up pass: a group whose community never *changed* after its edges
  // arrived (e.g. it was dense from the start) produced no alert; credit it
  // from the final snapshots.
  const double drained_at = now_micros();
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    const auto snap = service.ShardSnapshot(s);
    if (snap) mark_detected(*snap, drained_at);
  }

  if (options.final_stitch) {
    report.final_argmax = service.CurrentCommunity();
    const double stitch_start = now_micros();
    report.final_stitched = service.StitchNow();
    report.stitch_millis = (now_micros() - stitch_start) * 1e-3;
    report.stitched_valid = true;
    // A group split across shards may be visible only in the stitched
    // community; credit it from there (at the post-stitch clock).
    mark_detected(report.final_stitched, now_micros());
  }

  report.edges_submitted = n;
  report.submit_failures = failures.load();
  report.edges_processed = service.EdgesProcessed();
  report.alerts = service.AlertsDelivered();
  {
    const ShardedServiceStats stats = service.GetStats();
    for (const std::uint64_t d : stats.shard_detections) {
      report.detections += d;
    }
    report.boundary_edges = stats.boundary_edges;
    for (const std::size_t hwm : stats.shard_queue_hwm) {
      report.queue_hwm_drain = std::max(report.queue_hwm_drain, hwm);
    }
  }
  for (std::size_t gid = 0; gid < groups; ++gid) {
    const double submitted = first_submit[gid].load();
    if (detect_time[gid] < 0.0 || submitted < 0.0) continue;
    ++report.groups_detected;
    report.fraud_latency_micros.Add(std::max(0.0, detect_time[gid] - submitted));
  }
  service.Stop();
  return report;
}

}  // namespace spade
