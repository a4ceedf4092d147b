// Moderator pipeline: the paper's Figure 1 deployment loop end to end —
// multiple transaction producers submit concurrently to a one-shard
// ShardedDetectionService; the service incrementally maintains the
// fraudulent community and alerts a moderator callback, which classifies
// each alert's fraud pattern and "bans" the accounts.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "analysis/pattern_classifier.h"
#include "datagen/workload.h"
#include "service/sharded_detection_service.h"

int main() {
  spade::FraudMix mix;
  mix.instances_per_pattern = 1;
  mix.transactions_per_instance = 250;
  const spade::Workload w =
      spade::BuildWorkload("Grab1", /*scale=*/0.001, /*seed=*/77, &mix);

  spade::Spade detector;
  detector.SetSemantics(spade::MakeDW());
  if (!detector.BuildGraph(w.num_vertices, w.initial).ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }

  std::mutex print_mutex;
  std::atomic<int> banned{0};
  const spade::VertexId merchant_base = w.merchant_base;
  std::vector<spade::Spade> shards;
  shards.push_back(std::move(detector));
  spade::ShardedDetectionService service(
      std::move(shards),
      [&](std::size_t /*shard*/, const spade::Community& community) {
        const std::lock_guard<std::mutex> lock(print_mutex);
        ++banned;
        std::printf("[moderator] alert: %zu accounts, density %.2f\n",
                    community.members.size(), community.density);
      });

  // Two producers split the stream and submit concurrently (out of order
  // between threads, like independent payment gateways).
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t);
           i < w.stream.size(); i += 2) {
        while (!service.Submit(w.stream.edges[i]).ok()) {
          std::this_thread::yield();  // backpressure
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  service.Drain();

  spade::Community final_community = service.CurrentCommunity();
  service.Stop();

  std::printf("\nprocessed %llu transactions, delivered %llu alerts\n",
              static_cast<unsigned long long>(service.EdgesProcessed()),
              static_cast<unsigned long long>(service.AlertsDelivered()));
  std::printf("final community: %zu accounts, density %.2f\n",
              final_community.members.size(), final_community.density);

  // Classify what the moderators are looking at. The classifier needs the
  // graph; rebuild a reference detector for the inspection step.
  spade::Spade inspector;
  inspector.SetSemantics(spade::MakeDW());
  if (inspector.BuildGraph(w.num_vertices, w.initial).ok()) {
    std::vector<spade::Edge> all(w.stream.edges);
    if (inspector.InsertBatchEdges(all).ok()) {
      const spade::CommunityPattern pattern = spade::ClassifyCommunity(
          inspector.graph(), final_community, merchant_base);
      std::printf("pattern: %s\n",
                  spade::CommunityPatternName(pattern).c_str());
    }
  }
  return 0;
}
