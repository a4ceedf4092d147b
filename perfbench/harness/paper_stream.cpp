// paper-stream: the paper's own loop (Listing 1, Fig 10, Table 4). One
// Spade with DW semantics and edge grouping replays a Grab-like stream edge
// by edge through InsertEdge. Core reordering and peel detection do all the
// work; service, storage and net do none.
//
// Untraced rounds time each InsertEdge call. Traced rounds make the same
// two calls InsertEdge is made of — Spade::ApplyEdge (core) then
// PeelState::DetectCommunity (peel) — so the trace can split an update
// between the two layers.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "core/spade.h"
#include "datagen/workload.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"

namespace perfbench {
namespace {

using spade::Community;
using spade::Edge;
using spade::VertexId;

// Grab1 at 0.02 of paper scale: 79,820 vertices, ~180k initial edges and a
// ~20k-edge stream plus one injected instance of each fraud pattern.
constexpr double kScale = 0.02;
constexpr int kStaticReps = 9;

struct PaperState {
  spade::Workload w;
  spade::Spade spade;
};

/// Deterministic outcome of one replay; every round must reproduce it.
struct Outcome {
  std::size_t urgent = 0;
  std::size_t detected_groups = 0;
  double prevention_ratio = 0.0;
};

std::unique_ptr<PaperState> Setup(const RunConfig& cfg, Report& report) {
  auto st = std::make_unique<PaperState>();
  const spade::FraudMix mix;  // one instance of each of the three patterns
  st->w = spade::BuildWorkload("Grab1", kScale, cfg.seed, &mix);
  st->spade.SetSemantics(spade::MakeDW());
  st->spade.TurnOnEdgeGrouping();
  if (!report.Op(st->spade.BuildGraph(st->w.num_vertices, st->w.initial),
                 "BuildGraph")) {
    return nullptr;
  }
  return st;
}

void Round(PaperState& st, Report& report, Trace& trace,
           std::optional<Outcome>* first) {
  const spade::LabeledStream& stream = st.w.stream;
  spade::Spade& spade = st.spade;
  spade.ResetStats();

  // Fraud-group membership, for the position-based prevention ratio: a
  // group counts as detected at the first update whose community holds one
  // of its vertices; its fraud edges after that position are prevented.
  std::vector<std::int32_t> group_of;
  for (std::size_t g = 0; g < stream.group_vertices.size(); ++g) {
    for (VertexId v : stream.group_vertices[g]) {
      if (v >= group_of.size()) group_of.resize(v + 1, -1);
      group_of[v] = static_cast<std::int32_t>(g);
    }
  }
  std::vector<std::int64_t> detected_at(stream.group_vertices.size(), -1);
  std::size_t undetected = detected_at.size();

  std::vector<double> update_us, benign_us, urgent_us, detect_us;
  update_us.reserve(stream.size());
  double total_s = 0.0;
  Outcome out;
  {
    Trace::Scope workload(&trace, "bench", "paper-stream");
    Trace::Scope phase(&trace, "bench", "replay");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Edge& e = stream.edges[i];
      const std::size_t pending = spade.PendingBenignEdges();
      Community community;
      double us = 0.0;
      if (!trace.on()) {
        const auto t0 = Clock::now();
        spade::Result<Community> r = spade.InsertEdge(e);
        const auto t1 = Clock::now();
        us = MicrosBetween(t0, t1);
        if (!report.Op(r.status(), "InsertEdge")) return;
        community = std::move(r).value();
      } else {
        const std::uint32_t group = trace.NewGroup();
        const auto t0 = Clock::now();
        spade::Status s;
        {
          Trace::Scope span(&trace, "core", "Spade::ApplyEdge", group);
          s = spade.ApplyEdge(e);
        }
        const auto t1 = Clock::now();
        {
          Trace::Scope span(&trace, "peel", "PeelState::DetectCommunity",
                            group);
          community = spade.peel_state().DetectCommunity();
        }
        const auto t2 = Clock::now();
        us = MicrosBetween(t0, t2);
        if (!report.Op(s, "ApplyEdge")) return;
        if (spade.PendingBenignEdges() <= pending) {
          detect_us.push_back(MicrosBetween(t1, t2));
        }
      }
      total_s += us * 1e-6;
      update_us.push_back(us);
      // A benign edge grows the buffer; anything else flushed it and
      // reordered (Algorithm 3's urgent path).
      const bool urgent = spade.PendingBenignEdges() <= pending;
      (urgent ? urgent_us : benign_us).push_back(us);
      if (!urgent || undetected == 0) continue;
      for (VertexId v : community.members) {
        if (v >= group_of.size() || group_of[v] < 0) continue;
        auto& at = detected_at[static_cast<std::size_t>(group_of[v])];
        if (at < 0) {
          at = static_cast<std::int64_t>(i);
          --undetected;
        }
      }
    }
  }
  out.urgent = urgent_us.size();

  report.Extend("update_us", update_us);
  report.Extend("benign_us", benign_us);
  report.Extend("urgent_us", urgent_us);
  report.Extend("detect_us", detect_us);
  report.Add("update_total_s", total_s);
  report.Add("update_edges", static_cast<double>(stream.size()));

  std::size_t fraud_total = 0;
  std::size_t prevented = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (!stream.IsFraud(i)) continue;
    ++fraud_total;
    const std::int64_t at =
        detected_at[static_cast<std::size_t>(stream.group[i])];
    if (at >= 0 && static_cast<std::int64_t>(i) > at) ++prevented;
  }
  for (std::int64_t at : detected_at) out.detected_groups += at >= 0;
  out.prevention_ratio =
      fraud_total ? static_cast<double>(prevented) / fraud_total : 0.0;

  const spade::ReorderStats& rs = spade.cumulative_stats();
  const double edges = static_cast<double>(stream.size());
  report.Set("stream_edges", edges);
  report.Set("urgent_updates", static_cast<double>(out.urgent));
  report.Set("affected_vertices", static_cast<double>(rs.affected_vertices));
  report.Set("touched_edges", static_cast<double>(rs.touched_edges));
  report.Set("rewritten_span", static_cast<double>(rs.rewritten_span));
  report.Set("fraud_groups", static_cast<double>(detected_at.size()));
  report.Set("detected_groups", static_cast<double>(out.detected_groups));
  report.Set("prevention_ratio", out.prevention_ratio);
  report.Set("graph_vertices", static_cast<double>(spade.graph().NumVertices()));
  report.Set("graph_edges", static_cast<double>(spade.graph().NumEdges()));

  // Gate: the incremental answer equals a from-scratch peel of the final
  // graph, tie-exact. The static peel is also the recovery path of a
  // detector that keeps no checkpoint, so its time is recorded.
  const Community live = spade.Detect();
  Community reference;
  for (int r = 0; r < kStaticReps; ++r) {
    const auto t0 = Clock::now();
    const spade::PeelState state = spade::PeelStatic(spade.graph());
    report.Add("static_ms", MillisBetween(t0, Clock::now()));
    reference = state.DetectCommunity();
  }
  std::string why;
  report.Check(SameCommunity(live, reference, 1e-9, &why),
               "paper-stream Detect() == PeelStatic: " + why);
  report.Check(out.detected_groups > 0,
               "paper-stream detects at least one fraud group");
  if (!first->has_value()) {
    *first = out;
  } else {
    report.Check(out.urgent == (*first)->urgent &&
                     out.detected_groups == (*first)->detected_groups &&
                     out.prevention_ratio == (*first)->prevention_ratio,
                 "paper-stream rounds agree on urgent count, detected "
                 "groups and prevention ratio");
  }
}

}  // namespace

void RunPaperStream(const RunConfig& cfg, Report& report, Trace& trace) {
  std::optional<Outcome> first;
  RunRounds<PaperState>(
      cfg, report, trace, [&] { return Setup(cfg, report); },
      [&](PaperState& st) { Round(st, report, trace, &first); });
}

}  // namespace perfbench
