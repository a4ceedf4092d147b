// Shared pieces of the end-to-end benchmark harness: the run configuration,
// the raw-sample report every workload fills, the in-memory span recorder
// behind --trace, and the round loop every workload shares.
//
// The harness only measures. It writes raw samples, counts and correctness
// checks as one JSON document; run.py (with stats.py) reduces them to the
// named metrics, so every percentile, share and self time is computed in one
// tested place.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "graph/dynamic_graph.h"
#include "peel/peel_state.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
/// Nanoseconds since the first call in this process (steady clock), small
/// enough to stay exact when written out as a double.
inline std::int64_t NowNanos() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints (inside the checkout).
  std::string work_dir;
};

/// Spans around the harness's calls into the library, kept in memory while a
/// traced round runs and written out once at exit. Each span has a name, a
/// layer (the src/ module of the called function, or "bench" for the
/// workload and phase spans), start/end, the span that encloses it, and a
/// group id shared by the calls of one update, batch, pass or checkpoint.
class Trace {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t group = 0;
    std::uint32_t round = 0;
    const char* layer = "";
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; a no-op when the trace is off.
  class Scope {
   public:
    Scope(Trace* trace, const char* layer, const char* name,
          std::uint32_t group = 0)
        : trace_(trace),
          id_(trace->on_ ? trace->Begin(layer, name, group) : 0) {}
    ~Scope() {
      if (id_ != 0) trace_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    std::uint32_t id_;
  };

  bool on() const { return on_; }
  void SetOn(bool on, std::uint32_t round) {
    on_ = on;
    round_ = round;
  }
  /// A fresh group id (0 when off: untraced rounds never group).
  std::uint32_t NewGroup() { return on_ ? ++last_group_ : 0; }

  std::uint32_t Begin(const char* layer, const char* name,
                      std::uint32_t group) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.group = group;
    s.round = round_;
    s.layer = layer;
    s.name = name;
    s.start_ns = NowNanos();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }
  void End(std::uint32_t id) {
    spans_[id - 1].end_ns = NowNanos();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  /// Tab-separated, one span per line:
  /// id parent group round layer name start_ns end_ns.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tgroup\tround\tlayer\tname\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u\t%u\t%u\t%u\t%s\t%s\t%lld\t%lld\n", s.id, s.parent,
                   s.group, s.round, s.layer, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::uint32_t round_ = 0;
  std::uint32_t last_group_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Raw measurements of one run. Samples taken in a traced round go to a
/// separate "trace:"-prefixed series, so end-to-end figures only ever see
/// untraced rounds.
class Report {
 public:
  void SetTraced(bool traced) { traced_ = traced; }

  void Add(const std::string& series, double value) {
    samples_[Key(series)].push_back(value);
  }
  void Extend(const std::string& series, const std::vector<double>& values) {
    auto& dst = samples_[Key(series)];
    dst.insert(dst.end(), values.begin(), values.end());
  }
  /// Scalar figure of the latest round (counts read after timing).
  void Set(const std::string& name, double value) { values_[Key(name)] = value; }

  /// One attempted library operation; a non-OK status is a failed one.
  bool Op(const spade::Status& s, const char* what) {
    ++attempted_;
    if (s.ok()) return true;
    ++failed_;
    Note(std::string(what) + ": " + s.ToString());
    return false;
  }
  /// One correctness check; a failed check is a failed operation.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    ++checks_;
    if (ok) return true;
    ++failed_;
    Note("check failed: " + what);
    return false;
  }
  std::uint64_t failed() const { return failed_; }

  void WriteJson(std::FILE* f, const std::string& header_json) const;

 private:
  std::string Key(const std::string& name) const {
    return traced_ ? "trace:" + name : name;
  }
  void Note(const std::string& msg) {
    if (errors_.size() < 16) errors_.push_back(msg);
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  }

  bool traced_ = false;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
};

/// Sorted members plus density: tie-exact when members match exactly and
/// the densities are equal up to `rel_tol` relative difference.
bool SameCommunity(spade::Community a, spade::Community b, double rel_tol,
                   std::string* why);

/// A graph's edges as sorted (src, dst, weight) triples, for comparing
/// edge multisets.
using EdgeKey = std::tuple<spade::VertexId, spade::VertexId, double>;
std::vector<EdgeKey> SortedEdges(const spade::DynamicGraph& g);

/// Runs fresh (setup, round) pairs until the measured rounds cover
/// cfg.seconds, then tops up the set-up samples to at least seven. Set-up
/// time goes to the "setup_s" series, each round's wall time to
/// "round_s". With --trace, rounds alternate untraced / traced (an even
/// count, at least two), so the per-layer figures and the tracing overhead
/// come from the same run.
template <typename State>
void RunRounds(const RunConfig& cfg, Report& report, Trace& trace,
               const std::function<std::unique_ptr<State>()>& setup,
               const std::function<void(State&)>& round) {
  constexpr int kMinSetups = 7;
  int setups = 0;
  auto timed_setup = [&] {
    report.SetTraced(false);
    const auto t0 = Clock::now();
    std::unique_ptr<State> state = setup();
    report.Add("setup_s", SecondsBetween(t0, Clock::now()));
    ++setups;
    return state;
  };
  double measured = 0.0;
  for (std::uint32_t r = 0;; ++r) {
    std::unique_ptr<State> state = timed_setup();
    if (!state) return;  // set-up failed; already counted in the report
    const bool traced = cfg.trace && r % 2 == 1;
    report.SetTraced(traced);
    trace.SetOn(traced, r);
    const auto t0 = Clock::now();
    round(*state);
    const double round_s = SecondsBetween(t0, Clock::now());
    trace.SetOn(false, r);
    report.Add("round_s", round_s);
    state.reset();
    measured += round_s;
    if (report.failed() > 0) break;
    // A traced run measures in (untraced, traced) pairs. Start another
    // round, or pair, only when at least half of it still fits.
    const bool pair_done = !cfg.trace || r % 2 == 1;
    const double next = cfg.trace ? 2 * round_s : round_s;
    if (pair_done && measured + next / 2 >= cfg.seconds) break;
  }
  while (setups < kMinSetups && timed_setup()) {
  }
  report.SetTraced(false);
}

// The workloads (one translation unit each).
void RunPaperStream(const RunConfig& cfg, Report& report, Trace& trace);
void RunWindowStitch(const RunConfig& cfg, Report& report, Trace& trace);
void RunWireFailover(const RunConfig& cfg, Report& report, Trace& trace);

}  // namespace perfbench
