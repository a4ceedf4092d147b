// perfbench_harness: runs one workload of the end-to-end benchmark and writes
// its raw measurements as JSON. Normally started by run.py:
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --out <json> --work-dir <dir> [--spans <tsv>]
//
// Exit code 0 when every operation and correctness check passed, 1 when
// one failed (the JSON still records which), 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

bool SameCommunity(spade::Community a, spade::Community b, double rel_tol,
                   std::string* why) {
  std::sort(a.members.begin(), a.members.end());
  std::sort(b.members.begin(), b.members.end());
  if (a.members != b.members) {
    *why = "members differ (" + std::to_string(a.members.size()) + " vs " +
           std::to_string(b.members.size()) + ")";
    return false;
  }
  const double scale = std::max({std::fabs(a.density), std::fabs(b.density),
                                 1e-300});
  if (std::fabs(a.density - b.density) > rel_tol * scale) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "density %.17g vs %.17g", a.density,
                  b.density);
    *why = buf;
    return false;
  }
  return true;
}

std::vector<EdgeKey> SortedEdges(const spade::DynamicGraph& g) {
  std::vector<EdgeKey> out;
  out.reserve(g.NumEdges());
  for (spade::VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const spade::NeighborEntry& n : g.OutNeighbors(u)) {
      out.emplace_back(u, n.vertex, n.weight);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// A JSON number with every digit, or null when not finite.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

unsigned CoresAvailable() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Peak resident set of this process in KiB (VmHWM), 0 when unknown.
long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<paper-stream|window-stitch|wire-failover> "
               "--seed <n> --seconds <s> --trace <0|1> --out <json> "
               "--work-dir <dir> [--spans <tsv>]\n",
               msg);
  return 2;
}

}  // namespace

void Report::WriteJson(std::FILE* f, const std::string& header_json) const {
  std::fprintf(f, "{%s,\n\"attempted\": %llu, \"failed\": %llu, "
               "\"checks\": %llu,\n\"errors\": [",
               header_json.c_str(),
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(checks_));
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(errors_[i]).c_str());
  }
  std::fprintf(f, "],\n\"values\": {");
  bool first = true;
  for (const auto& [name, v] : values_) {
    std::fprintf(f, "%s\n  %s: ", first ? "" : ",", JsonString(name).c_str());
    std::fputs(Number(v).c_str(), f);
    first = false;
  }
  std::fprintf(f, "},\n\"samples\": {");
  first = true;
  for (const auto& [name, vs] : samples_) {
    std::fprintf(f, "%s\n  %s: [", first ? "" : ",", JsonString(name).c_str());
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) std::fputc(',', f);
      std::fputs(Number(vs[i]).c_str(), f);
    }
    std::fputc(']', f);
    first = false;
  }
  std::fprintf(f, "}}\n");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (out_path.empty() || cfg.work_dir.empty()) {
    return Usage("--out and --work-dir are required");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  void (*run)(const RunConfig&, Report&, Trace&) = nullptr;
  if (cfg.workload == "paper-stream") run = RunPaperStream;
  if (cfg.workload == "window-stitch") run = RunWindowStitch;
  if (cfg.workload == "wire-failover") run = RunWireFailover;
  if (run == nullptr) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create work dir: " + ec.message()).c_str());

  Report report;
  Trace trace;
  run(cfg, report, trace);

  bool spans_written = false;
  if (cfg.trace && !spans_path.empty()) {
    spans_written = trace.WriteTsv(spans_path);
    if (!spans_written) {
      report.Check(false, "cannot write spans to " + spans_path);
    }
  }

#if defined(NDEBUG)
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  const std::string header =
      "\"workload\": " + JsonString(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"seconds\": " + Number(cfg.seconds) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") +
      ",\n\"host\": {\"cores\": " + std::to_string(CoresAvailable()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"build\": " + JsonString(build) +
      ", \"simd\": " + JsonString(spade::simd::ActiveSimdTarget()) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      "},\n\"peak_rss_kb\": " + std::to_string(PeakRssKb()) +
      ", \"spans\": " + JsonString(spans_written ? spans_path : "") +
      ", \"span_count\": " + std::to_string(trace.size());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  report.WriteJson(f, header);
  if (std::fclose(f) != 0) return 2;
  return report.failed() == 0 ? 0 : 1;
}
