// Shared provenance block for every emitted BENCH_*.json: how many cores
// the process could actually use, on which CPU model, when it ran, and the
// knobs that shaped the numbers. Committed reference JSONs carry the same
// block, so a regression investigation can always answer "what machine,
// when, which config" without digging through CI logs.

#pragma once

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace spade::bench {

/// Cores available to THIS process: the affinity mask when the platform
/// exposes one (taskset/cgroup-restricted CI boxes lie through
/// hardware_concurrency), the hardware count otherwise.
inline unsigned CoresAvailable() {
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

/// UTC ISO-8601, e.g. "2026-08-07T12:34:56Z".
inline std::string UtcTimestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Optimization level of this binary (bench numbers from a debug build
/// are not comparable to the committed references).
inline const char* BuildType() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

/// The host's CPU model ("model name" in /proc/cpuinfo), with any quote or
/// backslash dropped so it embeds in JSON as is; "unknown" elsewhere.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\') model += c;
    }
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

/// Writes the meta member (plus trailing comma + newline) into an open
/// JSON object. `config_json` must be a complete JSON value describing
/// the bench's knobs, e.g. "{\"reps\": 5}".
inline void WriteBenchMeta(std::FILE* f, const std::string& config_json) {
  std::fprintf(f,
               "  \"meta\": {\"cores_available\": %u, \"cpu_model\": "
               "\"%s\", \"timestamp\": \"%s\", \"build\": \"%s\", "
               "\"config\": %s},\n",
               CoresAvailable(), CpuModel().c_str(), UtcTimestamp().c_str(),
               BuildType(), config_json.c_str());
}

}  // namespace spade::bench
