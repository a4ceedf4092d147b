#include "storage/sharded_snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "storage/checked_io.h"

namespace spade {

namespace {

constexpr char kMagic[] = "spade-shard-manifest";
constexpr int kVersion = 5;
constexpr char kManifestName[] = "manifest.spade";

Status Malformed(const std::string& path, const std::string& what) {
  return Status::IOError("manifest " + what + ": " + path);
}

/// Structural chain validation shared by the writer (programming-error
/// guard) and the reader (corruption guard): deltas must be exactly one
/// segment per shard per epoch in (base_epoch, epoch], ascending.
Status ValidateChain(const ShardManifest& m, const std::string& path) {
  if (m.epoch < m.base_epoch) {
    return Malformed(path, "epoch precedes base-epoch");
  }
  const std::uint64_t chain = m.epoch - m.base_epoch;
  if (m.deltas.size() != chain * m.num_shards) {
    return Malformed(path, "delta line count mismatch");
  }
  std::size_t k = 0;
  for (std::uint64_t e = m.base_epoch + 1; e <= m.epoch; ++e) {
    for (std::uint32_t s = 0; s < m.num_shards; ++s, ++k) {
      const DeltaSegmentRef& ref = m.deltas[k];
      if (ref.epoch != e || ref.shard != s || ref.file.empty()) {
        return Malformed(path, "delta chain entry out of order");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string ShardSnapshotFileName(std::size_t shard, std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%zu.snapshot-%" PRIu64, shard,
                epoch);
  return buf;
}

std::string ShardDeltaFileName(std::size_t shard, std::uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "shard-%zu.delta-%" PRIu64, shard, epoch);
  return buf;
}

std::string ShardManifestPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kManifestName).string();
}

Status WriteShardManifest(const std::string& dir,
                          const ShardManifest& manifest) {
  if (manifest.files.size() != manifest.num_shards) {
    return Status::InvalidArgument(
        "ShardManifest: files/num_shards mismatch");
  }
  if (manifest.base_epoch < 1) {
    return Status::InvalidArgument("ShardManifest: base_epoch must be >= 1");
  }
  {
    const Status chain = ValidateChain(manifest, "(in memory)");
    if (!chain.ok()) {
      return Status::InvalidArgument("ShardManifest: " + chain.message());
    }
  }
  for (std::size_t i = 0; i < manifest.placement.size(); ++i) {
    const auto& [pid, shard] = manifest.placement[i];
    if (pid >= manifest.num_shards || shard >= manifest.num_shards ||
        (i > 0 && pid <= manifest.placement[i - 1].first)) {
      return Status::InvalidArgument(
          "ShardManifest: placement rows must be ascending pids within the "
          "fleet");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "shards " << manifest.num_shards << '\n';
  out << "semantics "
      << (manifest.semantics.empty() ? "unknown" : manifest.semantics)
      << '\n';
  out << "epoch " << manifest.epoch << '\n';
  out << "base-epoch " << manifest.base_epoch << '\n';
  for (std::size_t i = 0; i < manifest.files.size(); ++i) {
    out << "file " << i << ' ' << manifest.files[i] << '\n';
  }
  for (const DeltaSegmentRef& ref : manifest.deltas) {
    out << "delta " << ref.epoch << ' ' << ref.shard << ' ' << ref.file
        << '\n';
  }
  // Sparse placement rows (rebalanced fleets only): a default placement
  // emits nothing.
  for (const auto& [pid, shard] : manifest.placement) {
    out << "placement " << pid << ' ' << shard << '\n';
  }
  std::string content = out.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(content.data(), content.size()));
  content += crc_line;
  return storage::WriteFileAtomic(ShardManifestPath(dir), content);
}

Status ReadShardManifest(const std::string& dir, ShardManifest* manifest) {
  const std::string path = ShardManifestPath(dir);
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("no shard manifest at " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
  }

  std::istringstream in(content);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Malformed(path, "has bad magic");
  }
  if (version != kVersion) {
    return Malformed(path, "has unsupported version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kVersion) + ")");
  }
  std::string key;
  ShardManifest m;
  if (!(in >> key >> m.num_shards) || key != "shards") {
    return Malformed(path, "missing shard count");
  }
  // Plausibility gate before any allocation sized by manifest-declared
  // counts (same hazard as the binary headers, checked_io.h): every shard
  // costs at least one "file ..." line, so a count beyond the manifest's
  // own size is corrupt — reject it instead of letting reserve() abort.
  if (m.num_shards > content.size()) {
    return Malformed(path, "shard count exceeds the manifest size");
  }
  if (!(in >> key >> m.semantics) || key != "semantics") {
    return Malformed(path, "missing semantics");
  }
  if (!(in >> key >> m.epoch) || key != "epoch") {
    return Malformed(path, "missing epoch");
  }
  if (!(in >> key >> m.base_epoch) || key != "base-epoch") {
    return Malformed(path, "missing base-epoch");
  }
  if (m.base_epoch < 1 || m.epoch < m.base_epoch) {
    return Malformed(path, "has an invalid epoch range");
  }
  // Same gate for the chain: every delta epoch costs at least one
  // "delta ..." line per shard (divide rather than multiply, so a crafted
  // epoch cannot overflow the product).
  const std::uint64_t chain = m.epoch - m.base_epoch;
  if (chain > content.size() / std::max<std::uint32_t>(1, m.num_shards)) {
    return Malformed(path, "chain length exceeds the manifest size");
  }
  m.files.assign(m.num_shards, "");
  for (std::uint32_t i = 0; i < m.num_shards; ++i) {
    std::size_t index = 0;
    std::string name;
    if (!(in >> key >> index >> name) || key != "file" || index != i ||
        name.empty()) {
      return Malformed(path,
                       "shard entry " + std::to_string(i) + " malformed");
    }
    m.files[i] = name;
  }
  m.deltas.reserve(chain * m.num_shards);
  for (std::uint64_t e = m.base_epoch + 1; e <= m.epoch; ++e) {
    for (std::uint32_t s = 0; s < m.num_shards; ++s) {
      DeltaSegmentRef ref;
      if (!(in >> key >> ref.epoch >> ref.shard >> ref.file) ||
          key != "delta" || ref.epoch != e || ref.shard != s ||
          ref.file.empty()) {
        return Malformed(path, "delta entry malformed");
      }
      m.deltas.push_back(std::move(ref));
    }
  }
  if (!(in >> key)) return Malformed(path, "missing crc line");
  // Sparse placement rows (zero or more), strictly ascending pid. The
  // pid bound doubles as the row-count bound, so no allocation gate is
  // needed beyond num_shards' own.
  while (key == "placement") {
    std::uint32_t pid = 0;
    std::uint32_t shard = 0;
    if (!(in >> pid >> shard) || pid >= m.num_shards ||
        shard >= m.num_shards ||
        (!m.placement.empty() && pid <= m.placement.back().first)) {
      return Malformed(path, "placement entry malformed");
    }
    m.placement.push_back({pid, shard});
    if (!(in >> key)) return Malformed(path, "missing crc line");
  }
  // The crc line covers every byte above it — locate it in the raw
  // content (the last line) and recompute.
  std::uint64_t stored = 0;
  if (key != "crc" || !(in >> std::hex >> stored)) {
    return Malformed(path, "missing crc line");
  }
  const std::size_t crc_pos = content.rfind("crc ");
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      content[crc_pos - 1] != '\n') {
    return Malformed(path, "crc line misplaced");
  }
  // The crc line must be byte-exactly `crc <16 hex>\n` and the file's
  // final bytes. Raw-byte validation, not stream tokens: token parsing
  // skips whitespace, silently accepting e.g. the final newline flipped
  // to a space — and bytes inside this line are the only ones the CRC
  // itself cannot vouch for.
  const std::string_view crc_line(content.data() + crc_pos,
                                  content.size() - crc_pos);
  constexpr std::size_t kCrcLineLen = 4 + 16 + 1;  // "crc " + hex + '\n'
  if (crc_line.size() != kCrcLineLen || crc_line.back() != '\n' ||
      crc_line.substr(4, 16).find_first_not_of("0123456789abcdef") !=
          std::string_view::npos) {
    return Malformed(path, "has a malformed or non-final crc line");
  }
  if (Crc64(content.data(), crc_pos) != stored) {
    return Malformed(path, "failed its crc check (corrupt or torn)");
  }
  *manifest = std::move(m);
  return Status::OK();
}

}  // namespace spade
