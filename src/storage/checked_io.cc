#include "storage/checked_io.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

namespace spade {

namespace {

/// CRC-64/XZ table, generated once.
const std::array<std::uint64_t, 256>& CrcTable() {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint64_t Crc64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::array<std::uint64_t, 256>& table = CrcTable();
  std::uint64_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

namespace storage {

namespace {

TruncationFn& TruncationHook() {
  static TruncationFn hook;
  return hook;
}

/// Truncates the temp file per the installed hook; returns false on a
/// filesystem error (truncation requested but impossible).
bool ApplyTruncationHook(const std::string& final_path,
                         const std::string& tmp_path) {
  const TruncationFn& hook = TruncationHook();
  if (!hook) return true;
  const std::int64_t limit = hook(final_path);
  if (limit < 0) return true;
  std::error_code ec;
  const auto size = std::filesystem::file_size(tmp_path, ec);
  if (ec) return false;
  const auto keep = std::min<std::uintmax_t>(
      size, static_cast<std::uintmax_t>(limit));
  std::filesystem::resize_file(tmp_path, keep, ec);
  return !ec;
}

}  // namespace

void SetTruncationHookForTesting(TruncationFn hook) {
  TruncationHook() = std::move(hook);
}

ChecksummedFileWriter::ChecksummedFileWriter(const std::string& path)
    : path_(path),
      tmp_(path + ".tmp"),
      out_(tmp_, std::ios::binary | std::ios::trunc) {}

ChecksummedFileWriter::~ChecksummedFileWriter() {
  if (!finished_) {
    out_.close();
    std::remove(tmp_.c_str());
  }
}

void ChecksummedFileWriter::WriteBytes(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  crc_ = Crc64(data, size, crc_);
  bytes_ += size;
}

Status ChecksummedFileWriter::Finish() {
  if (!out_) {
    return Status::IOError("cannot write " + tmp_);
  }
  out_.write(reinterpret_cast<const char*>(&crc_), sizeof(crc_));
  out_.flush();
  if (!out_) return Status::IOError("write failure on " + tmp_);
  out_.close();
  if (!ApplyTruncationHook(path_, tmp_)) {
    std::remove(tmp_.c_str());
    return Status::IOError("truncation hook failed on " + tmp_);
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return Status::IOError("cannot rename " + tmp_ + " to " + path_);
  }
  finished_ = true;
  return Status::OK();
}

ChecksummedFileReader::ChecksummedFileReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  size_ = ec ? 0 : static_cast<std::uint64_t>(size);
}

bool ChecksummedFileReader::ReadBytes(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in_) return false;
  crc_ = Crc64(data, size, crc_);
  return true;
}

Status ChecksummedFileReader::ReadHeader(std::uint64_t magic,
                                         std::uint32_t version,
                                         std::string_view what) {
  std::uint64_t found_magic = 0;
  std::uint32_t found_version = 0;
  if (!Read(&found_magic) || found_magic != magic) {
    return Status::IOError(path_ + ": not a Spade " + std::string(what));
  }
  if (!Read(&found_version)) {
    return Status::IOError(path_ + ": truncated " + std::string(what) +
                           " header");
  }
  if (found_version != version) {
    return Status::IOError(path_ + ": unsupported " + std::string(what) +
                           " version " + std::to_string(found_version) +
                           " (expected " + std::to_string(version) + ")");
  }
  return Status::OK();
}

Status ChecksummedFileReader::VerifyTrailer() {
  const std::uint64_t computed = crc_;
  std::uint64_t stored = 0;
  in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in_ || stored != computed) {
    return Status::IOError(path_ + ": checksum mismatch (corrupt or torn)");
  }
  // The trailer must be the end of the file: appended bytes are a
  // mutation the CRC (which only covers the payload before the trailer)
  // would otherwise never see.
  if (in_.peek() != std::ifstream::traits_type::eof()) {
    return Status::IOError(path_ + ": trailing bytes after the trailer");
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) return Status::IOError("write failed: " + tmp);
  }
  if (!ApplyTruncationHook(path, tmp)) {
    std::remove(tmp.c_str());
    return Status::IOError("truncation hook failed on " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace spade
