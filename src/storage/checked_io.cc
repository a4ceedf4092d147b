#include "storage/checked_io.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

namespace spade {

namespace {

/// CRC-64/XZ slice-by-8 tables, generated once: table[0] is the bytewise
/// table, and table[j][b] advances table[j - 1][b] by one zero byte, so one
/// step folds eight input bytes through eight lookups.
using CrcTables = std::array<std::array<std::uint64_t, 256>, 8>;

const CrcTables& CrcTable() {
  static const CrcTables tables = [] {
    CrcTables t{};
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (std::size_t j = 1; j < t.size(); ++j) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint64_t Crc64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const CrcTables& t = CrcTable();
  std::uint64_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    // The CRC is reflected, so the eight bytes fold in little-endian order
    // whatever the host's.
    std::uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | bytes[b];
    crc ^= word;
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
          t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
          t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

namespace storage {

namespace {

/// Bytes the checksummed reader and writer buffer between file calls.
constexpr std::size_t kChecksummedIoBuffer = std::size_t{64} << 10;

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
      out_(std::fopen(tmp_.c_str(), "wb")),
      buffer_(new unsigned char[kChecksummedIoBuffer]) {
  // The buffer above replaces stdio's: each spill is one write call.
  if (out_ != nullptr) std::setvbuf(out_.get(), nullptr, _IONBF, 0);
}

ChecksummedFileWriter::~ChecksummedFileWriter() {
  if (!finished_) {
    out_.reset();
    std::remove(tmp_.c_str());
  }
}

void ChecksummedFileWriter::Spill() {
  crc_ = Crc64(buffer_.get(), used_, crc_);
  if (out_ != nullptr && !failed_ &&
      std::fwrite(buffer_.get(), 1, used_, out_.get()) != used_) {
    failed_ = true;
  }
  used_ = 0;
}

void ChecksummedFileWriter::WriteBytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  bytes_ += size;
  while (size > 0) {
    if (used_ == kChecksummedIoBuffer) Spill();
    const std::size_t n = std::min(size, kChecksummedIoBuffer - used_);
    std::memcpy(buffer_.get() + used_, bytes, n);
    used_ += n;
    bytes += n;
    size -= n;
  }
}

Status ChecksummedFileWriter::Finish() {
  if (out_ == nullptr) {
    return Status::IOError("cannot write " + tmp_);
  }
  Spill();
  if (!failed_ && std::fwrite(&crc_, sizeof(crc_), 1, out_.get()) != 1) {
    failed_ = true;
  }
  if (std::fclose(out_.release()) != 0) failed_ = true;
  if (failed_) {
    std::remove(tmp_.c_str());
    return Status::IOError("write failure on " + tmp_);
  }
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
    : path_(path),
      in_(std::fopen(path.c_str(), "rb")),
      buffer_(new unsigned char[kChecksummedIoBuffer]) {
  // The buffer above replaces stdio's: each refill is one read call.
  if (in_ != nullptr) std::setvbuf(in_.get(), nullptr, _IONBF, 0);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  size_ = ec ? 0 : static_cast<std::uint64_t>(size);
}

bool ChecksummedFileReader::Refill() {
  crc_ = Crc64(buffer_.get() + hashed_, pos_ - hashed_, crc_);
  pos_ = end_ = hashed_ = 0;
  if (in_ == nullptr) return false;
  end_ = std::fread(buffer_.get(), 1, kChecksummedIoBuffer, in_.get());
  return end_ > 0;
}

bool ChecksummedFileReader::ReadBytes(void* data, std::size_t size) {
  auto* out = static_cast<unsigned char*>(data);
  while (size > 0) {
    if (pos_ == end_ && !Refill()) return false;
    const std::size_t n = std::min(size, end_ - pos_);
    std::memcpy(out, buffer_.get() + pos_, n);
    pos_ += n;
    out += n;
    size -= n;
  }
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
  // Every payload byte is consumed here: fold the unhashed rest in, then
  // read the trailer past it unhashed.
  crc_ = Crc64(buffer_.get() + hashed_, pos_ - hashed_, crc_);
  hashed_ = pos_;
  const std::uint64_t computed = crc_;
  std::uint64_t stored = 0;
  if (!ReadBytes(&stored, sizeof(stored)) || stored != computed) {
    return Status::IOError(path_ + ": checksum mismatch (corrupt or torn)");
  }
  // The trailer must be the end of the file: appended bytes are a
  // mutation the CRC (which only covers the payload before the trailer)
  // would otherwise never see.
  if (pos_ != end_ || Refill()) {
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
