// Shared CRC-64-framed file I/O for every persistence format (snapshots,
// delta segments, ingest seqmaps, the manifest).
//
// Every binary file in the snapshot directory follows one discipline:
// little-endian fixed-width fields, a CRC-64/XZ accumulated over every
// payload byte, the CRC appended as an 8-byte trailer, and an atomic
// temp-file + rename publish. ChecksummedFileWriter/Reader implement that
// discipline once so a format author cannot forget a piece of it. Both move
// the file through a fixed 64 KiB buffer, one read or write call per refill
// or spill, and hash each buffered span once (Crc64 takes eight bytes per
// step), so a field costs a copy rather than a stream call and a CRC call.
//
// Crash-consistency model: rename is atomic, but nothing here fsyncs — a
// host crash can therefore leave a file at its *final* path whose tail data
// pages never hit disk (truncated content under a durable rename). Readers
// must treat any truncation or mutation as detectable: the CRC trailer
// covers every byte, so a torn or flipped file always fails the trailer
// check (CRC-64 detects all single-byte and all burst-<64-bit errors).
//
// TruncatingWriter seam: the crash-recovery harness injects exactly that
// failure mode. When a truncation hook is installed, Finish() truncates the
// temp file to the hook's byte limit *before* the rename, producing the
// torn-file-at-final-path artifact a real crash leaves behind. The hook is
// test-only and not thread-safe; production code never installs one.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace spade {

/// CRC-64/XZ used by every snapshot trailer; exposed for tests.
std::uint64_t Crc64(const void* data, std::size_t size, std::uint64_t seed = 0);

namespace storage {

/// Closes a stdio stream (the buffered reader's and writer's file).
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Fault-injection seam (the "TruncatingWriter"): given the final path of a
/// file about to be published, returns the maximum number of bytes that
/// survive the simulated crash, or a negative value for "intact". Installed
/// by crash-recovery tests only.
using TruncationFn = std::function<std::int64_t(const std::string& path)>;

/// Installs (or, with nullptr, removes) the truncation hook. Testing only;
/// not thread-safe against concurrent writers.
void SetTruncationHookForTesting(TruncationFn hook);

/// RAII installer so a test cannot leak the hook past a failure.
class ScopedTruncationHook {
 public:
  explicit ScopedTruncationHook(TruncationFn hook) {
    SetTruncationHookForTesting(std::move(hook));
  }
  ~ScopedTruncationHook() { SetTruncationHookForTesting(nullptr); }
  ScopedTruncationHook(const ScopedTruncationHook&) = delete;
  ScopedTruncationHook& operator=(const ScopedTruncationHook&) = delete;
};

/// Streaming writer: accumulates the CRC over every byte, then Finish()
/// appends the trailer and atomically publishes temp -> final path (after
/// applying the truncation hook, if any).
class ChecksummedFileWriter {
 public:
  /// Opens `<path>.tmp` for writing; the final file appears only on a
  /// successful Finish().
  explicit ChecksummedFileWriter(const std::string& path);
  ~ChecksummedFileWriter();

  ChecksummedFileWriter(const ChecksummedFileWriter&) = delete;
  ChecksummedFileWriter& operator=(const ChecksummedFileWriter&) = delete;

  /// False when the temp file could not be opened or a spill failed
  /// (Finish() reports it).
  bool ok() const { return out_ != nullptr && !failed_; }

  void WriteBytes(const void* data, std::size_t size);

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(value));
  }

  /// Payload bytes written so far (excludes the 8-byte CRC trailer).
  std::uint64_t bytes_written() const { return bytes_; }

  /// Appends the CRC trailer, closes, applies the truncation hook and
  /// renames to the final path. On failure the temp file is removed.
  Status Finish();

 private:
  /// Hashes the buffered bytes and writes them out in one call.
  void Spill();

  std::string path_;
  std::string tmp_;
  FilePtr out_;
  std::unique_ptr<unsigned char[]> buffer_;
  std::size_t used_ = 0;  // buffered bytes not yet written
  std::uint64_t crc_ = 0;
  std::uint64_t bytes_ = 0;
  bool failed_ = false;
  bool finished_ = false;
};

/// Streaming reader mirroring ChecksummedFileWriter: Read calls accumulate
/// the CRC; VerifyTrailer() checks the stored trailer against it and that
/// no payload bytes remain.
class ChecksummedFileReader {
 public:
  explicit ChecksummedFileReader(const std::string& path);

  /// False when the file could not be opened.
  bool ok() const { return in_ != nullptr; }

  bool ReadBytes(void* data, std::size_t size);

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(*value));
  }

  /// Reads the [magic u64][version u32] header every binary format opens
  /// with. Each format has exactly one on-disk version: a foreign magic or
  /// any other version fails with kIOError, and the message names the
  /// version found. `what` names the format in the message.
  Status ReadHeader(std::uint64_t magic, std::uint32_t version,
                    std::string_view what);

  /// Reads the 8-byte trailer and compares it with the accumulated CRC.
  /// Fails on truncation (missing trailer) and on any payload mutation.
  Status VerifyTrailer();

  /// Total file size in bytes (0 when the file could not be stat'd).
  /// Loaders MUST bound every header-declared element count against this
  /// before allocating: counts are validated by the CRC only at the END of
  /// the file, so a flipped high byte in a count field would otherwise
  /// drive a terabyte-scale allocation before the corruption is detected.
  std::uint64_t file_size() const { return size_; }

  /// True when `count` elements of at least `min_bytes_each` payload bytes
  /// cannot possibly fit in this file — the cheap plausibility gate for
  /// the allocation hazard above.
  bool CountExceedsFile(std::uint64_t count,
                        std::uint64_t min_bytes_each) const {
    return min_bytes_each != 0 && count > size_ / min_bytes_each;
  }

  const std::string& path() const { return path_; }

 private:
  /// Hashes the consumed bytes of the buffer, then refills it with one
  /// read. False at the end of the file or on a read error.
  bool Refill();

  std::string path_;
  FilePtr in_;
  std::unique_ptr<unsigned char[]> buffer_;
  std::size_t pos_ = 0;     // next unconsumed buffered byte
  std::size_t end_ = 0;     // buffered bytes
  std::size_t hashed_ = 0;  // consumed bytes already in crc_
  std::uint64_t crc_ = 0;
  std::uint64_t size_ = 0;
};

/// Writes `content` to `path` atomically (temp + rename), applying the
/// truncation hook. Used by the text manifest, which carries its own
/// in-band CRC line instead of a binary trailer.
Status WriteFileAtomic(const std::string& path, std::string_view content);

}  // namespace storage
}  // namespace spade
