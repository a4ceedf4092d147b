#include "net/wire_format.h"

#include <cstring>

#include "storage/checked_io.h"

namespace spade::net {

namespace {

// "SPDW" little-endian.
constexpr std::uint32_t kMagic = 0x57445053u;
constexpr std::uint64_t kSeqMapMagic = 0x51535f4544415053ull;  // "SPADE_SQ"
constexpr std::uint32_t kSeqMapVersion = 1;

void PutBytes(std::string* out, const void* data, std::size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void Put(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(out, &value, sizeof(value));
}

/// Bounds-checked sequential reader over a payload view.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::size_t size, std::string* out) {
    if (data_.size() - pos_ < size) return false;
    out->assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  std::string_view Rest() const { return data_.substr(pos_); }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

bool IsValidFrameType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kReplicaHello);
}

std::string EncodeFrame(FrameType type, std::uint64_t seq,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  Put(&out, kMagic);
  Put(&out, static_cast<std::uint8_t>(type));
  Put(&out, static_cast<std::uint8_t>(0));  // flags, reserved
  Put(&out, static_cast<std::uint32_t>(payload.size()));
  Put(&out, seq);
  Put(&out, Crc64(out.data(), kFrameHeaderCrcOffset));  // header CRC
  PutBytes(&out, payload.data(), payload.size());
  const std::uint64_t crc = Crc64(out.data(), out.size());
  Put(&out, crc);
  return out;
}

void FrameReader::Append(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void FrameReader::Compact() {
  // Amortized O(1): drop the consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

bool FrameReader::Next(Frame* out) {
  while (buf_.size() - pos_ >= kFrameHeaderSize) {
    const char* p = buf_.data() + pos_;
    std::uint32_t magic;
    std::memcpy(&magic, p, sizeof(magic));
    if (magic != kMagic) {
      // Hunt for the next magic instead of crawling byte by byte.
      const std::size_t limit = buf_.size() - pos_;
      std::size_t skip = 1;
      while (skip + sizeof(magic) <= limit) {
        std::uint32_t candidate;
        std::memcpy(&candidate, p + skip, sizeof(candidate));
        if (candidate == kMagic) break;
        ++skip;
      }
      if (skip + sizeof(magic) > limit) skip = limit;
      pos_ += skip;
      resync_bytes_ += skip;
      Compact();
      continue;
    }
    std::uint64_t stored_hcrc = 0;
    std::memcpy(&stored_hcrc, p + kFrameHeaderCrcOffset, sizeof(stored_hcrc));
    if (Crc64(p, kFrameHeaderCrcOffset) != stored_hcrc) {
      // Corrupt header (or a spurious magic inside another frame's
      // payload): reject BEFORE trusting the length field, so a mangled
      // length can never stall the stream waiting for bytes that were
      // never sent. One-byte advance, rescan.
      ++corrupt_frames_;
      pos_ += 1;
      resync_bytes_ += 1;
      Compact();
      continue;
    }
    std::uint8_t type = 0;
    std::uint32_t len = 0;
    std::uint64_t seq = 0;
    std::memcpy(&type, p + 4, sizeof(type));
    std::memcpy(&len, p + 6, sizeof(len));
    std::memcpy(&seq, p + 10, sizeof(seq));
    if (!IsValidFrameType(type) || len > kMaxFramePayload) {
      // Implausible header that nonetheless passed its CRC: a protocol
      // mismatch, not line noise. Skip it like a corrupt frame.
      ++corrupt_frames_;
      pos_ += 1;
      resync_bytes_ += 1;
      Compact();
      continue;
    }
    const std::size_t total = kFrameHeaderSize + len + kFrameTrailerSize;
    if (buf_.size() - pos_ < total) {
      Compact();
      return false;  // need more bytes
    }
    std::uint64_t stored_crc = 0;
    std::memcpy(&stored_crc, p + kFrameHeaderSize + len, sizeof(stored_crc));
    const std::uint64_t crc = Crc64(p, kFrameHeaderSize + len);
    if (crc != stored_crc) {
      // Either line noise inside this frame or a spurious magic inside
      // another frame's payload; one-byte advance handles both.
      ++corrupt_frames_;
      pos_ += 1;
      resync_bytes_ += 1;
      Compact();
      continue;
    }
    out->type = static_cast<FrameType>(type);
    out->seq = seq;
    out->payload.assign(p + kFrameHeaderSize, len);
    pos_ += total;
    Compact();
    return true;
  }
  Compact();
  return false;
}

std::string EncodeBatchPayload(std::span<const Edge> edges) {
  std::string out;
  out.reserve(4 + edges.size() * 24);
  Put(&out, static_cast<std::uint32_t>(edges.size()));
  for (const Edge& e : edges) {
    Put(&out, static_cast<std::uint32_t>(e.src));
    Put(&out, static_cast<std::uint32_t>(e.dst));
    Put(&out, e.weight);
    Put(&out, static_cast<std::int64_t>(e.ts));
  }
  return out;
}

bool DecodeBatchPayload(std::string_view payload, std::vector<Edge>* edges) {
  Cursor cur(payload);
  std::uint32_t count = 0;
  if (!cur.Read(&count)) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 24) return false;
  edges->clear();
  edges->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t src = 0, dst = 0;
    double weight = 0.0;
    std::int64_t ts = 0;
    if (!cur.Read(&src) || !cur.Read(&dst) || !cur.Read(&weight) ||
        !cur.Read(&ts)) {
      return false;
    }
    edges->push_back(Edge{src, dst, weight, ts});
  }
  return cur.AtEnd();
}

std::string EncodeAckPayload(const AckPayload& ack) {
  std::string out;
  Put(&out, ack.applied);
  Put(&out, ack.durable);
  return out;
}

bool DecodeAckPayload(std::string_view payload, AckPayload* ack) {
  Cursor cur(payload);
  return cur.Read(&ack->applied) && cur.Read(&ack->durable) && cur.AtEnd();
}

std::string EncodeU64Payload(std::uint64_t value) {
  std::string out;
  Put(&out, value);
  return out;
}

bool DecodeU64Payload(std::string_view payload, std::uint64_t* value) {
  Cursor cur(payload);
  return cur.Read(value) && cur.AtEnd();
}

std::string EncodeEpochFilePayload(std::uint64_t epoch, std::string_view name,
                                   std::string_view data) {
  std::string out;
  out.reserve(8 + 2 + name.size() + data.size());
  Put(&out, epoch);
  Put(&out, static_cast<std::uint16_t>(name.size()));
  PutBytes(&out, name.data(), name.size());
  PutBytes(&out, data.data(), data.size());
  return out;
}

bool DecodeEpochFilePayload(std::string_view payload, EpochFilePayload* out) {
  Cursor cur(payload);
  std::uint16_t name_len = 0;
  if (!cur.Read(&out->epoch) || !cur.Read(&name_len)) return false;
  if (!cur.ReadString(name_len, &out->name)) return false;
  out->data.assign(cur.Rest());
  return !out->name.empty();
}

std::string EncodeEpochCommitPayload(std::uint64_t epoch,
                                     std::string_view manifest) {
  std::string out;
  out.reserve(8 + manifest.size());
  Put(&out, epoch);
  PutBytes(&out, manifest.data(), manifest.size());
  return out;
}

bool DecodeEpochCommitPayload(std::string_view payload,
                              EpochCommitPayload* out) {
  Cursor cur(payload);
  if (!cur.Read(&out->epoch)) return false;
  out->manifest.assign(cur.Rest());
  return true;
}

std::string SeqMapFileName(std::uint64_t epoch) {
  return "ingest.seqmap-" + std::to_string(epoch);
}

Status WriteSeqMapFile(const std::string& path, std::uint64_t epoch,
                       const SeqMap& seqs) {
  storage::ChecksummedFileWriter writer(path);
  writer.Write(kSeqMapMagic);
  writer.Write(kSeqMapVersion);
  writer.Write(epoch);
  writer.Write(static_cast<std::uint64_t>(seqs.size()));
  for (const auto& [stream, seq] : seqs) {
    writer.Write(stream);
    writer.Write(seq);
  }
  return writer.Finish();
}

Status ReadSeqMapFile(const std::string& path, std::uint64_t* epoch,
                      SeqMap* seqs) {
  storage::ChecksummedFileReader reader(path);
  if (!reader.ok()) {
    return Status::IOError("cannot open seqmap file " + path);
  }
  SPADE_RETURN_NOT_OK(
      reader.ReadHeader(kSeqMapMagic, kSeqMapVersion, "seqmap"));
  std::uint64_t file_epoch = 0;
  std::uint64_t count = 0;
  if (!reader.Read(&file_epoch) || !reader.Read(&count)) {
    return Status::IOError("truncated seqmap header in " + path);
  }
  if (reader.CountExceedsFile(count, 16)) {
    return Status::IOError("implausible seqmap count in " + path);
  }
  SeqMap parsed;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t stream = 0, seq = 0;
    if (!reader.Read(&stream) || !reader.Read(&seq)) {
      return Status::IOError("truncated seqmap entry in " + path);
    }
    parsed[stream] = seq;
  }
  SPADE_RETURN_NOT_OK(reader.VerifyTrailer());
  if (epoch != nullptr) *epoch = file_epoch;
  *seqs = std::move(parsed);
  return Status::OK();
}

}  // namespace spade::net
