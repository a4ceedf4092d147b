#include "storage/delta_segment.h"

#include "graph/weight_grid.h"
#include "storage/checked_io.h"

namespace spade {

namespace {

constexpr std::uint64_t kDeltaMagic = 0x53504144455F4453ULL;  // "SPADE_DS"
constexpr std::uint32_t kDeltaVersion = 4;
constexpr std::uint8_t kTagEdge = 0;
// Tag 1 was version 3's flush record; it is not reused.
constexpr std::uint8_t kTagRetire = 2;

}  // namespace

Status WriteDeltaSegment(const std::string& path, const DeltaSegment& segment,
                         std::uint64_t* bytes_written) {
  storage::ChecksummedFileWriter writer(path);
  writer.Write(kDeltaMagic);
  writer.Write(kDeltaVersion);
  writer.Write(segment.shard);
  writer.Write(segment.prev_epoch);
  writer.Write(segment.epoch);
  writer.Write(static_cast<std::uint64_t>(segment.records.size()));
  for (const DeltaRecord& r : segment.records) {
    if (r.retire) {
      writer.Write(kTagRetire);
      writer.Write(r.horizon);
      writer.Write(r.retired);
      continue;
    }
    writer.Write(kTagEdge);
    writer.Write(static_cast<std::uint32_t>(r.edge.src));
    writer.Write(static_cast<std::uint32_t>(r.edge.dst));
    writer.Write(r.edge.weight);
    writer.Write(r.edge.ts);
  }
  const std::uint64_t payload = writer.bytes_written();
  SPADE_RETURN_NOT_OK(writer.Finish());
  if (bytes_written != nullptr) *bytes_written = payload + sizeof(std::uint64_t);
  return Status::OK();
}

Status ReadDeltaSegment(const std::string& path, DeltaSegment* segment) {
  storage::ChecksummedFileReader reader(path);
  if (!reader.ok()) return Status::IOError("cannot open " + path);

  SPADE_RETURN_NOT_OK(
      reader.ReadHeader(kDeltaMagic, kDeltaVersion, "delta segment"));
  DeltaSegment parsed;
  std::uint64_t num_records = 0;
  if (!reader.Read(&parsed.shard) || !reader.Read(&parsed.prev_epoch) ||
      !reader.Read(&parsed.epoch) || !reader.Read(&num_records)) {
    return Status::IOError(path + ": truncated delta segment header");
  }
  if (parsed.epoch != parsed.prev_epoch + 1) {
    return Status::IOError(path + ": delta segment epoch discontinuity");
  }
  // Pre-allocation plausibility gate (see checked_io.h): every record
  // costs at least its 1-byte tag.
  if (reader.CountExceedsFile(num_records, 1)) {
    return Status::IOError(path + ": record count exceeds the file size");
  }
  parsed.records.reserve(num_records);
  for (std::uint64_t i = 0; i < num_records; ++i) {
    std::uint8_t tag = 0;
    if (!reader.Read(&tag)) {
      return Status::IOError(path + ": truncated delta segment records");
    }
    if (tag == kTagRetire) {
      DeltaRecord pass = DeltaRecord::RetirePass(0, 0);
      if (!reader.Read(&pass.horizon) || !reader.Read(&pass.retired)) {
        return Status::IOError(path + ": truncated delta retire record");
      }
      parsed.records.push_back(pass);
      continue;
    }
    if (tag != kTagEdge) {
      return Status::IOError(path + ": unknown delta record tag");
    }
    std::uint32_t src = 0, dst = 0;
    Edge e;
    if (!reader.Read(&src) || !reader.Read(&dst) || !reader.Read(&e.weight) ||
        !reader.Read(&e.ts)) {
      return Status::IOError(path + ": truncated delta edge record");
    }
    e.src = src;
    e.dst = dst;
    if (e.src == e.dst) {
      return Status::IOError(path + ": delta record is a self-loop");
    }
    if (!(e.weight > 0.0) || !IsOnWeightGrid(e.weight)) {
      return Status::IOError(path + ": delta record weight is not a "
                             "positive multiple of 2^-20");
    }
    parsed.records.push_back(DeltaRecord::Insert(e));
  }
  SPADE_RETURN_NOT_OK(reader.VerifyTrailer());
  *segment = std::move(parsed);
  return Status::OK();
}

}  // namespace spade
