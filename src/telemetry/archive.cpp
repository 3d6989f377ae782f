#include "telemetry/archive.hpp"

#include <dirent.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "net/wire.hpp"

namespace cod::telemetry {

namespace {

/// Fixed payload prefix every record type shares:
/// [u8 type][f64 monoSec][f64 wallSec].
constexpr std::size_t kPayloadHeaderBytes = 1 + 8 + 8;
/// [u32 length][u32 crc] ahead of every payload.
constexpr std::size_t kFrameHeaderBytes = 8;

double wallNowSec() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const std::array<std::uint32_t, 256>& crcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Split `basePath` into directory + filename (for the segment scan).
void splitPath(const std::string& basePath, std::string& dir,
               std::string& file) {
  const auto slash = basePath.find_last_of('/');
  if (slash == std::string::npos) {
    dir = ".";
    file = basePath;
  } else {
    dir = slash == 0 ? "/" : basePath.substr(0, slash);
    file = basePath.substr(slash + 1);
  }
}

/// Rotated segments of `basePath` on disk (`<basePath>.<n>`), as
/// (sequence, full path), ascending by sequence. Suffixes may be sparse —
/// the writer deletes the oldest past its keep bound.
std::vector<std::pair<std::uint64_t, std::string>> listRotatedSegments(
    const std::string& basePath) {
  std::string dir, file;
  splitPath(basePath, dir, file);
  std::vector<std::pair<std::uint64_t, std::string>> segs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return segs;
  const std::string prefix = file + ".";
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0)
      continue;
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos)
      continue;
    try {
      segs.emplace_back(std::stoull(suffix), dir + "/" + name);
    } catch (const std::exception&) {
      // Suffix of digits too long for u64 — not one of ours.
    }
  }
  ::closedir(d);
  std::sort(segs.begin(), segs.end());
  return segs;
}

void encodePayloadHeader(net::WireWriter& w, const ArchiveRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.type));
  w.f64(rec.monoSec);
  w.f64(rec.wallSec);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& table = crcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TelemetryArchive::TelemetryArchive(Config cfg) : cfg_(std::move(cfg)) {
  // Continue rotation numbering past whatever a previous incarnation left
  // on disk, and rotate (never truncate) a non-empty active segment a
  // crashed writer left behind — restart must not erase the history it
  // exists to explain.
  const auto existing = listRotatedSegments(cfg_.path);
  if (!existing.empty()) nextSegmentSeq_ = existing.back().first + 1;
  if (std::FILE* old = std::fopen(cfg_.path.c_str(), "rb")) {
    std::fseek(old, 0, SEEK_END);
    const long size = std::ftell(old);
    std::fclose(old);
    if (size > 0) {
      const std::string rotated =
          cfg_.path + "." + std::to_string(nextSegmentSeq_++);
      std::rename(cfg_.path.c_str(), rotated.c_str());
    }
  }
  file_ = std::fopen(cfg_.path.c_str(), "wb");
  if (file_ == nullptr) return;
  std::fwrite(kArchiveMagic, 1, sizeof(kArchiveMagic), file_);
  std::fputc(kArchiveFormatVersion, file_);
  std::fflush(file_);
  activeBytes_ = sizeof(kArchiveMagic) + 1;
}

TelemetryArchive::~TelemetryArchive() { close(); }

void TelemetryArchive::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void TelemetryArchive::appendSnapshot(std::span<const std::uint8_t> bytes,
                                      double monoSec) {
  ArchiveRecord rec;
  rec.type = ArchiveRecordType::kSnapshot;
  rec.monoSec = monoSec;
  rec.wallSec = wallNowSec();
  rec.snapshot.assign(bytes.begin(), bytes.end());
  append(rec);
}

void TelemetryArchive::appendAlarm(std::uint8_t kind, std::uint8_t severity,
                                   double alarmTimeSec,
                                   const std::string& node,
                                   const std::string& detail, double monoSec) {
  ArchiveRecord rec;
  rec.type = ArchiveRecordType::kAlarmEdge;
  rec.monoSec = monoSec;
  rec.wallSec = wallNowSec();
  rec.alarmKind = kind;
  rec.alarmSeverity = severity;
  rec.alarmTimeSec = alarmTimeSec;
  rec.node = node;
  rec.text = detail;
  append(rec);
}

void TelemetryArchive::appendTraceDumpMarker(const std::string& dumpPath,
                                             double monoSec) {
  ArchiveRecord rec;
  rec.type = ArchiveRecordType::kTraceDumpMarker;
  rec.monoSec = monoSec;
  rec.wallSec = wallNowSec();
  rec.text = dumpPath;
  append(rec);
}

void TelemetryArchive::append(const ArchiveRecord& rec) {
  if (file_ == nullptr) return;
  net::WireWriter payload;
  encodePayloadHeader(payload, rec);
  switch (rec.type) {
    case ArchiveRecordType::kSnapshot:
      payload.raw(rec.snapshot);
      break;
    case ArchiveRecordType::kAlarmEdge:
      payload.u8(rec.alarmKind);
      payload.u8(rec.alarmSeverity);
      payload.f64(rec.alarmTimeSec);
      payload.str(rec.node);
      payload.str(rec.text);
      break;
    case ArchiveRecordType::kTraceDumpMarker:
      payload.str(rec.text);
      break;
  }
  // One fwrite for the whole frame, then fflush: after append() returns
  // the kernel owns the bytes, so SIGKILL can tear only the record that
  // was mid-write — the torn tail the reader is built to stop at.
  net::WireWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.bytes()));
  frame.raw(payload.bytes());
  const auto& bytes = frame.bytes();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    // Disk full / IO error: stop archiving rather than take the monitor
    // down or write an unreadable interleaving.
    close();
    return;
  }
  std::fflush(file_);
  activeBytes_ += bytes.size();
  bytesWritten_ += bytes.size();
  ++recordsWritten_;
  rotateIfNeeded();
}

void TelemetryArchive::rotateIfNeeded() {
  if (activeBytes_ < cfg_.segmentBytes || file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  const std::uint64_t seq = nextSegmentSeq_++;
  const std::string rotated = cfg_.path + "." + std::to_string(seq);
  if (std::rename(cfg_.path.c_str(), rotated.c_str()) != 0) return;
  ++segmentsRotated_;
  if (seq > cfg_.maxSegments) {
    // Delete everything at or below the keep horizon, not just the one
    // sequence this rotation pushes out: sequences are sparse after a
    // restart continued past deleted history.
    const std::uint64_t horizon = seq - cfg_.maxSegments;
    for (const auto& [oldSeq, oldPath] : listRotatedSegments(cfg_.path))
      if (oldSeq <= horizon && oldSeq != seq) std::remove(oldPath.c_str());
  }
  file_ = std::fopen(cfg_.path.c_str(), "wb");
  if (file_ == nullptr) return;
  std::fwrite(kArchiveMagic, 1, sizeof(kArchiveMagic), file_);
  std::fputc(kArchiveFormatVersion, file_);
  std::fflush(file_);
  activeBytes_ = sizeof(kArchiveMagic) + 1;
}

std::vector<ArchiveRecord> ArchiveReader::readAll() {
  segmentsRead_ = recordsRead_ = recordsSkipped_ = tornTails_ = 0;
  std::vector<ArchiveRecord> out;
  for (const auto& [seq, path] : listRotatedSegments(basePath_))
    readSegment(path, out);
  readSegment(basePath_, out);
  return out;
}

void ArchiveReader::readSegment(const std::string& path,
                                std::vector<ArchiveRecord>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 64 * 1024> chunk;
  std::size_t n;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + n);
  std::fclose(f);

  if (bytes.size() < sizeof(kArchiveMagic) + 1 ||
      std::memcmp(bytes.data(), kArchiveMagic, sizeof(kArchiveMagic)) != 0 ||
      bytes[sizeof(kArchiveMagic)] != kArchiveFormatVersion)
    return;  // not an archive segment (or a future format): contribute nothing
  ++segmentsRead_;

  std::size_t pos = sizeof(kArchiveMagic) + 1;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      ++tornTails_;  // writer died inside the frame header
      return;
    }
    net::WireReader hdr(
        std::span<const std::uint8_t>(bytes).subspan(pos, kFrameHeaderBytes));
    const std::uint32_t length = *hdr.u32();
    const std::uint32_t crc = *hdr.u32();
    if (length < kPayloadHeaderBytes || length > kMaxArchiveRecordBytes) {
      // Framing itself is implausible: stop, don't walk garbage.
      ++recordsSkipped_;
      return;
    }
    if (bytes.size() - pos - kFrameHeaderBytes < length) {
      ++tornTails_;  // writer died inside the payload
      return;
    }
    const auto payload = std::span<const std::uint8_t>(bytes).subspan(
        pos + kFrameHeaderBytes, length);
    pos += kFrameHeaderBytes + length;
    if (crc32(payload) != crc) {
      ++recordsSkipped_;  // one corrupt record; the framing still walks
      continue;
    }
    net::WireReader r(payload);
    ArchiveRecord rec;
    const auto type = r.u8();
    const auto mono = r.f64();
    const auto wall = r.f64();
    if (!type || !mono || !wall) {
      ++recordsSkipped_;
      continue;
    }
    rec.type = static_cast<ArchiveRecordType>(*type);
    rec.monoSec = *mono;
    rec.wallSec = *wall;
    bool bodyOk = true;
    switch (rec.type) {
      case ArchiveRecordType::kSnapshot: {
        const auto body = payload.subspan(kPayloadHeaderBytes);
        rec.snapshot.assign(body.begin(), body.end());
        break;
      }
      case ArchiveRecordType::kAlarmEdge: {
        const auto kind = r.u8();
        const auto sev = r.u8();
        const auto at = r.f64();
        auto node = r.str();
        auto detail = r.str();
        if (!kind || !sev || !at || !node || !detail || !r.atEnd()) {
          bodyOk = false;
          break;
        }
        rec.alarmKind = *kind;
        rec.alarmSeverity = *sev;
        rec.alarmTimeSec = *at;
        rec.node = std::move(*node);
        rec.text = std::move(*detail);
        break;
      }
      case ArchiveRecordType::kTraceDumpMarker: {
        auto text = r.str();
        if (!text || !r.atEnd()) {
          bodyOk = false;
          break;
        }
        rec.text = std::move(*text);
        break;
      }
      default:
        // CRC-valid record of a type this reader predates, or of the
        // retired type 4: skip it, keep walking — forward compatibility
        // for future record kinds, and older archives still read.
        bodyOk = false;
        break;
    }
    if (!bodyOk) {
      ++recordsSkipped_;
      continue;
    }
    ++recordsRead_;
    out.push_back(std::move(rec));
  }
}

}  // namespace cod::telemetry
