// TelemetryArchive — the cluster's black box (flight-data recorder).
//
// Everything the live stack observes evaporates when the process exits:
// the health table is a terminal scroll, the trace ring holds seconds,
// and a failed nightly soak leaves only whatever happened to be printed.
// The archive makes the monitor's view durable: an append-only binary
// log of every applied telemetry snapshot plus the monitor's own alarm
// edges and flight-recorder dump markers, written on the monitor host so
// ONE file records the whole cluster (the paper's instructor station is
// the natural recorder). `cod_inspect` (tools/inspect/) replays it
// offline — alarm timeline, counter evolution, CSV/JSON export — and the
// soak driver re-verifies its live verdict against the replay.
//
// File format (one segment):
//
//   [4B magic "CODA"][u8 format version]
//   repeated records:
//     [u32 payload length][u32 CRC-32 of payload][payload]
//   payload:
//     [u8 record type][f64 monoSec][f64 wallSec][type-specific body]
//
// All integers little-endian (net/wire.hpp). Bodies:
//   kSnapshot        raw encoded NodeTelemetry bytes (to payload end) —
//                    self-contained, decodeTelemetry() replays it.
//   kAlarmEdge       [u8 kind][u8 severity][f64 alarm time][str node]
//                    [str detail]
//   kTraceDumpMarker [str dump path] — a flight-recorder ring was frozen
//                    to that file at this moment.
// Type 4 (a liveness ping for a telemetry delta whose base was lost) is
// retired with the delta encoding and never reused; readers skip it like
// any unknown type.
//
// Durability contract: a writer killed at ANY byte (SIGKILL mid-fwrite)
// must never poison the file. The reader treats a truncated trailer —
// fewer bytes than one record header, or fewer than the header's length
// claims — as the end of the segment (a torn tail, counted, not an
// error), and a CRC mismatch with a plausible length as one corrupt
// record to skip. An implausible length (beyond kMaxRecordBytes) means
// the framing itself is gone; the reader stops there rather than walk
// garbage.
//
// Size bound: the writer rotates segments. The active segment is
// `path`; when it crosses Config::segmentBytes it is renamed to
// `path.<n>` (n monotonically increasing) and a fresh active segment
// starts. At most Config::maxSegments rotated segments are kept — the
// oldest is deleted — so the archive is a ring of files, newest data
// always present, disk use bounded by ~(maxSegments+1)*segmentBytes.
// The reader walks `path.<n>` in ascending n, then `path`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace cod::telemetry {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the frame check of every archive record. Exposed for tests and any
/// future framed file format.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// First bytes of every segment file.
inline constexpr std::uint8_t kArchiveMagic[4] = {'C', 'O', 'D', 'A'};
inline constexpr std::uint8_t kArchiveFormatVersion = 1;
/// A record claiming a payload beyond this is framing corruption, not a
/// big record — the reader stops instead of seeking into garbage.
inline constexpr std::uint32_t kMaxArchiveRecordBytes = 16u << 20;

enum class ArchiveRecordType : std::uint8_t {
  kSnapshot = 1,
  kAlarmEdge = 2,
  kTraceDumpMarker = 3,
  // 4 is retired (see the file comment).
};

/// One decoded archive record. Which fields are meaningful depends on
/// `type`; the rest stay default.
struct ArchiveRecord {
  ArchiveRecordType type = ArchiveRecordType::kSnapshot;
  /// Writer's monotonic clock at append time — the monitor's own clock,
  /// so replaying against these timestamps reproduces its judgement.
  double monoSec = 0.0;
  /// Wall clock (Unix epoch seconds) at append time, for humans lining
  /// the archive up with external logs.
  double wallSec = 0.0;
  /// kSnapshot: encoded NodeTelemetry record (decodeTelemetry-ready).
  std::vector<std::uint8_t> snapshot;
  /// kAlarmEdge: the monitor's HealthAlarm, flattened (kind/severity as
  /// their wire bytes so this header needs no monitor include).
  std::uint8_t alarmKind = 0;
  std::uint8_t alarmSeverity = 0;
  double alarmTimeSec = 0.0;
  std::string node;
  /// kAlarmEdge: alarm detail text. kTraceDumpMarker: the dump path.
  std::string text;
};

/// Append-side of the archive. Not thread-safe (the monitor owns it and
/// appends from its own tick path). Every append is fwrite+fflush so the
/// kernel holds the bytes the moment the call returns — a SIGKILL can
/// tear at most the record being written, which the reader tolerates.
class TelemetryArchive {
 public:
  struct Config {
    std::string path;  // active segment; rotations become path.<n>
    /// Rotate the active segment once it crosses this many bytes.
    std::size_t segmentBytes = 8u << 20;
    /// Rotated segments kept (oldest deleted beyond this). The active
    /// segment is extra, so worst-case disk is (maxSegments+1) segments.
    std::size_t maxSegments = 4;
  };

  explicit TelemetryArchive(Config cfg);
  ~TelemetryArchive();
  TelemetryArchive(const TelemetryArchive&) = delete;
  TelemetryArchive& operator=(const TelemetryArchive&) = delete;

  /// False if the active segment could not be opened — appends become
  /// no-ops (an unwritable archive must not take the monitor down).
  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return cfg_.path; }

  /// Append one encoded telemetry record (`encodeTelemetry` output).
  /// `monoSec` is the caller's monotonic clock; the wall clock is
  /// stamped here.
  void appendSnapshot(std::span<const std::uint8_t> bytes, double monoSec);
  void appendAlarm(std::uint8_t kind, std::uint8_t severity,
                   double alarmTimeSec, const std::string& node,
                   const std::string& detail, double monoSec);
  void appendTraceDumpMarker(const std::string& dumpPath, double monoSec);
  /// Fully-controlled append (tests stamp their own wall clock).
  void append(const ArchiveRecord& rec);

  std::uint64_t recordsWritten() const { return recordsWritten_; }
  std::uint64_t bytesWritten() const { return bytesWritten_; }
  std::uint64_t segmentsRotated() const { return segmentsRotated_; }

  void close();

 private:
  void rotateIfNeeded();

  Config cfg_;
  std::FILE* file_ = nullptr;
  std::size_t activeBytes_ = 0;
  std::uint64_t recordsWritten_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t segmentsRotated_ = 0;
  /// Next rotation suffix; continues past segments already on disk so a
  /// reopened archive (victim restart) never overwrites history.
  std::uint64_t nextSegmentSeq_ = 1;
};

/// Read-side: decodes a whole archive (rotated segments in order, then
/// the active one) with the torn-tail/CRC-skip tolerance documented in
/// the file header comment.
class ArchiveReader {
 public:
  explicit ArchiveReader(std::string basePath) : basePath_(std::move(basePath)) {}

  /// Every decodable record across all segments, in write order.
  std::vector<ArchiveRecord> readAll();

  /// Diagnostics from the last readAll() walk.
  std::uint64_t segmentsRead() const { return segmentsRead_; }
  std::uint64_t recordsRead() const { return recordsRead_; }
  /// Records skipped for a CRC mismatch or an undecodable body.
  std::uint64_t recordsSkipped() const { return recordsSkipped_; }
  /// Segments that ended in a partial record (writer killed mid-append).
  std::uint64_t tornTails() const { return tornTails_; }

 private:
  void readSegment(const std::string& path, std::vector<ArchiveRecord>& out);

  std::string basePath_;
  std::uint64_t segmentsRead_ = 0;
  std::uint64_t recordsRead_ = 0;
  std::uint64_t recordsSkipped_ = 0;
  std::uint64_t tornTails_ = 0;
};

}  // namespace cod::telemetry
