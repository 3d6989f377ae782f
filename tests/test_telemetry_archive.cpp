// TelemetryArchive durability: the black box must survive everything the
// box it flies in does — SIGKILL mid-write, truncation at any byte,
// corrupt frames, rotation, restarts — and a reader must always get every
// record the writer completed.
#include "telemetry/archive.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "telemetry/node_telemetry.hpp"

namespace cod::telemetry {
namespace {

/// Unique per-test scratch path (ctest runs suites in parallel from one
/// working directory), removed with its rotated segments on destruction.
struct ScratchPath {
  explicit ScratchPath(const std::string& tag) {
    path = "archive_test_" + tag + "_" + std::to_string(::getpid()) + ".bin";
  }
  ~ScratchPath() {
    std::remove(path.c_str());
    for (int i = 1; i < 64; ++i)
      std::remove((path + "." + std::to_string(i)).c_str());
  }
  std::string path;
};

std::vector<std::uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> sampleSnapshot(std::uint64_t seq) {
  NodeTelemetry t;
  t.node = "dyn";
  t.seq = seq;
  t.nodeTimeSec = static_cast<double>(seq);
  t.cb.updatesSent = 10 * seq;
  return encodeTelemetry(t);
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value: CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(TelemetryArchive, AllRecordTypesRoundTrip) {
  ScratchPath sp("roundtrip");
  {
    TelemetryArchive::Config cfg;
    cfg.path = sp.path;
    TelemetryArchive ar(cfg);
    ASSERT_TRUE(ar.ok());
    ar.appendSnapshot(sampleSnapshot(1), 0.5);
    ar.appendAlarm(3, 2, 0.9, "dyn", "latency p99 1200ms", 1.0);
    ar.appendTraceDumpMarker("out/dyn.trace.json", 1.5);
    EXPECT_EQ(ar.recordsWritten(), 3u);
    EXPECT_GT(ar.bytesWritten(), 0u);
  }
  ArchiveReader rd(sp.path);
  const auto recs = rd.readAll();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(rd.recordsSkipped(), 0u);
  EXPECT_EQ(rd.tornTails(), 0u);

  EXPECT_EQ(recs[0].type, ArchiveRecordType::kSnapshot);
  EXPECT_EQ(recs[0].monoSec, 0.5);
  EXPECT_GT(recs[0].wallSec, 0.0);
  const auto t = decodeTelemetry(recs[0].snapshot);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, "dyn");
  EXPECT_EQ(t->seq, 1u);

  EXPECT_EQ(recs[1].type, ArchiveRecordType::kAlarmEdge);
  EXPECT_EQ(recs[1].alarmKind, 3);
  EXPECT_EQ(recs[1].alarmSeverity, 2);
  EXPECT_EQ(recs[1].alarmTimeSec, 0.9);
  EXPECT_EQ(recs[1].node, "dyn");
  EXPECT_EQ(recs[1].text, "latency p99 1200ms");

  EXPECT_EQ(recs[2].type, ArchiveRecordType::kTraceDumpMarker);
  EXPECT_EQ(recs[2].text, "out/dyn.trace.json");
  EXPECT_EQ(recs[2].monoSec, 1.5);
}

TEST(TelemetryArchive, TornTailAtEveryByteOffsetIsACleanStop) {
  ScratchPath sp("torn");
  {
    TelemetryArchive::Config cfg;
    cfg.path = sp.path;
    TelemetryArchive ar(cfg);
    for (std::uint64_t s = 1; s <= 3; ++s) ar.appendSnapshot(sampleSnapshot(s), 0.5 * static_cast<double>(s));
  }
  const std::vector<std::uint8_t> full = fileBytes(sp.path);
  ASSERT_GT(full.size(), 5u);
  {
    ArchiveReader probe(sp.path);
    ASSERT_EQ(probe.readAll().size(), 3u);
  }
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    writeBytes(sp.path, std::vector<std::uint8_t>(full.begin(),
                                                  full.begin() + cut));
    ArchiveReader rd(sp.path);
    const auto recs = rd.readAll();  // must never crash or loop
    // A truncated file yields a PREFIX of the written records, each one
    // intact (CRC guarantees no partially-applied record).
    ASSERT_LE(recs.size(), 3u) << "cut at " << cut;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const auto t = decodeTelemetry(recs[i].snapshot);
      ASSERT_TRUE(t.has_value()) << "cut at " << cut;
      EXPECT_EQ(t->seq, i + 1) << "cut at " << cut;
    }
    EXPECT_EQ(rd.recordsSkipped(), 0u) << "cut at " << cut;
    if (cut == full.size()) {
      EXPECT_EQ(recs.size(), 3u);
      EXPECT_EQ(rd.tornTails(), 0u);
    }
  }
  writeBytes(sp.path, full);  // restore for ScratchPath cleanup symmetry
}

TEST(TelemetryArchive, CrcCorruptFrameIsSkippedNotFatal) {
  ScratchPath sp("crc");
  {
    TelemetryArchive::Config cfg;
    cfg.path = sp.path;
    TelemetryArchive ar(cfg);
    for (std::uint64_t s = 1; s <= 3; ++s)
      ar.appendSnapshot(sampleSnapshot(s), static_cast<double>(s));
  }
  auto bytes = fileBytes(sp.path);
  // Flip one byte in the MIDDLE record's payload (well past the first
  // record: header 5 + first frame). Find the second frame start by
  // re-walking lengths.
  std::size_t off = 5;  // magic + version
  const auto frameLen = [&](std::size_t at) {
    return static_cast<std::size_t>(bytes[at]) |
           (static_cast<std::size_t>(bytes[at + 1]) << 8) |
           (static_cast<std::size_t>(bytes[at + 2]) << 16) |
           (static_cast<std::size_t>(bytes[at + 3]) << 24);
  };
  off += 8 + frameLen(off);          // past record 1
  const std::size_t mid = off + 8 + frameLen(off) / 2;
  bytes[mid] ^= 0xFF;
  writeBytes(sp.path, bytes);

  ArchiveReader rd(sp.path);
  const auto recs = rd.readAll();
  ASSERT_EQ(recs.size(), 2u);  // records 1 and 3 survive
  EXPECT_EQ(rd.recordsSkipped(), 1u);
  EXPECT_EQ(rd.tornTails(), 0u);
  EXPECT_EQ(decodeTelemetry(recs[0].snapshot)->seq, 1u);
  EXPECT_EQ(decodeTelemetry(recs[1].snapshot)->seq, 3u);
}

TEST(TelemetryArchive, UnknownRecordTypeIsSkippedForForwardCompat) {
  ScratchPath sp("fwd");
  {
    TelemetryArchive::Config cfg;
    cfg.path = sp.path;
    TelemetryArchive ar(cfg);
    ArchiveRecord rec;
    rec.type = static_cast<ArchiveRecordType>(200);  // from the future
    rec.monoSec = 1.0;
    rec.wallSec = 2.0;
    ar.append(rec);
  }
  // Type 4 is retired: a liveness ping as older writers framed it,
  // [u8 4][f64 mono][f64 wall][str node], then a record this reader knows.
  auto bytes = fileBytes(sp.path);
  const auto appendFrame = [&bytes](std::uint8_t type, const std::string& s) {
    net::WireWriter payload;
    payload.u8(type);
    payload.f64(3.0);
    payload.f64(4.0);
    payload.str(s);
    net::WireWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.bytes()));
    frame.raw(payload.bytes());
    bytes.insert(bytes.end(), frame.bytes().begin(), frame.bytes().end());
  };
  appendFrame(4, "dyn");
  appendFrame(static_cast<std::uint8_t>(ArchiveRecordType::kTraceDumpMarker),
              "out/dyn.trace.json");
  writeBytes(sp.path, bytes);
  ArchiveReader rd(sp.path);
  const auto recs = rd.readAll();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, ArchiveRecordType::kTraceDumpMarker);
  EXPECT_EQ(recs[0].text, "out/dyn.trace.json");
  EXPECT_EQ(rd.recordsSkipped(), 2u);
  EXPECT_EQ(rd.tornTails(), 0u);
}

TEST(TelemetryArchive, RotationKeepsNewestBoundsDiskAndReadsInOrder) {
  ScratchPath sp("rot");
  TelemetryArchive::Config cfg;
  cfg.path = sp.path;
  cfg.segmentBytes = 2048;  // rotate every ~15 snapshot records
  cfg.maxSegments = 2;
  std::uint64_t written = 0;
  std::uint64_t rotations = 0;
  {
    TelemetryArchive ar(cfg);
    for (std::uint64_t s = 1; s <= 200; ++s) {
      ar.appendSnapshot(sampleSnapshot(s), static_cast<double>(s));
      ++written;
    }
    rotations = ar.segmentsRotated();
    EXPECT_GT(rotations, cfg.maxSegments);  // old segments were deleted
  }
  ArchiveReader rd(sp.path);
  const auto recs = rd.readAll();
  // The ring holds the newest records: a strict suffix ending at seq 200,
  // contiguous and in write order across the segment boundaries.
  ASSERT_GT(recs.size(), 0u);
  ASSERT_LT(recs.size(), written);  // oldest really were dropped
  EXPECT_EQ(rd.segmentsRead(), cfg.maxSegments + 1);  // ring + active
  std::uint64_t expect = decodeTelemetry(recs.front().snapshot)->seq;
  for (const ArchiveRecord& rec : recs) {
    const auto t = decodeTelemetry(rec.snapshot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->seq, expect);
    ++expect;
  }
  EXPECT_EQ(expect - 1, 200u);
}

TEST(TelemetryArchive, ReopenRotatesOldActiveSegmentInsteadOfOverwriting) {
  ScratchPath sp("reopen");
  TelemetryArchive::Config cfg;
  cfg.path = sp.path;
  {
    TelemetryArchive ar(cfg);
    ar.appendSnapshot(sampleSnapshot(1), 1.0);
  }
  {
    // A restarted recorder must not clobber the first incarnation's data.
    TelemetryArchive ar(cfg);
    ar.appendSnapshot(sampleSnapshot(2), 2.0);
  }
  ArchiveReader rd(sp.path);
  const auto recs = rd.readAll();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(rd.segmentsRead(), 2u);
  EXPECT_EQ(decodeTelemetry(recs[0].snapshot)->seq, 1u);
  EXPECT_EQ(decodeTelemetry(recs[1].snapshot)->seq, 2u);
}

TEST(TelemetryArchive, UnwritablePathDegradesToNoOps) {
  TelemetryArchive::Config cfg;
  cfg.path = "no-such-dir-xyzzy/arc.bin";
  TelemetryArchive ar(cfg);
  EXPECT_FALSE(ar.ok());
  ar.appendSnapshot(sampleSnapshot(1), 1.0);  // must not crash
  ar.appendTraceDumpMarker("out/dyn.trace.json", 2.0);
  EXPECT_EQ(ar.recordsWritten(), 0u);
}

TEST(TelemetryArchive, SigkillMidWriteNeverPoisonsTheFile) {
  // A writer killed at an arbitrary moment (the soak driver's SIGKILL,
  // a power cut) leaves at most one torn record. Fork children that
  // append as fast as they can, kill each at a slightly different age,
  // and require every surviving file to read back cleanly: a contiguous
  // seq prefix, no skipped frames, at most one torn tail.
  for (int round = 0; round < 4; ++round) {
    ScratchPath sp("kill" + std::to_string(round));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      TelemetryArchive::Config cfg;
      cfg.path = sp.path;
      TelemetryArchive ar(cfg);
      for (std::uint64_t s = 1;; ++s)
        ar.appendSnapshot(sampleSnapshot(s), static_cast<double>(s));
      // unreachable
    }
    // Let the child get some appends out, then kill it mid-stride.
    ::usleep(20000 + 17000 * round);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);

    ArchiveReader rd(sp.path);
    const auto recs = rd.readAll();
    ASSERT_GT(recs.size(), 0u) << "round " << round;
    EXPECT_EQ(rd.recordsSkipped(), 0u) << "round " << round;
    EXPECT_LE(rd.tornTails(), 1u) << "round " << round;
    std::uint64_t expect = 1;
    for (const ArchiveRecord& rec : recs) {
      const auto t = decodeTelemetry(rec.snapshot);
      ASSERT_TRUE(t.has_value()) << "round " << round;
      EXPECT_EQ(t->seq, expect) << "round " << round;
      ++expect;
    }
  }
}

}  // namespace
}  // namespace cod::telemetry
