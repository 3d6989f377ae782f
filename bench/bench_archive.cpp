// Flight-data archive overhead: recording must be invisible next to the
// cluster it records.
//
// BM_ArchiveAppend prices one TelemetryArchive::appendSnapshot — a CRC
// over the keyframe, one fwrite, one fflush — which is everything the
// monitor's apply path pays per applied snapshot. BM_ArchiveOverhead
// drives a busy 4-node reliable mesh over real loopback UDP with a
// HealthMonitor + archive attached to one node (the soak rack's
// instructor-as-recorder deployment) and gates the archive's share of
// the run: (records appended per simulated second) x (measured cost per
// append) against one second. The mesh's virtual 60 Hz clock IS the
// deployment clock — a real rack runs it in real time — so this share is
// what the instructor host pays in deployment, while the bench itself
// may step through simulated time faster than wall time. Both factors
// are measured in this process, so the share models the cost actually
// paid rather than a noisy wall-clock A/B. Budget: < 1 % of run time,
// std::exit(1) past it (failing the CTest bench smoke lane).
//
// BM_ArchiveReplay prices the cod_inspect path — read every record back
// and feed a fresh HealthMonitor — so post-mortems stay interactive even
// for long soaks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/cb.hpp"
#include "core/value.hpp"
#include "net/udp.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/node_telemetry.hpp"
#include "telemetry/publisher.hpp"

namespace {

using namespace cod;

double nowSec() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// A realistic keyframe: a few dozen live counters and a touched
/// histogram, the shape a busy node actually ships.
std::vector<std::uint8_t> benchKeyframe(const std::string& node,
                                        std::uint64_t seq) {
  telemetry::NodeTelemetry t;
  t.node = node;
  t.seq = seq;
  t.nodeTimeSec = static_cast<double>(seq) * 0.5;
  t.cb.updatesSent = 100 + seq * 17;
  t.cb.updatesDelivered = 300 + seq * 50;
  t.cb.reliable.dataFramesSent = 90 + seq * 15;
  t.cb.reliable.retransmitsSent = seq;
  for (int i = 0; i < 40; ++i)
    t.hists[0].buckets[i % telemetry::kHistBuckets] += i;
  t.hists[0].count = 780;
  t.hists[0].sum = 1.25;
  t.hists[0].max = 0.02;
  return telemetry::encodeTelemetry(t);
}

/// Cost of one appendSnapshot into a warm archive: minimum over several
/// timed passes, so a descheduling burst can only make the modeled share
/// *smaller*, never fail the gate spuriously.
double measurePerAppendSec(const std::vector<std::uint8_t>& keyframe) {
  telemetry::TelemetryArchive::Config cfg;
  cfg.path = "bench_archive_scratch.archive";
  cfg.segmentBytes = 1u << 30;  // no rotation inside the measurement
  constexpr std::uint64_t kPass = 4096;
  constexpr int kPasses = 5;
  double best = 1e300;
  for (int p = 0; p < kPasses; ++p) {
    telemetry::TelemetryArchive ar(cfg);
    const double t0 = nowSec();
    for (std::uint64_t i = 0; i < kPass; ++i)
      ar.appendSnapshot(keyframe, static_cast<double>(i));
    best = std::min(best, (nowSec() - t0) / static_cast<double>(kPass));
    ar.close();
    std::remove(cfg.path.c_str());
  }
  return best;
}

class MeshLp final : public core::LogicalProcess {
 public:
  MeshLp(std::string cls, double intervalSec)
      : core::LogicalProcess("mesh"), cls_(std::move(cls)),
        interval_(intervalSec) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, cls_,
                                 net::QosClass::kReliableOrdered);
  }

  void subscribe(core::CommunicationBackbone& cb, const std::string& cls) {
    cb.subscribeObjectClass(*this, cls, net::QosClass::kReliableOrdered);
  }

  void step(double now) override {
    if (now - last_ < interval_ - 1e-9) return;
    last_ = now;
    core::AttributeSet attrs;
    attrs.set("pos", math::Vec3{now, 1.0, 2.0});
    attrs.set("vel", math::Vec3{0.1, 0.2, 0.3});
    attrs.set("boomAngle", 0.8);
    attrs.set("hoist", 30.0 - now);
    attrs.set("load", 22000.0);
    backbone()->updateAttributeValues(pub_, attrs, now);
  }

 private:
  std::string cls_;
  double interval_;
  double last_ = -1e300;
  core::PublicationHandle pub_ = core::kInvalidHandle;
};

/// The archive's actual deployment: a busy 4-node reliable mesh on real
/// loopback sockets, every node publishing telemetry at 2 Hz, node 0
/// hosting the HealthMonitor with the archive attached.
struct Harness {
  explicit Harness(const std::string& archivePath) {
    net::UdpConfig ucfg;
    ucfg.portsPerHost = 1;
    ucfg.maxHosts = 4;
    ucfg.basePort = net::pickEphemeralBasePort(4);
    const std::string nodeNames[4] = {"n0", "n1", "n2", "n3"};
    const std::string classNames[4] = {"mesh.0", "mesh.1", "mesh.2",
                                       "mesh.3"};
    for (int i = 0; i < 4; ++i)
      cbs.push_back(std::make_unique<core::CommunicationBackbone>(
          nodeNames[i],
          std::make_unique<net::UdpTransport>(
              ucfg, static_cast<net::HostId>(i), 0),
          core::CommunicationBackbone::Config{}));
    for (int i = 0; i < 4; ++i) {
      lps.push_back(std::make_unique<MeshLp>(classNames[i], 1.0 / 60.0));
      lps.back()->bind(*cbs[i]);
      for (int j = 0; j < 4; ++j)
        if (j != i) lps.back()->subscribe(*cbs[i], classNames[j]);
      telemetry::TelemetryConfig tc;
      tc.intervalSec = 0.5;
      pubs.push_back(std::make_unique<telemetry::TelemetryPublisher>(tc));
      pubs.back()->bind(*cbs[i]);
    }
    telemetry::TelemetryArchive::Config acfg;
    acfg.path = archivePath;
    archive = std::make_unique<telemetry::TelemetryArchive>(acfg);
    monitor = std::make_unique<telemetry::HealthMonitor>();
    monitor->bind(*cbs[0]);
    monitor->attachArchive(archive.get());
    step(3.0);  // wire up before measuring
  }

  // Virtual 60 Hz clock; the loop runs as fast as the sockets allow.
  void step(double seconds) {
    const double until = now_ + seconds;
    while (now_ < until) {
      now_ += 1.0 / 60.0;
      for (auto& cb : cbs) cb->tick(now_);
    }
  }

  std::vector<std::unique_ptr<core::CommunicationBackbone>> cbs;
  std::vector<std::unique_ptr<MeshLp>> lps;
  std::vector<std::unique_ptr<telemetry::TelemetryPublisher>> pubs;
  std::unique_ptr<telemetry::TelemetryArchive> archive;
  std::unique_ptr<telemetry::HealthMonitor> monitor;
  double now_ = 0.0;
};

void BM_ArchiveAppend(benchmark::State& state) {
  const std::vector<std::uint8_t> keyframe = benchKeyframe("bench-0", 7);
  telemetry::TelemetryArchive::Config cfg;
  cfg.path = "bench_archive_scratch.archive";
  cfg.segmentBytes = 1u << 30;
  telemetry::TelemetryArchive ar(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ar.appendSnapshot(keyframe, static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(ar.bytesWritten()));
  ar.close();
  std::remove(cfg.path.c_str());
}

void BM_ArchiveOverhead(benchmark::State& state) {
  const std::string path = "bench_archive_mesh.archive";
  Harness h(path);
  const std::uint64_t recordsBase = h.archive->recordsWritten();
  double runSec = 0.0;
  double simSec = 0.0;
  for (auto _ : state) {
    const double t0 = nowSec();
    h.step(0.5);
    runSec += nowSec() - t0;
    simSec += 0.5;
  }
  const std::uint64_t records = h.archive->recordsWritten() - recordsBase;
  const double perAppendSec =
      measurePerAppendSec(benchKeyframe("bench-0", 7));
  // Share of a deployed (real-time) second: appends per simulated second
  // times the measured cost of one append.
  const double sharePct =
      simSec <= 0.0
          ? 0.0
          : 100.0 * static_cast<double>(records) * perAppendSec / simSec;
  state.counters["sim_s"] = simSec;
  state.counters["wall_s"] = runSec;
  state.counters["records/sim_s"] =
      simSec > 0 ? static_cast<double>(records) / simSec : 0;
  state.counters["us/append"] = perAppendSec * 1e6;
  state.counters["archive_share_%"] = sharePct;
  h.archive->close();
  std::remove(path.c_str());
  // The budget this PR promises: with the monitor recording every
  // applied snapshot and alarm edge, time spent inside append stays
  // < 1 % of the run. Fail the whole bench (and the CTest bench smoke
  // lane) if it regresses.
  if (sharePct >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: archive share %.3f%% >= 1%% budget "
                 "(%llu records, %.1f us/append)\n",
                 sharePct, static_cast<unsigned long long>(records),
                 perAppendSec * 1e6);
    std::exit(1);
  }
  if (records == 0) {
    std::fprintf(stderr, "FAIL: archived mesh recorded nothing\n");
    std::exit(1);
  }
}

void BM_ArchiveReplay(benchmark::State& state) {
  // A soak-shaped archive: 4 nodes x N snapshots at 2 Hz, with an alarm
  // edge sprinkled every 16 records.
  const std::string path = "bench_archive_replay.archive";
  const std::uint64_t perNode = static_cast<std::uint64_t>(state.range(0));
  {
    telemetry::TelemetryArchive::Config cfg;
    cfg.path = path;
    cfg.segmentBytes = 1u << 30;
    telemetry::TelemetryArchive ar(cfg);
    for (std::uint64_t s = 1; s <= perNode; ++s) {
      for (int n = 0; n < 4; ++n) {
        const double mono = static_cast<double>(s) * 0.5;
        std::string node = "bench-";
        node += std::to_string(n);
        ar.appendSnapshot(benchKeyframe(node, s), mono);
        if ((s * 4 + static_cast<std::uint64_t>(n)) % 16 == 0)
          ar.appendAlarm(2, 1, mono, node, "synthetic edge", mono);
      }
    }
    ar.close();
  }
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    telemetry::ArchiveReader reader(path);
    const std::vector<telemetry::ArchiveRecord> records = reader.readAll();
    telemetry::HealthMonitor mon;
    for (const telemetry::ArchiveRecord& rec : records) {
      mon.step(rec.monoSec);
      if (rec.type == telemetry::ArchiveRecordType::kSnapshot) {
        core::AttributeSet attrs;
        attrs.set(telemetry::kTelemetryAttr,
                  core::AttributeValue(rec.snapshot));
        mon.reflectAttributeValues(telemetry::kTelemetryClass, attrs,
                                   rec.monoSec);
      }
    }
    benchmark::DoNotOptimize(mon.nodeCount());
    replayed += records.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
  std::remove(path.c_str());
}

}  // namespace

BENCHMARK(BM_ArchiveAppend);
BENCHMARK(BM_ArchiveOverhead)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArchiveReplay)->Arg(64)->Arg(512)->ArgNames({"snaps/node"})
    ->Unit(benchmark::kMillisecond);
