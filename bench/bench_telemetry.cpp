// Telemetry overhead: the cluster-health export must be invisible next to
// the working traffic.
//
// BM_TelemetryOverhead drives two identically-seeded 4-node clusters with
// a busy 16 fps full-mesh state exchange — one with telemetry (1 Hz
// publishers on every node, HealthMonitor on node 0), one without — and
// reports the telemetry share of total datagrams. Because snapshots ride
// the per-peer kBatch coalescer with traffic that was leaving anyway, the
// share stays far below the 2 % budget this bench enforces (the process
// exits non-zero past it, failing the CTest bench smoke lane).
//
// BM_TelemetryEncode prices one snapshot+encode of a keyframe.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/publisher.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace cod;

class MeshLp final : public core::LogicalProcess {
 public:
  MeshLp(std::string cls, double intervalSec)
      : core::LogicalProcess("mesh"), cls_(std::move(cls)),
        interval_(intervalSec) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, cls_);
  }

  void subscribe(core::CommunicationBackbone& cb, const std::string& cls) {
    cb.subscribeObjectClass(*this, cls);
  }

  void step(double now) override {
    // Epsilon so float accumulation of the tick clock cannot make a 60 Hz
    // stream skip a 60 Hz tick (which would leave peer containers empty
    // exactly where telemetry frames would otherwise coalesce for free).
    if (now - last_ < interval_ - 1e-9) return;
    last_ = now;
    core::AttributeSet attrs;
    attrs.set("pos", math::Vec3{now, 1.0, 2.0});
    attrs.set("heading", 0.25);
    attrs.set("speed", 3.5);
    attrs.set("boom", 0.8);
    backbone()->updateAttributeValues(pub_, attrs, now);
  }

 private:
  std::string cls_;
  double interval_;
  double last_ = -1e300;
  core::PublicationHandle pub_ = core::kInvalidHandle;
};

/// A busy 4-node cluster: a full-mesh state exchange at the paper's 60 Hz
/// dashboard/platform cadence, CBs ticking at the same rate (every tick
/// carries traffic to every peer, which is what "busy" means to the
/// coalescer). Telemetry optional; node 0 carries the HealthMonitor.
struct Harness {
  explicit Harness(bool withTelemetry) {
    core::CodCluster::Config ccfg;
    ccfg.seed = 99;
    ccfg.tickIntervalSec = 1.0 / 60.0;
    cluster = std::make_unique<core::CodCluster>(ccfg);
    const std::string nodeNames[4] = {"n0", "n1", "n2", "n3"};
    const std::string classNames[4] = {"mesh.0", "mesh.1", "mesh.2",
                                       "mesh.3"};
    for (int i = 0; i < 4; ++i)
      cbs.push_back(&cluster->addComputer(nodeNames[i]));
    for (int i = 0; i < 4; ++i) {
      lps.push_back(std::make_unique<MeshLp>(classNames[i], 1.0 / 60.0));
      lps.back()->bind(*cbs[i]);
      for (int j = 0; j < 4; ++j)
        if (j != i) lps.back()->subscribe(*cbs[i], classNames[j]);
    }
    if (withTelemetry) {
      telemetry::TelemetryConfig tcfg;  // 1 Hz
      for (auto* cb : cbs) {
        publishers.push_back(
            std::make_unique<telemetry::TelemetryPublisher>(tcfg));
        publishers.back()->bind(*cb);
      }
      monitor = std::make_unique<telemetry::HealthMonitor>();
      monitor->bind(*cbs[0]);
    }
    cluster->step(3.0);  // wire up before measuring
  }

  std::uint64_t packetsSent() const {
    return cluster->network().stats().packetsSent;
  }

  std::unique_ptr<core::CodCluster> cluster;
  std::vector<core::CommunicationBackbone*> cbs;
  std::vector<std::unique_ptr<MeshLp>> lps;
  std::vector<std::unique_ptr<telemetry::TelemetryPublisher>> publishers;
  std::unique_ptr<telemetry::HealthMonitor> monitor;
};

void BM_TelemetryOverhead(benchmark::State& state) {
  Harness on(true);
  Harness off(false);
  const std::uint64_t onBase = on.packetsSent();
  const std::uint64_t offBase = off.packetsSent();
  double simSeconds = 0.0;
  for (auto _ : state) {
    on.cluster->step(0.5);
    off.cluster->step(0.5);
    simSeconds += 0.5;
  }
  const double pktsOn = static_cast<double>(on.packetsSent() - onBase);
  const double pktsOff = static_cast<double>(off.packetsSent() - offBase);
  const double sharePct =
      pktsOn <= 0.0 ? 0.0 : 100.0 * (pktsOn - pktsOff) / pktsOn;
  state.counters["sim_s"] = simSeconds;
  state.counters["pkts/s_on"] = simSeconds > 0 ? pktsOn / simSeconds : 0;
  state.counters["pkts/s_off"] = simSeconds > 0 ? pktsOff / simSeconds : 0;
  state.counters["tele_share_%"] = sharePct;
  // The budget this PR promises: telemetry at 1 Hz costs < 2 % of the
  // datagrams of a busy cluster. Fail the whole bench (and the CTest
  // bench smoke lane) if it regresses.
  if (sharePct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: telemetry datagram share %.2f%% >= 2%% budget\n",
                 sharePct);
    std::exit(1);
  }
  if (on.monitor->nodeCount() != 4) {
    std::fprintf(stderr, "FAIL: monitor lost nodes (%zu/4)\n",
                 on.monitor->nodeCount());
    std::exit(1);
  }
}

void BM_TelemetryEncode(benchmark::State& state) {
  Harness h(true);
  telemetry::StatRegistry registry(*h.cbs[1]);
  std::uint64_t bytesOut = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    const auto bytes = telemetry::encodeTelemetry(registry.snapshot(3.5));
    benchmark::DoNotOptimize(bytes.data());
    bytesOut += bytes.size();
    ++records;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["bytes/record"] =
      records == 0 ? 0.0
                   : static_cast<double>(bytesOut) / static_cast<double>(records);
}

}  // namespace

BENCHMARK(BM_TelemetryOverhead)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TelemetryEncode);
