// Cluster monitor: the telemetry subsystem watching a 4-node COD cluster
// under injected loss and a partition.
//
// Four computers exchange 16 fps state traffic over the Communication
// Backbone. Every computer runs a TelemetryPublisher (1 Hz, each record a
// self-contained keyframe riding the kBatch coalescer); "alpha" also runs
// the HealthMonitor an instructor station would. The run has four acts:
//
//   1. clean LAN            — all nodes OK, rates live;
//   2. 35 % loss to delta   — LOSS_SPIKE alarm;
//   3. charlie partitioned  — NODE_SILENT alarm;
//   4. everything healed    — NODE_RECOVERED, table back to OK.
//
//   $ ./cluster_monitor

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/publisher.hpp"

using namespace cod;

namespace {

class StateLp final : public core::LogicalProcess {
 public:
  StateLp(std::string cls, double intervalSec)
      : core::LogicalProcess("state"), cls_(std::move(cls)),
        interval_(intervalSec) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, cls_);
  }

  void step(double now) override {
    if (now - last_ < interval_) return;
    last_ = now;
    core::AttributeSet attrs;
    attrs.set("pos", math::Vec3{now, 2.0 * now, 0.5});
    attrs.set("heading", now * 0.1);
    attrs.set("speed", 3.2);
    backbone()->updateAttributeValues(pub_, attrs, now);
  }

 private:
  std::string cls_;
  double interval_;
  double last_ = -1e300;
  core::PublicationHandle pub_ = core::kInvalidHandle;
};

class ViewerLp final : public core::LogicalProcess {
 public:
  explicit ViewerLp(std::string cls)
      : core::LogicalProcess("viewer"), cls_(std::move(cls)) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    cb.subscribeObjectClass(*this, cls_);
  }

 private:
  std::string cls_;
};

void show(const char* act, const telemetry::HealthMonitor& monitor) {
  std::printf("\n== %s\n%s%s", act, monitor.renderTable().c_str(),
              monitor.renderAlarms().c_str());
}

}  // namespace

int main() {
  std::printf("COD cluster monitor — 4 nodes, telemetry at 1 Hz\n");

  core::CodCluster::Config ccfg;
  ccfg.seed = 42;
  core::CodCluster cluster(ccfg);
  auto& alpha = cluster.addComputer("alpha");
  auto& bravo = cluster.addComputer("bravo");
  auto& charlie = cluster.addComputer("charlie");
  auto& delta = cluster.addComputer("delta");

  // The working traffic: bravo streams crane state to every other node,
  // charlie streams platform poses back to bravo.
  StateLp crane("demo.crane", 1.0 / 16.0);
  StateLp pose("demo.pose", 1.0 / 16.0);
  ViewerLp v1("demo.crane"), v2("demo.crane"), v3("demo.crane");
  ViewerLp v4("demo.pose");
  crane.bind(bravo);
  pose.bind(charlie);
  v1.bind(alpha);
  v2.bind(charlie);
  v3.bind(delta);
  v4.bind(bravo);

  // Telemetry on every computer; the aggregator beside alpha's viewer.
  telemetry::TelemetryConfig tcfg;  // 1 Hz
  std::vector<std::unique_ptr<telemetry::TelemetryPublisher>> publishers;
  for (auto* cb : {&alpha, &bravo, &charlie, &delta}) {
    publishers.push_back(std::make_unique<telemetry::TelemetryPublisher>(tcfg));
    publishers.back()->bind(*cb);
  }
  telemetry::MonitorConfig mcfg;
  telemetry::HealthMonitor monitor(mcfg);
  monitor.bind(alpha);

  // Act 1 — clean LAN.
  cluster.step(6.0);
  show("act 1: clean LAN (6 s)", monitor);

  // Act 2 — inject 35 % loss on delta's links: its inbound frame loss
  // spikes and the monitor flags it.
  net::SimNetwork& net = cluster.network();
  net::LinkModel lossy = net.defaultLink();
  lossy.lossRate = 0.35;
  net.setLink(1, 3, lossy);  // bravo <-> delta carries the state stream
  cluster.step(6.0);
  show("act 2: 35% loss towards delta", monitor);

  // Act 3 — charlie drops off the LAN entirely.
  for (net::HostId other : {0u, 1u, 3u}) net.setPartitioned(2, other, true);
  cluster.step(6.0);
  show("act 3: charlie partitioned", monitor);

  // Act 4 — heal everything; charlie rediscovers and recovers.
  net.setLink(1, 3, net.defaultLink());
  for (net::HostId other : {0u, 1u, 3u}) net.setPartitioned(2, other, false);
  cluster.step(8.0);
  show("act 4: healed", monitor);

  // A headless example still verifies itself.
  bool sawLoss = false, sawSilent = false, sawRecovered = false;
  for (const telemetry::HealthAlarm& a : monitor.alarms()) {
    sawLoss |= a.kind == telemetry::HealthAlarm::Kind::kLossSpike;
    sawSilent |= a.kind == telemetry::HealthAlarm::Kind::kNodeSilent &&
                 a.node == "charlie";
    sawRecovered |= a.kind == telemetry::HealthAlarm::Kind::kNodeRecovered &&
                    a.node == "charlie";
  }
  const telemetry::NodeHealth* charlieHealth = monitor.node("charlie");
  const bool healthy = monitor.nodeCount() == 4 && sawLoss && sawSilent &&
                       sawRecovered && charlieHealth != nullptr &&
                       !charlieHealth->silent;
  std::printf("\n%s: loss spike %s, charlie silent %s, recovered %s\n",
              healthy ? "OK" : "FAILED", sawLoss ? "seen" : "MISSED",
              sawSilent ? "seen" : "MISSED", sawRecovered ? "seen" : "MISSED");
  return healthy ? 0 : 1;
}
