// Telemetry subsystem suite: StatRegistry snapshots, TelemetryPublisher
// cadence, HealthMonitor aggregation (staleness, alarms, rate
// derivation) on lossy 3-node SimNetwork clusters, the 4-node acceptance
// scenario, and the off-switch wire-identity guarantee.
//
// This binary carries the CTest "soak" label: the monitor suites hammer
// lossy links the same way the reliable-layer soaks do.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "net/simnet.hpp"
#include "sim/scenario_module.hpp"
#include "sim/simulator_app.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/publisher.hpp"
#include "telemetry/registry.hpp"

namespace cod::telemetry {
namespace {

core::AttributeSet sampleAttrs() {
  core::AttributeSet a;
  a.set("pos", math::Vec3{1.0, 2.0, 3.0});
  a.set("speed", 4.5);
  a.set("on", true);
  return a;
}

/// Publishes `cls` every `intervalSec` of virtual time.
class TrafficLp : public core::LogicalProcess {
 public:
  TrafficLp(std::string cls, double intervalSec)
      : core::LogicalProcess("traffic"), cls_(std::move(cls)),
        interval_(intervalSec) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, cls_);
  }

  void step(double now) override {
    if (now - last_ < interval_) return;
    backbone()->updateAttributeValues(pub_, sampleAttrs(), now);
    last_ = now;
  }

 private:
  std::string cls_;
  double interval_;
  double last_ = -1e300;
  core::PublicationHandle pub_ = core::kInvalidHandle;
};

/// Subscribes `cls` and counts reflections.
class SinkLp : public core::LogicalProcess {
 public:
  explicit SinkLp(std::string cls)
      : core::LogicalProcess("sink"), cls_(std::move(cls)) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    cb.subscribeObjectClass(*this, cls_);
  }

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet&, double) override {
    if (className == cls_) ++seen_;
  }

  std::uint64_t seen() const { return seen_; }

 private:
  std::string cls_;
  std::uint64_t seen_ = 0;
};

TEST(StatRegistry, SnapshotsCountersChannelsAndIdentity) {
  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("alpha");
  auto& cbB = cluster.addComputer("bravo");
  TrafficLp traffic("demo.state", 0.05);
  SinkLp sink("demo.state");
  traffic.bind(cbA);
  sink.bind(cbB);
  cluster.step(2.0);

  StatRegistry reg(cbA);
  const NodeTelemetry t1 = reg.snapshot(cluster.now());
  EXPECT_EQ(t1.seq, 1u);
  EXPECT_EQ(t1.node, "alpha");
  EXPECT_EQ(t1.addr, cbA.address());
  EXPECT_EQ(t1.nodeTimeSec, cluster.now());
  EXPECT_EQ(t1.cb.updatesSent, cbA.stats().updatesSent);
  EXPECT_GT(t1.cb.updatesSent, 0u);
  ASSERT_NE(cbA.transportStats(), nullptr);
  EXPECT_EQ(t1.transport.packetsSent, cbA.transportStats()->packetsSent);
  EXPECT_GT(t1.transport.packetsSent, 0u);
  // One outbound channel, carrying the traffic class.
  ASSERT_EQ(t1.channels.size(), 1u);
  EXPECT_TRUE(t1.channels[0].outbound);
  EXPECT_EQ(t1.channels[0].className, "demo.state");
  EXPECT_TRUE(t1.channels[0].live);
  EXPECT_LT(t1.channels[0].ageSec, 1.0);

  const NodeTelemetry t2 = reg.snapshot(cluster.now());
  EXPECT_EQ(t2.seq, 2u);  // monotonic

  // The subscriber side reports the same channel inbound.
  StatRegistry regB(cbB);
  const NodeTelemetry tb = regB.snapshot(cluster.now());
  ASSERT_EQ(tb.channels.size(), 1u);
  EXPECT_FALSE(tb.channels[0].outbound);
  EXPECT_EQ(tb.channels[0].className, "demo.state");
  EXPECT_TRUE(tb.channels[0].live);
}

TEST(TelemetryPublisher, CadenceAndKeyframeSchedule) {
  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("alpha");
  auto& cbB = cluster.addComputer("bravo");
  TelemetryConfig cfg;
  cfg.intervalSec = 0.5;
  TelemetryPublisher pub(cfg);
  pub.bind(cbA);
  HealthMonitor monitor;
  monitor.bind(cbB);
  cluster.step(10.0);

  // ~20 snapshots at 0.5 s cadence.
  EXPECT_GE(pub.snapshotsPublished(), 18u);
  EXPECT_LE(pub.snapshotsPublished(), 22u);

  const NodeHealth* h = monitor.node("alpha");
  ASSERT_NE(h, nullptr);
  // A clean LAN: everything applies except the first snapshot, published
  // before discovery wired the channel.
  EXPECT_GE(h->snapshotsApplied, pub.snapshotsPublished() - 2);
  EXPECT_FALSE(h->silent);
  EXPECT_EQ(h->last.seq, pub.snapshotsPublished());
  EXPECT_TRUE(monitor.alarms().empty());
}

/// A subscriber *swap* between publishes (one monitor leaves, another
/// joins; net fan-out unchanged): the newcomer must apply the first
/// record it hears, with nothing earlier to decode it against.
TEST(TelemetryPublisher, SubscriberSwapForcesKeyframe) {
  net::SimNetwork net(7);
  const net::HostId hA = net.addHost("A");
  const net::HostId hB = net.addHost("B");
  const net::HostId hC = net.addHost("C");
  core::CommunicationBackbone cbA("alpha", net.bind(hA, 1));
  TelemetryConfig tcfg;
  tcfg.intervalSec = 5.0;
  TelemetryPublisher pub(tcfg);
  pub.bind(cbA);
  std::optional<core::CommunicationBackbone> cbB;
  cbB.emplace("bravo", net.bind(hB, 1));
  std::optional<HealthMonitor> monB;
  monB.emplace();
  monB->bind(*cbB);
  std::optional<core::CommunicationBackbone> cbC;
  std::optional<HealthMonitor> monC;

  double t = 0.0;
  const auto run = [&](double until) {
    while (t < until) {
      t += 0.005;
      net.advance(0.005);
      cbA.tick(net.now());
      if (cbB) cbB->tick(net.now());
      if (cbC) cbC->tick(net.now());
    }
  };
  // Publish #1 lands before discovery, #2 (t≈5) reaches bravo.
  run(7.0);
  ASSERT_NE(monB->node("alpha"), nullptr);
  ASSERT_GE(monB->node("alpha")->snapshotsApplied, 1u);
  // The swap, entirely inside one publish interval: charlie joins...
  cbC.emplace("charlie", net.bind(hC, 1));
  monC.emplace();
  monC->bind(*cbC);
  run(8.5);
  // ...and bravo resigns cleanly (BYE), restoring the old fan-out of 1.
  monB.reset();
  cbB.reset();
  run(9.5);
  // Publish #3 (t≈10), at the same net fan-out, is the first record
  // charlie hears, and it applies on its own.
  run(12.0);
  const NodeHealth* h = monC->node("alpha");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->snapshotsApplied, 1u);
  EXPECT_EQ(h->last.seq, pub.snapshotsPublished());
}

TEST(HealthMonitor, DerivesRatesOnBusyCluster) {
  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("alpha");
  auto& cbB = cluster.addComputer("bravo");
  auto& cbC = cluster.addComputer("charlie");
  TrafficLp traffic("demo.state", 1.0 / 16.0);
  SinkLp sink("demo.state");
  traffic.bind(cbA);
  sink.bind(cbB);
  TelemetryConfig tcfg;
  tcfg.intervalSec = 0.5;
  std::vector<std::unique_ptr<TelemetryPublisher>> pubs;
  for (auto* cb : {&cbA, &cbB, &cbC}) {
    pubs.push_back(std::make_unique<TelemetryPublisher>(tcfg));
    pubs.back()->bind(*cb);
  }
  MonitorConfig mcfg;
  mcfg.expectedIntervalSec = tcfg.intervalSec;
  HealthMonitor monitor(mcfg);
  monitor.bind(cbC);
  cluster.step(8.0);

  ASSERT_EQ(monitor.nodeCount(), 3u);
  const NodeHealth* a = monitor.node("alpha");
  ASSERT_NE(a, nullptr);
  // 16 updates/s of demo.state plus 2/s of telemetry.
  EXPECT_GT(a->updatesPerSec, 10.0);
  EXPECT_LT(a->updatesPerSec, 30.0);
  EXPECT_GT(a->bytesPerDatagram, 0.0);
  EXPECT_NEAR(a->lossPct, 0.0, 1e-9);
  // charlie watches itself through the local fast path.
  const NodeHealth* c = monitor.node("charlie");
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->snapshotsApplied, 0u);
}

/// Feed the monitor crafted records directly (no network): deterministic
/// coverage of alarm edges, stale sequences and publisher restarts.
class MonitorUnit : public ::testing::Test {
 protected:
  static core::AttributeSet wrap(const std::vector<std::uint8_t>& bytes) {
    core::AttributeSet a;
    a.set(kTelemetryAttr, bytes);
    return a;
  }

  NodeTelemetry record(std::uint64_t seq, double timeSec) {
    NodeTelemetry t;
    t.seq = seq;
    t.node = "unit";
    t.addr = {1, 1};
    t.nodeTimeSec = timeSec;
    return t;
  }

  void feed(const NodeTelemetry& t) {
    monitor.reflectAttributeValues(kTelemetryClass, wrap(encodeTelemetry(t)),
                                   t.nodeTimeSec);
  }

  HealthMonitor monitor;
};

TEST_F(MonitorUnit, ThresholdAlarmsAreEdgeTriggered) {
  NodeTelemetry t1 = record(1, 0.0);
  feed(t1);
  EXPECT_TRUE(monitor.alarms().empty());

  // One second later: a retransmit storm and mailbox overflows. The
  // retransmits ride on plenty of first-attempt traffic, so the derived
  // reliable-loss estimate stays below its own (separate) alarm.
  NodeTelemetry t2 = record(2, 1.0);
  t2.cb.reliable.retransmitsSent = 500;
  t2.cb.reliable.dataFramesSent = 10000;
  t2.cb.mailboxOverflows = 3;
  feed(t2);
  ASSERT_EQ(monitor.alarms().size(), 2u);
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kRetransmitStorm);
  EXPECT_EQ(monitor.alarms()[1].kind, HealthAlarm::Kind::kMailboxOverflow);
  EXPECT_EQ(monitor.alarms()[0].node, "unit");
  EXPECT_EQ(monitor.alarms()[0].severity, HealthAlarm::Severity::kWarning);
  EXPECT_EQ(monitor.alarms()[1].severity, HealthAlarm::Severity::kWarning);

  // The storm persists: no new storm alarm (edge, not level). Overflow is
  // interval growth, and this interval grew by nothing — its falling edge
  // lands here.
  NodeTelemetry t3 = record(3, 2.0);
  t3.cb.reliable.retransmitsSent = 1000;
  t3.cb.reliable.dataFramesSent = 20000;
  t3.cb.mailboxOverflows = 3;
  feed(t3);
  ASSERT_EQ(monitor.alarms().size(), 3u);
  EXPECT_EQ(monitor.alarms()[2].kind, HealthAlarm::Kind::kOverflowCleared);
  EXPECT_EQ(monitor.alarms()[2].severity, HealthAlarm::Severity::kInfo);

  // It subsides (falling edge), then returns: a fresh alarm.
  NodeTelemetry t4 = record(4, 3.0);
  t4.cb.reliable.retransmitsSent = 1000;
  t4.cb.reliable.dataFramesSent = 20000;
  t4.cb.mailboxOverflows = 3;
  feed(t4);
  ASSERT_EQ(monitor.alarms().size(), 4u);
  EXPECT_EQ(monitor.alarms()[3].kind, HealthAlarm::Kind::kRetransmitCleared);
  EXPECT_EQ(monitor.alarms()[3].severity, HealthAlarm::Severity::kInfo);
  NodeTelemetry t5 = record(5, 4.0);
  t5.cb.reliable.retransmitsSent = 1500;
  t5.cb.reliable.dataFramesSent = 30000;
  t5.cb.mailboxOverflows = 3;
  feed(t5);
  ASSERT_EQ(monitor.alarms().size(), 5u);
  EXPECT_EQ(monitor.alarms()[4].kind, HealthAlarm::Kind::kRetransmitStorm);
}

TEST_F(MonitorUnit, LossClearPairsWithItsSpike) {
  NodeTelemetry t1 = record(1, 0.0);
  t1.transport.framesReceived = 1000;
  feed(t1);
  NodeTelemetry t2 = record(2, 1.0);
  t2.transport.framesReceived = 1070;
  t2.transport.framesDropped = 30;  // 30% → spike
  feed(t2);
  NodeTelemetry t3 = record(3, 2.0);
  t3.transport.framesReceived = 1170;  // clean interval
  t3.transport.framesDropped = 30;
  feed(t3);
  ASSERT_EQ(monitor.alarms().size(), 2u);
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kLossSpike);
  EXPECT_EQ(monitor.alarms()[1].kind, HealthAlarm::Kind::kLossCleared);
  EXPECT_EQ(monitor.alarms()[1].severity, HealthAlarm::Severity::kInfo);
  EXPECT_EQ(monitor.alarms()[1].node, "unit");
  // The rendered feed carries the severity column.
  const std::string rendered = monitor.renderAlarms();
  EXPECT_NE(rendered.find("WARN"), std::string::npos);
  EXPECT_NE(rendered.find("INFO"), std::string::npos);
  EXPECT_NE(rendered.find("LOSS_CLEARED"), std::string::npos);
}

TEST_F(MonitorUnit, ChannelWindowPinnedAndRetransmitStormAlarms) {
  auto chan = [](std::uint32_t id, std::uint64_t window, std::uint64_t retx) {
    core::CbChannelHealth c;
    c.channelId = id;
    c.className = "crane.state";
    c.outbound = true;
    c.live = true;
    c.qos = net::QosClass::kReliableOrdered;
    c.windowFrames = window;
    c.retransmits = retx;
    return c;
  };
  // t1 → t2: the window is pinned at the cap, but one pinned snapshot is
  // just bursty load — no alarm until it holds across two. The channel
  // retransmit storm (100/s ≥ 20/s default) fires right away.
  NodeTelemetry t1 = record(1, 0.0);
  t1.channels.push_back(chan(7, 512, 0));
  feed(t1);
  NodeTelemetry t2 = record(2, 1.0);
  t2.channels.push_back(chan(7, 512, 100));
  feed(t2);
  ASSERT_EQ(monitor.alarms().size(), 1u);
  EXPECT_EQ(monitor.alarms()[0].kind,
            HealthAlarm::Kind::kChannelRetransmitStorm);
  EXPECT_EQ(monitor.alarms()[0].severity, HealthAlarm::Severity::kWarning);
  EXPECT_NE(monitor.alarms()[0].detail.find("crane.state"), std::string::npos);

  // t3: still pinned — second consecutive snapshot raises the critical
  // window alarm; the storm persists without a fresh edge.
  NodeTelemetry t3 = record(3, 2.0);
  t3.channels.push_back(chan(7, 512, 200));
  feed(t3);
  ASSERT_EQ(monitor.alarms().size(), 2u);
  EXPECT_EQ(monitor.alarms()[1].kind, HealthAlarm::Kind::kChannelWindowPinned);
  EXPECT_EQ(monitor.alarms()[1].severity, HealthAlarm::Severity::kCritical);

  // t4: the subscriber acks (window drains) and retransmits stop — both
  // conditions clear with paired INFO edges.
  NodeTelemetry t4 = record(4, 3.0);
  t4.channels.push_back(chan(7, 3, 205));
  feed(t4);
  ASSERT_EQ(monitor.alarms().size(), 4u);
  EXPECT_EQ(monitor.alarms()[2].kind, HealthAlarm::Kind::kChannelWindowCleared);
  EXPECT_EQ(monitor.alarms()[3].kind,
            HealthAlarm::Kind::kChannelRetransmitCleared);
  EXPECT_EQ(monitor.alarms()[2].severity, HealthAlarm::Severity::kInfo);

  // t5: the channel vanishes (teardown) — its edge state goes with it, so
  // a reappearing pinned channel must again hold two snapshots.
  NodeTelemetry t5 = record(5, 4.0);
  feed(t5);
  NodeTelemetry t6 = record(6, 5.0);
  t6.channels.push_back(chan(7, 512, 205));
  feed(t6);
  NodeTelemetry t7 = record(7, 6.0);
  t7.channels.push_back(chan(7, 512, 205));
  feed(t7);
  ASSERT_EQ(monitor.alarms().size(), 5u);
  EXPECT_EQ(monitor.alarms()[4].kind, HealthAlarm::Kind::kChannelWindowPinned);
}

TEST_F(MonitorUnit, LossSpikeFromTransportFrameCounters) {
  NodeTelemetry t1 = record(1, 0.0);
  t1.transport.framesReceived = 1000;
  feed(t1);
  NodeTelemetry t2 = record(2, 1.0);
  t2.transport.framesReceived = 1070;   // +70
  t2.transport.framesDropped = 30;      // +30 → 30% inbound loss
  feed(t2);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_NEAR(h->lossPct, 30.0, 0.01);
  ASSERT_EQ(monitor.alarms().size(), 1u);
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kLossSpike);
  EXPECT_EQ(monitor.peakLossPct(), h->lossPct);
  EXPECT_EQ(monitor.peakLossNode(), "unit");
}

TEST_F(MonitorUnit, ReliableCounterLossEstimateOnRealSockets) {
  // Real sockets cannot attribute drops: framesDropped stays 0 no matter
  // what the network eats, so frame accounting reads 0% loss. The
  // reliable-layer estimate (retx / (data + retx)) must carry the alarm
  // and the peak-loss annotation instead.
  EXPECT_NEAR(reliableLossEstimatePct(750, 250, 0), 25.0, 1e-9);
  EXPECT_EQ(reliableLossEstimatePct(0, 0, 0), 0.0);

  NodeTelemetry t1 = record(1, 0.0);
  t1.transport.framesReceived = 1000;  // frame accounting sees traffic...
  t1.cb.reliable.dataFramesSent = 1000;
  t1.cb.reliable.retransmitsSent = 10;
  feed(t1);
  NodeTelemetry t2 = record(2, 1.0);
  t2.transport.framesReceived = 2000;  // ...but never a drop
  t2.cb.reliable.dataFramesSent = 1750;   // +750
  t2.cb.reliable.retransmitsSent = 260;   // +250 → 25% estimated loss
  feed(t2);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_NEAR(h->lossPct, 0.0, 1e-9);
  EXPECT_NEAR(h->reliableLossPct, 25.0, 0.01);
  EXPECT_NEAR(h->effectiveLossPct(), 25.0, 0.01);
  ASSERT_FALSE(monitor.alarms().empty());
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kLossSpike);
  EXPECT_NEAR(monitor.peakLossPct(), 25.0, 0.01);
  EXPECT_EQ(monitor.peakLossNode(), "unit");
}

TEST_F(MonitorUnit, StaleAndRestartSequences) {
  feed(record(5, 1.0));
  feed(record(6, 2.0));
  // Reordered near-duplicate: dropped, not applied and not a "restart"
  // (the gap is within plausible reordering).
  feed(record(5, 1.0));
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->staleDropped, 1u);
  EXPECT_EQ(h->last.seq, 6u);
  // Publisher restart: sequence 1 resets the node's history.
  feed(record(1, 0.5));
  h = monitor.node("unit");
  EXPECT_EQ(h->last.seq, 1u);
  EXPECT_EQ(h->snapshotsApplied, 1u);
}

TEST_F(MonitorUnit, RestartDetectedEvenWhenFirstKeyframeWasLost) {
  // A long-lived publisher...
  feed(record(1800, 1800.0));
  // ...restarts, and its literal seq-1 keyframe is lost (best-effort
  // channel). The first keyframe that does arrive is far behind the old
  // sequence: that is a restart, not reordering — the health row must
  // not stay frozen on dead-process counters for 1800 intervals.
  NodeTelemetry t = record(4, 3.0);
  t.cb.updatesSent = 7;
  feed(t);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->last.seq, 4u);
  EXPECT_EQ(h->last.cb.updatesSent, 7u);
  EXPECT_EQ(h->snapshotsApplied, 1u);  // history reset
}

TEST_F(MonitorUnit, BackwardsNodeClockWithAdvancingSeqResetsHistory) {
  NodeTelemetry t1 = record(10, 100.0);
  t1.cb.updatesSent = 5000;
  feed(t1);
  NodeTelemetry t2 = record(11, 101.0);
  t2.cb.updatesSent = 6000;
  feed(t2);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_NEAR(h->updatesPerSec, 1000.0, 1.0);
  // A restart whose seq-reset keyframe was lost can surface as a snapshot
  // whose sequence still advances while the publisher clock went
  // backwards. Rates derived across that pair would divide two different
  // processes' counters by a non-positive dt (the old bug: two
  // independently computed wall-clock deltas let this through as a
  // negative rate). The monitor must treat it as a missed restart.
  NodeTelemetry t3 = record(12, 2.0);
  t3.cb.updatesSent = 50;
  feed(t3);
  h = monitor.node("unit");
  EXPECT_EQ(h->last.seq, 12u);
  EXPECT_EQ(h->last.cb.updatesSent, 50u);
  EXPECT_EQ(h->snapshotsApplied, 1u);  // history reset
  EXPECT_EQ(h->updatesPerSec, 0.0);    // not negative, not garbage
  // Rates resume cleanly from the new process's baseline.
  NodeTelemetry t4 = record(13, 3.0);
  t4.cb.updatesSent = 150;
  feed(t4);
  h = monitor.node("unit");
  EXPECT_NEAR(h->updatesPerSec, 100.0, 1.0);
  EXPECT_GE(h->updatesPerSec, 0.0);
}

TEST_F(MonitorUnit, LatencySpikeAlarmFromHistogramDeltas) {
  constexpr std::size_t kLat = CbHistograms::kDeliveryLatencyIdx;
  const double lowest = CbHistograms::lowestOf(kLat);
  // Cumulative latency histogram with `fast` samples near 5 ms and `slow`
  // samples near 400 ms (default spike threshold is p99 >= 250 ms).
  const auto hist = [&](std::uint64_t fast, std::uint64_t slow) {
    HistogramSnapshot s;
    s.count = fast + slow;
    s.sum = 0.005 * static_cast<double>(fast) + 0.4 * static_cast<double>(slow);
    s.min = fast > 0 ? 0.005 : 0.4;
    s.max = slow > 0 ? 0.4 : 0.005;
    s.buckets[LogHistogram::bucketOf(0.005, lowest)] += fast;
    s.buckets[LogHistogram::bucketOf(0.4, lowest)] += slow;
    return s;
  };

  NodeTelemetry t1 = record(1, 0.0);
  feed(t1);
  // Interval of 5 slow samples: p99 is over threshold but below the
  // 10-sample floor — sparse sampling must not alarm on a handful.
  NodeTelemetry t2 = record(2, 1.0);
  t2.hists[kLat] = hist(0, 5);
  feed(t2);
  EXPECT_TRUE(monitor.alarms().empty());
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->latencySamples, 5u);
  EXPECT_GT(h->latencyP99Ms, 250.0);

  // Interval of 20 more slow samples: now judged, and it spikes.
  NodeTelemetry t3 = record(3, 2.0);
  t3.hists[kLat] = hist(0, 25);
  feed(t3);
  ASSERT_EQ(monitor.alarms().size(), 1u);
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kLatencySpike);
  EXPECT_EQ(monitor.alarms()[0].severity, HealthAlarm::Severity::kWarning);
  EXPECT_NE(monitor.alarms()[0].detail.find("p99"), std::string::npos);

  // The spike persists: edge-triggered, no second alarm.
  NodeTelemetry t4 = record(4, 3.0);
  t4.hists[kLat] = hist(0, 45);
  feed(t4);
  ASSERT_EQ(monitor.alarms().size(), 1u);

  // An empty interval must not clear the alarm (not judged either way)...
  NodeTelemetry t5 = record(5, 4.0);
  t5.hists[kLat] = hist(0, 45);
  feed(t5);
  ASSERT_EQ(monitor.alarms().size(), 1u);

  // ...but a healthy interval of fast samples does, with the paired edge.
  NodeTelemetry t6 = record(6, 5.0);
  t6.hists[kLat] = hist(30, 45);
  feed(t6);
  ASSERT_EQ(monitor.alarms().size(), 2u);
  EXPECT_EQ(monitor.alarms()[1].kind, HealthAlarm::Kind::kLatencyCleared);
  EXPECT_EQ(monitor.alarms()[1].severity, HealthAlarm::Severity::kInfo);
  h = monitor.node("unit");
  EXPECT_LT(h->latencyP99Ms, 250.0);
  EXPECT_EQ(h->latencySamples, 30u);
  // The health table renders the latency column.
  const std::string table = monitor.renderTable();
  EXPECT_NE(table.find("p99ms"), std::string::npos);
}

TEST_F(MonitorUnit, SilentNodeRestartingStillEmitsRecovered) {
  feed(record(5, 0.0));
  monitor.step(10.0);  // default 3×1 s staleness: node goes silent
  ASSERT_EQ(monitor.alarms().size(), 1u);
  EXPECT_EQ(monitor.alarms()[0].kind, HealthAlarm::Kind::kNodeSilent);
  // The node comes back as a *new process* (restart reset): the feed must
  // still pair the SILENT edge with a RECOVERED edge.
  feed(record(1, 10.5));
  ASSERT_EQ(monitor.alarms().size(), 2u);
  EXPECT_EQ(monitor.alarms()[1].kind, HealthAlarm::Kind::kNodeRecovered);
  EXPECT_FALSE(monitor.node("unit")->silent);
}

TEST_F(MonitorUnit, GarbageAndNonBlobRecordsCounted) {
  core::AttributeSet notBlob;
  notBlob.set(kTelemetryAttr, 3.25);
  monitor.reflectAttributeValues(kTelemetryClass, notBlob, 0.0);
  monitor.reflectAttributeValues(kTelemetryClass,
                                 wrap({0xDE, 0xAD, 0xBE, 0xEF}), 0.0);
  EXPECT_EQ(monitor.undecodableDropped(), 2u);
  EXPECT_EQ(monitor.nodeCount(), 0u);
}

TEST_F(MonitorUnit, UndecodableRecordFromKnownNodeLeavesItsRow) {
  NodeTelemetry first = record(1, 0.0);
  first.cb.updatesSent = 10;
  feed(first);
  monitor.step(1.0);
  // The node's next record arrives twice: once truncated, and once with
  // the retired delta flag. Both are dropped whole and counted; neither
  // names a node, so neither refreshes the row or creates one.
  NodeTelemetry second = record(2, 1.0);
  second.cb.updatesSent = 20;
  const std::vector<std::uint8_t> bytes = encodeTelemetry(second);
  const std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  std::vector<std::uint8_t> retiredFlag = bytes;
  retiredFlag[1] = 0x01;
  for (const auto& bad : {truncated, retiredFlag})
    monitor.reflectAttributeValues(kTelemetryClass, wrap(bad), 1.0);
  EXPECT_EQ(monitor.undecodableDropped(), 2u);
  EXPECT_EQ(monitor.nodeCount(), 1u);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->last.seq, 1u);
  EXPECT_EQ(h->last.cb.updatesSent, 10u);
  EXPECT_EQ(h->snapshotsApplied, 1u);
  EXPECT_EQ(h->lastHeardSec, 0.0);
  EXPECT_TRUE(monitor.alarms().empty());
}

/// Staleness and alarms on a lossy 3-node SimNetwork — the ISSUE's soak
/// suite. 25 % loss on every link; one node is then silenced outright and
/// must be flagged, and must recover after the partition heals.
TEST(HealthMonitorSoak, SilentNodeFlaggedAndRecoveredUnderLoss) {
  core::CodCluster::Config ccfg;
  ccfg.link.lossRate = 0.25;
  ccfg.seed = 11;
  core::CodCluster cluster(ccfg);
  auto& cbA = cluster.addComputer("alpha");
  auto& cbB = cluster.addComputer("bravo");
  auto& cbC = cluster.addComputer("charlie");
  TrafficLp traffic("demo.state", 1.0 / 16.0);
  SinkLp sink("demo.state");
  traffic.bind(cbB);
  sink.bind(cbC);
  TelemetryConfig tcfg;
  tcfg.intervalSec = 0.25;
  std::vector<std::unique_ptr<TelemetryPublisher>> pubs;
  for (auto* cb : {&cbA, &cbB, &cbC}) {
    pubs.push_back(std::make_unique<TelemetryPublisher>(tcfg));
    pubs.back()->bind(*cb);
  }
  MonitorConfig mcfg;
  mcfg.expectedIntervalSec = tcfg.intervalSec;
  mcfg.silentAfterIntervals = 6.0;  // loss-tolerant staleness threshold
  HealthMonitor monitor(mcfg);
  monitor.bind(cbA);

  cluster.step(10.0);
  // Despite 25 % loss the monitor tracks all three nodes live.
  ASSERT_EQ(monitor.nodeCount(), 3u);
  for (const std::string& name : monitor.nodeNames()) {
    const NodeHealth* h = monitor.node(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->snapshotsApplied, 5u) << name;
    EXPECT_FALSE(h->silent) << name;
  }
  const std::size_t alarmsBefore = monitor.alarms().size();

  // Silence bravo entirely (partition from both peers).
  net::SimNetwork& net = cluster.network();
  net.setPartitioned(0, 1, true);
  net.setPartitioned(1, 2, true);
  cluster.step(6.0);
  {
    const NodeHealth* b = monitor.node("bravo");
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->silent);
    bool flagged = false;
    for (std::size_t i = alarmsBefore; i < monitor.alarms().size(); ++i) {
      const HealthAlarm& a = monitor.alarms()[i];
      if (a.kind == HealthAlarm::Kind::kNodeSilent && a.node == "bravo")
        flagged = true;
    }
    EXPECT_TRUE(flagged);
  }

  // Heal: rediscovery re-opens the telemetry channel and bravo recovers.
  net.setPartitioned(0, 1, false);
  net.setPartitioned(1, 2, false);
  cluster.step(8.0);
  {
    const NodeHealth* b = monitor.node("bravo");
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->silent);
    bool recovered = false;
    for (const HealthAlarm& a : monitor.alarms())
      if (a.kind == HealthAlarm::Kind::kNodeRecovered && a.node == "bravo")
        recovered = true;
    EXPECT_TRUE(recovered);
  }
}

/// ISSUE acceptance: a HealthMonitor on one node of a 4-node SimNetwork
/// cluster observes every peer's CbStats/TransportStats live, flags a
/// loss spike and a silenced node via alarms.
TEST(HealthMonitorSoak, FourNodeClusterAcceptance) {
  core::CodCluster::Config ccfg;
  ccfg.seed = 23;
  core::CodCluster cluster(ccfg);
  auto& cb0 = cluster.addComputer("n0");
  auto& cb1 = cluster.addComputer("n1");
  auto& cb2 = cluster.addComputer("n2");
  auto& cb3 = cluster.addComputer("n3");
  // Busy mesh: n1 streams state consumed on n2 and n3; n2 streams to n0.
  TrafficLp t1("mesh.a", 1.0 / 16.0), t2("mesh.b", 1.0 / 8.0);
  SinkLp s2("mesh.a"), s3("mesh.a"), s0("mesh.b");
  t1.bind(cb1);
  t2.bind(cb2);
  s2.bind(cb2);
  s3.bind(cb3);
  s0.bind(cb0);
  TelemetryConfig tcfg;
  tcfg.intervalSec = 0.25;
  std::vector<std::unique_ptr<TelemetryPublisher>> pubs;
  for (auto* cb : {&cb0, &cb1, &cb2, &cb3}) {
    pubs.push_back(std::make_unique<TelemetryPublisher>(tcfg));
    pubs.back()->bind(*cb);
  }
  MonitorConfig mcfg;
  mcfg.expectedIntervalSec = tcfg.intervalSec;
  mcfg.silentAfterIntervals = 6.0;
  HealthMonitor monitor(mcfg);
  monitor.bind(cb0);

  // Phase 1 — clean run: every peer's stats are observed live.
  cluster.step(5.0);
  ASSERT_EQ(monitor.nodeCount(), 4u);
  for (const std::string name : {"n0", "n1", "n2", "n3"}) {
    const NodeHealth* h = monitor.node(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->snapshotsApplied, 10u) << name;
    EXPECT_GT(h->last.transport.packetsSent, 0u) << name;
    // Every node moves updates: over channels or (n0, whose only
    // subscriber is the monitor beside it) the local fast path.
    EXPECT_GT(h->last.cb.updatesSent + h->last.cb.updatesLocalFastPath, 0u)
        << name;
    EXPECT_FALSE(h->silent) << name;
  }
  EXPECT_GT(monitor.node("n1")->updatesPerSec, 10.0);
  EXPECT_TRUE(monitor.alarms().empty());

  // Phase 2 — a loss spike towards n3: flagged by the threshold alarm.
  net::SimNetwork& net = cluster.network();
  net::LinkModel lossy = net.defaultLink();
  lossy.lossRate = 0.4;
  net.setLink(1, 3, lossy);
  cluster.step(5.0);
  {
    bool spiked = false;
    for (const HealthAlarm& a : monitor.alarms())
      if (a.kind == HealthAlarm::Kind::kLossSpike && a.node == "n3")
        spiked = true;
    EXPECT_TRUE(spiked);
    EXPECT_GE(monitor.peakLossPct(), 10.0);
  }

  // Phase 3 — n2 goes dark: the silent alarm names it.
  for (net::HostId other : {0u, 1u, 3u}) net.setPartitioned(2, other, true);
  cluster.step(6.0);
  {
    const NodeHealth* h = monitor.node("n2");
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->silent);
    bool flagged = false;
    for (const HealthAlarm& a : monitor.alarms())
      if (a.kind == HealthAlarm::Kind::kNodeSilent && a.node == "n2")
        flagged = true;
    EXPECT_TRUE(flagged);
  }
}

/// A co-located HealthMonitor feeds the exam debrief: alarms become
/// annotations, and the peak-loss note lands when the exam finishes.
TEST(ScenarioAnnotations, ClusterAlarmsEnterTheDebriefStream) {
  sim::ScenarioModule scenario(scenario::Course{});
  HealthMonitor monitor;
  scenario.attachClusterMonitor(&monitor);

  // Craft a loss spike through the monitor's public reflection interface.
  NodeTelemetry t1;
  t1.seq = 1;
  t1.node = "display-1";
  t1.nodeTimeSec = 0.0;
  t1.transport.framesReceived = 100;
  core::AttributeSet a1;
  a1.set(kTelemetryAttr, encodeTelemetry(t1));
  monitor.reflectAttributeValues(kTelemetryClass, a1, 0.0);
  NodeTelemetry t2 = t1;
  t2.seq = 2;
  t2.nodeTimeSec = 1.0;
  t2.transport.framesReceived = 170;
  t2.transport.framesDropped = 30;
  core::AttributeSet a2;
  a2.set(kTelemetryAttr, encodeTelemetry(t2));
  monitor.reflectAttributeValues(kTelemetryClass, a2, 1.0);
  ASSERT_EQ(monitor.alarms().size(), 1u);

  const std::uint64_t revBefore = scenario.exam().revision();
  scenario.step(1.5);
  const auto& annotations = scenario.exam().score().annotations;
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_NE(annotations[0].note.find("LOSS_SPIKE"), std::string::npos);
  EXPECT_NE(annotations[0].note.find("display-1"), std::string::npos);
  // Annotations ride the revision counter into the reliable status stream.
  EXPECT_GT(scenario.exam().revision(), revBefore);
  // Re-stepping must not duplicate the alarm.
  scenario.step(1.6);
  EXPECT_EQ(scenario.exam().score().annotations.size(), 1u);
}

TEST(TelemetryApp, InstructorStationWatchesTheWholeRack) {
  sim::CraneSimulatorApp::Config cfg;
  cfg.displayCount = 2;
  cfg.telemetry.intervalSec = 0.5;
  cfg.telemetryMonitor.expectedIntervalSec = 0.5;
  sim::CraneSimulatorApp app(cfg);
  ASSERT_TRUE(app.waitUntilWired(10.0));
  app.step(4.0);
  HealthMonitor* monitor = app.clusterMonitor();
  ASSERT_NE(monitor, nullptr);
  // 2 displays + sync + dashboard + platform + dynamics + instructor = 7.
  EXPECT_EQ(monitor->nodeCount(), 7u);
  for (const std::string& name : monitor->nodeNames()) {
    const NodeHealth* h = monitor->node(name);
    EXPECT_GT(h->snapshotsApplied, 0u) << name;
    EXPECT_FALSE(h->silent) << name;
  }
  const std::string window = app.instructor().renderClusterText();
  EXPECT_NE(window.find("CLUSTER HEALTH"), std::string::npos);
  EXPECT_NE(window.find("dynamics"), std::string::npos);
  EXPECT_NE(window.find("instructor"), std::string::npos);
}

TEST(FlightDumpPath, NumbersDumpsBeforeTheLastExtension) {
  using M = HealthMonitor;
  // Dump 0 is the configured path verbatim; later incidents insert ".N"
  // before the last extension so extension-globbing tools see them all.
  EXPECT_EQ(M::flightDumpPath("x.trace.json", 0), "x.trace.json");
  EXPECT_EQ(M::flightDumpPath("x.trace.json", 1), "x.trace.2.json");
  EXPECT_EQ(M::flightDumpPath("x.trace.json", 9), "x.trace.10.json");
  // No extension: append. A dot only in a directory name is not an
  // extension.
  EXPECT_EQ(M::flightDumpPath("dump", 1), "dump.2");
  EXPECT_EQ(M::flightDumpPath("out.d/dump", 1), "out.d/dump.2");
  EXPECT_EQ(M::flightDumpPath("out.d/dump.json", 2), "out.d/dump.3.json");
}

TEST_F(MonitorUnit, RenderTableGoldenAdaptsNodeColumnToLongNames) {
  feed(record(7, 0.0));
  NodeTelemetry other = record(3, 0.0);
  other.node = "zz-instructor-station-backup";
  other.addr = {2, 1};
  monitor.reflectAttributeValues(kTelemetryClass, wrap(encodeTelemetry(other)),
                                 0.0);
  const std::string table = monitor.renderTable();
  // Adaptive width invariant: the 28-char name widens the node column for
  // EVERY line — nothing shears out of alignment.
  std::size_t lineLen = 0;
  std::size_t start = 0;
  while (start < table.size()) {
    const std::size_t end = table.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    if (lineLen == 0) lineLen = end - start;
    EXPECT_EQ(end - start, lineLen) << table;
    start = end + 1;
  }
  // The exact render, golden: single-snapshot nodes, all rates 0, no hot
  // column (nobody runs the phase profiler).
  const std::string golden =
      "+-------------------------------- CLUSTER HEALTH ---------------"
      "------------------+\n"
      "| node                         seq age upd/s loss% rloss% retx/s"
      " B/dg p99ms state |\n"
      "| unit                           7 0.0   0.0   0.0    0.0    0.0"
      "    0   0.0 OK    |\n"
      "| zz-instructor-station-backup   3 0.0   0.0   0.0    0.0    0.0"
      "    0   0.0 OK    |\n"
      "+---------------------------------------------------------------"
      "------------------+\n";
  EXPECT_EQ(table, golden);
}

TEST_F(MonitorUnit, PhaseProfileDerivesHotPhaseAndPhaseP99) {
  NodeTelemetry t1 = record(1, 0.0);
  t1.phaseProfiling = true;
  feed(t1);
  const NodeHealth* h = monitor.node("unit");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hotPhase, -1);  // one snapshot: no interval to judge yet
  // No interval judged anywhere yet: the hot column stays hidden so a
  // profiler-free cluster's table is unchanged.
  EXPECT_EQ(monitor.renderTable().find("hot"), std::string::npos);

  // Interval work: route dominates by SUMMED time (1000 ticks of 2 ms),
  // flush holds the single slowest sample (one 0.5 s outlier). The hot
  // phase must be route — summed duration, not p99, crowns it.
  NodeTelemetry t2 = record(2, 1.0);
  t2.phaseProfiling = true;
  auto& route = t2.phases[static_cast<std::size_t>(TickPhase::kRoute)];
  route.count = 1000;
  route.sum = 2.0;
  route.min = 0.002;
  route.max = 0.002;
  route.buckets[LogHistogram::bucketOf(0.002, TickPhaseHistograms::kLowest)] =
      1000;
  auto& flush = t2.phases[static_cast<std::size_t>(TickPhase::kFlush)];
  flush.count = 1;
  flush.sum = 0.5;
  flush.min = 0.5;
  flush.max = 0.5;
  flush.buckets[LogHistogram::bucketOf(0.5, TickPhaseHistograms::kLowest)] = 1;
  feed(t2);

  h = monitor.node("unit");
  EXPECT_EQ(h->hotPhase, static_cast<int>(TickPhase::kRoute));
  EXPECT_GT(h->phaseP99Ms[static_cast<std::size_t>(TickPhase::kRoute)],
            0.0);
  EXPECT_GT(h->phaseP99Ms[static_cast<std::size_t>(TickPhase::kFlush)],
            100.0);  // the 0.5 s outlier is still visible in its own p99
  EXPECT_EQ(h->phaseP99Ms[static_cast<std::size_t>(TickPhase::kTimers)],
            0.0);  // empty interval: not judged
  // The health table shows the hot column with the phase's short name.
  const std::string table = monitor.renderTable();
  EXPECT_NE(table.find("hot"), std::string::npos);
  EXPECT_NE(table.find("route"), std::string::npos);
}

TEST(FlightRecorder, CritDumpsAreRateLimitedAndNumbered) {
  TraceRecorder rec(256);
  const std::string base = ::testing::TempDir() + "cod-rate.trace.json";
  const std::string second = ::testing::TempDir() + "cod-rate.trace.2.json";
  std::remove(base.c_str());
  std::remove(second.c_str());

  // kFlightDumpMinIntervalSec is 5 s.
  HealthMonitor monitor;
  monitor.attachFlightRecorder(&rec, base);

  const auto snap = [](std::uint64_t seq, double timeSec) {
    NodeTelemetry t;
    t.seq = seq;
    t.node = "unit";
    t.addr = {1, 1};
    t.nodeTimeSec = timeSec;
    return t;
  };
  const auto feed = [&](const NodeTelemetry& t) {
    core::AttributeSet a;
    a.set(kTelemetryAttr, encodeTelemetry(t));
    monitor.reflectAttributeValues(kTelemetryClass, a, t.nodeTimeSec);
  };

  // CRIT #1 (node silent at t=10): dumps to the base path.
  feed(snap(1, 0.0));
  monitor.step(10.0);
  EXPECT_EQ(monitor.flightRecorderDumps(), 1u);
  EXPECT_TRUE(std::ifstream(base).good());

  // The node flaps: recovers, then goes silent again at t=14 — only 4 s
  // after the last dump. The alarm is raised but the dump is suppressed:
  // a flapping CRIT must not storm the monitor with synchronous I/O.
  feed(snap(2, 10.5));
  monitor.step(14.0);
  const auto countSilent = [&] {
    std::size_t n = 0;
    for (const HealthAlarm& a : monitor.alarms())
      n += a.kind == HealthAlarm::Kind::kNodeSilent ? 1 : 0;
    return n;
  };
  EXPECT_EQ(countSilent(), 2u);
  EXPECT_EQ(monitor.flightRecorderDumps(), 1u);
  EXPECT_FALSE(std::ifstream(second).good());

  // Third CRIT at t=20, 10 s after the last dump: past the limit, and it
  // lands in the NUMBERED file so incident #1's evidence survives.
  feed(snap(3, 14.2));
  monitor.step(20.0);
  EXPECT_EQ(countSilent(), 3u);
  EXPECT_EQ(monitor.flightRecorderDumps(), 2u);
  EXPECT_TRUE(std::ifstream(second).good());
  std::remove(base.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace cod::telemetry
