// Flow-control and backpressure tests of the CB: the per-channel window
// split for a lagging subscriber and its re-merge after recovery, best-effort thinning via setPeerSendFactor (with the
// control-plane exemption), the adaptive mid-tick flush, the
// BackpressureGovernor's alarm-driven thin/recover state machine — and the
// headline guarantee that arming every flow feature without tripping any
// threshold is byte-identical on the wire to a build with them off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "net/simnet.hpp"
#include "net/transport.hpp"
#include "telemetry/backpressure.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/node_telemetry.hpp"

namespace cod::core {
namespace {

class QosPub : public LogicalProcess {
 public:
  QosPub(std::string cls, net::QosClass qos)
      : LogicalProcess("pub"), cls_(std::move(cls)), qos_(qos) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle = cb.publishObjectClass(*this, cls_, qos_);
  }
  void send(double value, double ts, std::size_t padBytes = 0) {
    AttributeSet a;
    a.set("v", value);
    if (padBytes > 0)
      a.set("pad", std::vector<std::uint8_t>(padBytes, 0x5A));
    backbone()->updateAttributeValues(handle, a, ts);
  }
  PublicationHandle handle = kInvalidHandle;

 private:
  std::string cls_;
  net::QosClass qos_;
};

class QosSub : public LogicalProcess {
 public:
  QosSub(std::string cls, net::QosClass qos)
      : LogicalProcess("sub"), cls_(std::move(cls)), qos_(qos) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle = cb.subscribeObjectClass(*this, cls_, qos_);
  }
  void reflectAttributeValues(const std::string&, const AttributeSet& attrs,
                              double) override {
    values.push_back(attrs.getDouble("v"));
  }
  SubscriptionHandle handle = kInvalidHandle;
  std::vector<double> values;

 private:
  std::string cls_;
  net::QosClass qos_;
};

// ---- per-channel window split -------------------------------------------

TEST(CbFlow, LaggardGetsPrivateWindowAndRemergesAfterRecovery) {
  CodCluster::Config cfg;
  cfg.cb.reliable.perChannelWindowSplit = true;
  cfg.cb.reliable.splitLagFrames = 8;
  cfg.cb.reliable.splitSustainSec = 0.1;
  cfg.cb.reliable.mergeSustainSec = 0.2;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  auto& cbC = cluster.addComputer("c");
  QosPub pub("score", net::QosClass::kReliableOrdered);
  pub.bind(cbA);
  QosSub healthy("score", net::QosClass::kReliableOrdered);
  healthy.bind(cbB);
  QosSub laggard("score", net::QosClass::kReliableOrdered);
  laggard.bind(cbC);
  ASSERT_TRUE(cluster.runUntil(
      [&] {
        return cbB.connected(healthy.handle) && cbC.connected(laggard.handle);
      },
      10.0));

  // Blackout a↔c (shorter than the 3 s channel timeout): c's cumulative
  // ack freezes while the stream runs on, so its lag crosses
  // splitLagFrames and sustains — the shared window splits.
  net::LinkModel dead;
  dead.lossRate = 1.0;
  cluster.network().setLink(0, 2, dead);
  for (int i = 0; i < 50; ++i) {
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  EXPECT_GE(cbA.stats().reliable.windowSplits, 1u);
  EXPECT_EQ(cbA.stats().reliable.windowMerges, 0u);

  // Heal: c NACK-recovers everything from the private window, catches
  // up, stays caught up past mergeSustainSec — and re-merges.
  cluster.network().setLink(0, 2, net::LinkModel{});
  for (int i = 50; i < 80; ++i) {
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  ASSERT_TRUE(cluster.runUntil(
      [&] { return cbA.stats().reliable.windowMerges >= 1u; },
      cluster.now() + 10.0));
  cluster.runUntil(
      [&] { return healthy.values.size() >= 80 && laggard.values.size() >= 80; },
      cluster.now() + 10.0);

  // The split spared neither subscriber a single frame: both streams are
  // complete and in order, including everything published mid-blackout.
  ASSERT_EQ(healthy.values.size(), 80u);
  ASSERT_EQ(laggard.values.size(), 80u);
  for (int i = 0; i < 80; ++i) {
    EXPECT_DOUBLE_EQ(healthy.values[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(laggard.values[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(cbC.stats().reliable.gapsAbandoned, 0u);
}

// ---- best-effort thinning ------------------------------------------------

TEST(CbFlow, PeerSendFactorThinsBestEffortOnlyAndRestores) {
  CodCluster cluster{CodCluster::Config{}};
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub be("be.x", net::QosClass::kBestEffort);
  be.bind(cbA);
  QosPub rel("rel.x", net::QosClass::kReliableOrdered);
  rel.bind(cbA);
  QosSub beSub("be.x", net::QosClass::kBestEffort);
  beSub.bind(cbB);
  QosSub relSub("rel.x", net::QosClass::kReliableOrdered);
  relSub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil(
      [&] {
        return cbB.connected(beSub.handle) && cbB.connected(relSub.handle);
      },
      10.0));

  cbA.setPeerSendFactor(cbB.address(), 0.25);
  for (int i = 0; i < 200; ++i) {
    be.send(i, cluster.now());
    rel.send(i, cluster.now());
    cluster.step(0.005);
  }
  cluster.runUntil([&] { return relSub.values.size() >= 200; },
                   cluster.now() + 10.0);
  cluster.step(0.2);  // let the last best-effort datagrams land
  // Reliable: never thinned — ordering contract intact.
  ASSERT_EQ(relSub.values.size(), 200u);
  // Best effort at factor 0.25 on a lossless LAN: exactly every 4th
  // update leaves (the thin-debt accumulator skips 3 in 4, evenly).
  EXPECT_EQ(beSub.values.size(), 50u);
  EXPECT_EQ(cbA.stats().updatesThinned, 150u);

  // Factor 1 restores full rate for subsequent updates.
  cbA.setPeerSendFactor(cbB.address(), 1.0);
  for (int i = 200; i < 240; ++i) {
    be.send(i, cluster.now());
    cluster.step(0.005);
  }
  cluster.step(0.1);
  EXPECT_EQ(beSub.values.size(), 90u);
  EXPECT_EQ(cbA.stats().updatesThinned, 150u);
}

TEST(CbFlow, ThinningExemptPublicationKeepsFullRate) {
  // The exemption exists for control-plane streams (telemetry itself):
  // thinning the feed that closes the backpressure loop can phase-lock
  // against the keyframe cadence and blind the monitor it reports to.
  CodCluster cluster{CodCluster::Config{}};
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub be("be.x", net::QosClass::kBestEffort);
  be.bind(cbA);
  QosSub beSub("be.x", net::QosClass::kBestEffort);
  beSub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(beSub.handle); },
                               10.0));
  cbA.setPublicationThinningExempt(be.handle, true);
  cbA.setPeerSendFactor(cbB.address(), 0.25);
  for (int i = 0; i < 100; ++i) {
    be.send(i, cluster.now());
    cluster.step(0.005);
  }
  cluster.step(0.1);
  EXPECT_EQ(beSub.values.size(), 100u);
  EXPECT_EQ(cbA.stats().updatesThinned, 0u);
  EXPECT_THROW(cbA.setPublicationThinningExempt(9999, true),
               std::invalid_argument);
}

// ---- adaptive mid-tick flush --------------------------------------------

TEST(CbFlow, AdaptiveMidTickFlushDrainsHeavyTicks) {
  CodCluster::Config cfg;
  cfg.cb.batch.tickFlushByteBudget = 600;  // well under one burst's bytes
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("burst.x", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("burst.x", net::QosClass::kBestEffort);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               10.0));
  // A whole burst lands inside one tick: without a budget it would pool
  // until the end-of-tick flush and leave as a single back-to-back train.
  for (int i = 0; i < 20; ++i) pub.send(i, cluster.now(), /*padBytes=*/100);
  EXPECT_GT(cbA.stats().batch.adaptiveFlushes, 0u);
  cluster.step(0.5);
  // Nothing thinned, nothing lost: the budget changes timing, not content.
  EXPECT_EQ(sub.values.size(), 20u);
  for (std::size_t i = 1; i < sub.values.size(); ++i)
    EXPECT_LT(sub.values[i - 1], sub.values[i]);
}

// ---- the governor's alarm → send-rate state machine ----------------------

/// MonitorUnit idiom (test_telemetry.cpp): feed the monitor crafted
/// telemetry records directly, then step the governor by hand at chosen
/// clock points — deterministic coverage of thin steps, the floor, the
/// recovery hold and the stepped recovery.
class GovernorUnit : public ::testing::Test {
 protected:
  GovernorUnit() : cluster{CodCluster::Config{}} {
    cb = &cluster.addComputer("local");
    gov.emplace(monitor, telemetry::BackpressureConfig{
                             /*minSendFactor=*/0.4, /*thinStep=*/0.5,
                             /*recoverHoldSec=*/2.0, /*recoverStep=*/2.0,
                             /*recoverIntervalSec=*/0.5});
    gov->bind(*cb);
  }

  telemetry::NodeTelemetry record(const std::string& node, std::uint64_t seq,
                                  double timeSec) {
    telemetry::NodeTelemetry t;
    t.seq = seq;
    t.node = node;
    t.addr = {1, 1};
    t.nodeTimeSec = timeSec;
    return t;
  }

  void feed(const telemetry::NodeTelemetry& t) {
    AttributeSet a;
    a.set(telemetry::kTelemetryAttr, telemetry::encodeTelemetry(t));
    monitor.reflectAttributeValues(telemetry::kTelemetryClass, a,
                                   t.nodeTimeSec);
  }

  CodCluster cluster;
  CommunicationBackbone* cb = nullptr;
  telemetry::HealthMonitor monitor;
  std::optional<telemetry::BackpressureGovernor> gov;
};

TEST_F(GovernorUnit, ThinsOnAlarmOnsetsAndRecoversWithHysteresis) {
  feed(record("peer", 1, 0.0));
  gov->step(0.5);
  EXPECT_EQ(gov->peer("peer"), nullptr);  // healthy: never touched

  // Onset 1: mailbox overflow → one thin step.
  telemetry::NodeTelemetry t2 = record("peer", 2, 1.0);
  t2.cb.mailboxOverflows = 3;
  feed(t2);
  gov->step(1.0);
  ASSERT_NE(gov->peer("peer"), nullptr);
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.5);
  EXPECT_EQ(gov->thinSteps(), 1u);

  // Onset 2 (a different trigger kind): floored at minSendFactor, and the
  // overflow's falling edge alone must NOT start recovery — the storm is
  // still active.
  telemetry::NodeTelemetry t3 = record("peer", 3, 2.0);
  t3.cb.mailboxOverflows = 3;  // no growth: overflow clears
  t3.cb.reliable.retransmitsSent = 500;  // storm onset
  t3.cb.reliable.dataFramesSent = 10000;
  feed(t3);
  gov->step(2.0);
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.4);  // 0.25 floored at 0.4
  EXPECT_EQ(gov->thinSteps(), 2u);
  gov->step(4.5);  // storm still raised: held down, no recovery
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.4);
  EXPECT_EQ(gov->recoverSteps(), 0u);

  // The storm subsides (falling edge) — the hysteresis clock starts at
  // the LAST clear, and recovery is stepped, not a snap back to 1.
  telemetry::NodeTelemetry t4 = record("peer", 4, 3.0);
  t4.cb.mailboxOverflows = 3;
  t4.cb.reliable.retransmitsSent = 500;  // no growth: storm clears
  t4.cb.reliable.dataFramesSent = 20000;
  feed(t4);
  gov->step(5.0);                          // cleared here
  EXPECT_EQ(gov->recoverSteps(), 0u);
  gov->step(6.5);                          // 1.5 < recoverHoldSec
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.4);
  gov->step(7.1);                          // past the hold: first step
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.8);
  EXPECT_EQ(gov->recoverSteps(), 1u);
  gov->step(7.3);                          // inside recoverIntervalSec
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 0.8);
  gov->step(7.7);                          // second step, capped at 1
  EXPECT_DOUBLE_EQ(gov->peer("peer")->factor, 1.0);
  EXPECT_EQ(gov->recoverSteps(), 2u);
  gov->step(8.5);                          // fully recovered: stable
  EXPECT_EQ(gov->recoverSteps(), 2u);
}

TEST_F(GovernorUnit, NeverThinsTowardItself) {
  // Alarms about the governor's own node (the monitor watches everyone,
  // itself included) must not throttle its own egress.
  telemetry::NodeTelemetry t1 = record("local", 1, 0.0);
  feed(t1);
  telemetry::NodeTelemetry t2 = record("local", 2, 1.0);
  t2.cb.mailboxOverflows = 5;
  feed(t2);
  gov->step(1.0);
  EXPECT_EQ(gov->peer("local"), nullptr);
  EXPECT_EQ(gov->thinSteps(), 0u);
}

// ---- the wire-identity guarantee ----------------------------------------

/// Journal every outbound datagram so two runs compare byte-for-byte
/// (the test_core_cb_wire.cpp idiom).
class TapTransport final : public net::Transport {
 public:
  TapTransport(std::unique_ptr<net::Transport> inner,
               std::vector<std::vector<std::uint8_t>>* log)
      : inner_(std::move(inner)), log_(log) {}

  net::NodeAddr localAddress() const override {
    return inner_->localAddress();
  }
  void send(const net::NodeAddr& dst,
            std::span<const std::uint8_t> bytes) override {
    journal(0, dst.host, dst.port, bytes);
    inner_->send(dst, bytes);
  }
  void broadcast(std::uint16_t port,
                 std::span<const std::uint8_t> bytes) override {
    journal(1, 0, port, bytes);
    inner_->broadcast(port, bytes);
  }
  std::optional<net::Datagram> receive() override { return inner_->receive(); }
  const net::TransportStats* stats() const override { return inner_->stats(); }

 private:
  void journal(std::uint8_t kind, net::HostId host, std::uint16_t port,
               std::span<const std::uint8_t> bytes) {
    std::vector<std::uint8_t> entry{kind,
                                    static_cast<std::uint8_t>(host & 0xFF),
                                    static_cast<std::uint8_t>(port & 0xFF)};
    entry.insert(entry.end(), bytes.begin(), bytes.end());
    log_->push_back(std::move(entry));
  }

  std::unique_ptr<net::Transport> inner_;
  std::vector<std::vector<std::uint8_t>>* log_;
};

/// Drive a lossy two-node mesh (reliable + best effort, both directions)
/// and journal every datagram. `armed` switches every flow-control
/// feature on with thresholds no 4-second run can trip.
std::vector<std::vector<std::uint8_t>> runTapped(bool armed) {
  net::SimNetwork net(/*seed=*/17);
  net::LinkModel lossy = net.defaultLink();
  lossy.lossRate = 0.15;  // loss exercises NACK/retransmit/dup-report paths
  net.setDefaultLink(lossy);
  std::vector<std::vector<std::uint8_t>> log;
  const net::HostId h0 = net.addHost("alpha");
  const net::HostId h1 = net.addHost("bravo");
  CommunicationBackbone::Config cfg;
  if (armed) {
    cfg.reliable.sendWindowBytes = 1u << 20;  // never filled
    cfg.reliable.perChannelWindowSplit = true;
    cfg.reliable.splitLagFrames = 1u << 20;  // never lagged that far
    cfg.batch.tickFlushByteBudget = 1u << 20;  // never crossed in a tick
  }
  CommunicationBackbone cbA(
      "alpha", std::make_unique<TapTransport>(net.bind(h0, 1), &log), cfg);
  CommunicationBackbone cbB(
      "bravo", std::make_unique<TapTransport>(net.bind(h1, 1), &log), cfg);

  QosPub pa("flow.rel", net::QosClass::kReliableOrdered);
  pa.bind(cbA);
  QosPub pb("flow.be", net::QosClass::kBestEffort);
  pb.bind(cbB);
  QosSub sb("flow.rel", net::QosClass::kReliableOrdered);
  sb.bind(cbB);
  QosSub sa("flow.be", net::QosClass::kBestEffort);
  sa.bind(cbA);

  int i = 0;
  for (double t = 0.0; t < 4.0; t += 0.005) {
    net.advance(0.005);
    if (++i % 4 == 0) {
      pa.send(i, t);
      pb.send(-i, t);
    }
    cbA.tick(net.now());
    cbB.tick(net.now());
  }
  return log;
}

TEST(CbFlow, ArmedButIdleFlowMachineryIsByteIdenticalToOff) {
  const auto off = runTapped(false);
  ASSERT_FALSE(off.empty());
  const auto armed = runTapped(true);
  ASSERT_EQ(off.size(), armed.size());
  for (std::size_t i = 0; i < off.size(); ++i)
    ASSERT_EQ(off[i], armed[i]) << "datagram " << i;
}

}  // namespace
}  // namespace cod::core
