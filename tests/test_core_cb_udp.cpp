// The CB protocol over real UDP sockets (the deployment transport): the
// identical state machines that run on SimNetwork must converge on the
// loopback interface with wall-clock ticking.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/cb.hpp"
#include "net/udp.hpp"

namespace cod::core {
namespace {

net::UdpConfig testConfig() {
  net::UdpConfig cfg;
  cfg.portsPerHost = 4;
  cfg.maxHosts = 4;
  // Kernel-reserved (bind port 0, read back): fixed bases collide when
  // test lanes run in parallel on one machine.
  cfg.basePort = net::pickEphemeralBasePort(
      static_cast<std::uint16_t>(cfg.portsPerHost * cfg.maxHosts));
  return cfg;
}

double wallClock() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class RecordingLp : public LogicalProcess {
 public:
  RecordingLp() : LogicalProcess("lp") {}
  std::vector<double> values;
  void reflectAttributeValues(const std::string&, const AttributeSet& a,
                              double) override {
    values.push_back(a.getDouble("v"));
  }
};

TEST(CbOverUdp, DiscoveryAndUpdatesOnLoopback) {
  const net::UdpConfig cfg = testConfig();
  CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.01;  // fast discovery for a quick test
  CommunicationBackbone cbA(
      "udp-a", std::make_unique<net::UdpTransport>(cfg, 0, 1), cbCfg);
  CommunicationBackbone cbB(
      "udp-b", std::make_unique<net::UdpTransport>(cfg, 1, 1), cbCfg);

  RecordingLp pub, sub;
  cbA.attach(pub);
  const auto h = cbA.publishObjectClass(pub, "udp.demo");
  cbB.attach(sub);
  const auto sh = cbB.subscribeObjectClass(sub, "udp.demo");

  // Tick both CBs with the wall clock until the channel is live.
  const double deadline = wallClock() + 5.0;
  while (!cbB.connected(sh) && wallClock() < deadline) {
    cbA.tick(wallClock());
    cbB.tick(wallClock());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cbB.connected(sh)) << "discovery did not converge over UDP";
  EXPECT_EQ(cbA.channelCount(h), 1u);

  // Updates flow end to end (loopback is reliable in practice, but allow
  // for scheduling: require at least most of them).
  for (int i = 0; i < 50; ++i) {
    AttributeSet a;
    a.set("v", static_cast<double>(i));
    cbA.updateAttributeValues(h, a, wallClock());
    cbA.tick(wallClock());
    cbB.tick(wallClock());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double drainDeadline = wallClock() + 1.0;
  while (sub.values.size() < 50 && wallClock() < drainDeadline) {
    cbB.tick(wallClock());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sub.values.size(), 45u);
  // Sequence-number dedup guarantees strictly increasing delivery.
  for (std::size_t i = 1; i < sub.values.size(); ++i)
    EXPECT_LT(sub.values[i - 1], sub.values[i]);
}

TEST(CbOverUdp, ChannelTimeoutAndRediscoveryOnLoopback) {
  // The soak harness's restart seam, isolated: a publisher goes silent
  // past the channel timeout (here by simply not being ticked — its
  // process "hangs"), the subscriber tears the channel down and resumes
  // discovery, and when the publisher returns the pair re-handshakes a
  // fresh channel and data flows again.
  const net::UdpConfig cfg = testConfig();
  CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.01;
  // Three keep-alive intervals (kHeartbeatIntervalSec is 0.5 s), as the
  // soak lanes run.
  cbCfg.channelTimeoutSec = 1.5;
  CommunicationBackbone cbPub(
      "udp-pub", std::make_unique<net::UdpTransport>(cfg, 0, 1), cbCfg);
  CommunicationBackbone cbSub(
      "udp-sub", std::make_unique<net::UdpTransport>(cfg, 1, 1), cbCfg);
  RecordingLp pub, sub;
  cbPub.attach(pub);
  const auto h = cbPub.publishObjectClass(pub, "udp.timeout");
  cbSub.attach(sub);
  const auto sh = cbSub.subscribeObjectClass(sub, "udp.timeout");

  const auto tickBoth = [&](double untilSec, const auto& done) {
    while (wallClock() < untilSec) {
      cbPub.tick(wallClock());
      cbSub.tick(wallClock());
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  ASSERT_TRUE(tickBoth(wallClock() + 5.0, [&] { return cbSub.connected(sh); }));
  ASSERT_EQ(cbPub.channelCount(h), 1u);

  // The publisher hangs: only the subscriber keeps ticking. Past the
  // heartbeat timeout the channel must be gone and counted.
  {
    const double deadline = wallClock() + 5.0;
    while (wallClock() < deadline && cbSub.connected(sh)) {
      cbSub.tick(wallClock());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_FALSE(cbSub.connected(sh));
  EXPECT_GE(cbSub.stats().channelsTimedOut, 1u);

  // The publisher returns: the subscription's resumed broadcasts
  // re-handshake a fresh channel without any restart. The publisher may
  // briefly carry the stale channel alongside the new one (buffered
  // subscriber keep-alives refresh it on the first resumed tick), so wait
  // for it to ride out its own timeout too.
  ASSERT_TRUE(tickBoth(wallClock() + 5.0, [&] {
    return cbSub.connected(sh) && cbPub.channelCount(h) == 1;
  }));

  // Updates flow on the rebuilt channel.
  const std::size_t before = sub.values.size();
  AttributeSet a;
  a.set("v", 1.0);
  cbPub.updateAttributeValues(h, a, wallClock());
  ASSERT_TRUE(tickBoth(wallClock() + 5.0,
                       [&] { return sub.values.size() > before; }));
}

TEST(CbOverUdp, DynamicJoinOnLoopback) {
  const net::UdpConfig cfg = testConfig();
  CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.01;
  CommunicationBackbone cbPub(
      "udp-pub", std::make_unique<net::UdpTransport>(cfg, 2, 1), cbCfg);
  RecordingLp pub;
  cbPub.attach(pub);
  const auto h = cbPub.publishObjectClass(pub, "udp.join");

  // The publisher runs alone for a while (it keeps listening, §2.3).
  for (int i = 0; i < 20; ++i) {
    cbPub.tick(wallClock());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A subscriber joins late on another "host".
  CommunicationBackbone cbSub(
      "udp-sub", std::make_unique<net::UdpTransport>(cfg, 3, 1), cbCfg);
  RecordingLp sub;
  cbSub.attach(sub);
  const auto sh = cbSub.subscribeObjectClass(sub, "udp.join");
  const double deadline = wallClock() + 5.0;
  while (!cbSub.connected(sh) && wallClock() < deadline) {
    cbPub.tick(wallClock());
    cbSub.tick(wallClock());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cbSub.connected(sh));
  EXPECT_EQ(cbPub.channelCount(h), 1u);
}

}  // namespace
}  // namespace cod::core
