// Soak tests of kReliableOrdered virtual channels over the simulated LAN:
// zero-gap, in-order delivery at 25–55% loss with jitter-induced
// reordering, survival of loss bursts longer than the heartbeat interval,
// teardown/rediscovery when a burst exceeds the channel timeout, and the
// bounded-window degradation path.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

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
  void send(double value, double ts) {
    AttributeSet a;
    a.set("v", value);
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
                              double timestamp) override {
    values.push_back(attrs.getDouble("v"));
    timestamps.push_back(timestamp);
  }
  SubscriptionHandle handle = kInvalidHandle;
  std::vector<double> values;
  std::vector<double> timestamps;

 private:
  std::string cls_;
  net::QosClass qos_;
};

/// Publish `count` updates one per `spacing` seconds, then drain until the
/// subscriber has `expect` values or `horizon` elapses.
void streamAndDrain(CodCluster& cluster, QosPub& pub, QosSub& sub, int count,
                    double spacing, std::size_t expect, double horizon) {
  for (int i = 0; i < count; ++i) {
    pub.send(i, cluster.now());
    cluster.step(spacing);
  }
  cluster.runUntil([&] { return sub.values.size() >= expect; },
                   cluster.now() + horizon);
}

void expectZeroGapInOrder(const QosSub& sub, int count) {
  ASSERT_EQ(sub.values.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    ASSERT_DOUBLE_EQ(sub.values[static_cast<std::size_t>(i)], i)
        << "gap or reorder at index " << i;
}

TEST(CbReliable, ZeroGapInOrderAt25PercentLossWithJitter) {
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.25;
  cfg.link.jitterSec = 500e-6;  // > latency: surviving packets reorder
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 10.0));

  constexpr int kCount = 300;
  streamAndDrain(cluster, pub, sub, kCount, 0.01, kCount, 20.0);
  expectZeroGapInOrder(sub, kCount);
  // The guarantee was earned, not lucky: losses were healed.
  EXPECT_GT(cbA.stats().reliable.retransmitsSent, 0u);
  EXPECT_GT(cbB.stats().reliable.nacksSent, 0u);
  EXPECT_GT(cbB.stats().reliable.gapsHealed, 0u);
  EXPECT_EQ(cbB.stats().reliable.gapsAbandoned, 0u);
}

TEST(CbReliable, ZeroGapInOrderAt55PercentLoss) {
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.55;  // the exemplar ReliableOrderTest's loss rate
  cfg.link.jitterSec = 300e-6;
  cfg.seed = 5;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 30.0));

  constexpr int kCount = 150;
  streamAndDrain(cluster, pub, sub, kCount, 0.01, kCount, 60.0);
  expectZeroGapInOrder(sub, kCount);
  EXPECT_EQ(cbB.stats().reliable.gapsAbandoned, 0u);
}

TEST(CbReliable, BurstPerTickBatchesHealUnderLoss) {
  // Three updates per tick ride one container datagram, so a drop now
  // costs a whole batch at once — the reliable layer must heal these
  // coarser losses just as it healed single frames.
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.25;
  cfg.link.jitterSec = 400e-6;
  cfg.seed = 9;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kReliableOrdered);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 10.0));

  constexpr int kBursts = 100;
  for (int i = 0; i < kBursts; ++i) {
    for (int j = 0; j < 3; ++j) pub.send(3 * i + j, cluster.now());
    cluster.step(0.01);
  }
  cluster.runUntil(
      [&] { return sub.values.size() >= static_cast<std::size_t>(3 * kBursts); },
      cluster.now() + 20.0);
  expectZeroGapInOrder(sub, 3 * kBursts);
  EXPECT_EQ(cbB.stats().reliable.gapsAbandoned, 0u);
  // The coalescer actually engaged (multi-frame containers went out).
  EXPECT_GT(cbA.stats().batch.datagramsCoalesced, 0u);
  EXPECT_GT(cbA.stats().batch.framesCoalesced,
            cbA.stats().batch.datagramsCoalesced);
}

TEST(CbReliable, BestEffortChannelOnSameLinkStillDrops) {
  // Contrast case: same lossy LAN, best-effort channel — gaps are expected
  // (newest-wins) while sequence order is still monotonic.
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.25;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("view", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("view", net::QosClass::kBestEffort);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 10.0));
  for (int i = 0; i < 200; ++i) {
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  cluster.step(0.5);
  EXPECT_LT(sub.values.size(), 200u);  // loss is visible without QoS
  EXPECT_GT(sub.values.size(), 80u);
  for (std::size_t i = 1; i < sub.values.size(); ++i)
    EXPECT_LT(sub.values[i - 1], sub.values[i]);
  EXPECT_EQ(cbA.stats().reliable.retransmitsSent, 0u);  // no reliable cost
}

TEST(CbReliable, PublisherQosFloorUpgradesBestEffortSubscriber) {
  // The publication mandates reliability; the subscriber asks for best
  // effort and must still receive a lossless, ordered stream.
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.25;
  cfg.link.jitterSec = 300e-6;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kReliableOrdered);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kBestEffort);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 10.0));
  // Let the upgrade handshake (CHANNEL_ACK, possibly re-sent) settle so
  // the stream starts under the reliable regime.
  cluster.step(1.0);

  constexpr int kCount = 200;
  streamAndDrain(cluster, pub, sub, kCount, 0.01, kCount, 20.0);
  expectZeroGapInOrder(sub, kCount);
}

TEST(CbReliable, SurvivesLossBurstLongerThanHeartbeatInterval) {
  // A 1.5 s total blackout exceeds the 0.5 s heartbeat interval several
  // times over but stays under the 3 s channel timeout: the channel must
  // not tear down, and every update sent into the blackout must arrive
  // after it lifts.
  CodCluster cluster;
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 5.0));

  int sent = 0;
  auto sendSome = [&](int n, double spacing) {
    for (int i = 0; i < n; ++i) {
      pub.send(sent++, cluster.now());
      cluster.step(spacing);
    }
  };
  sendSome(20, 0.02);

  net::LinkModel dead;
  dead.lossRate = 1.0;
  cluster.network().setLink(0, 1, dead);
  sendSome(30, 0.05);  // 1.5 s of publishing into the void
  cluster.network().setLink(0, 1, net::LinkModel{});

  cluster.runUntil(
      [&] { return sub.values.size() >= static_cast<std::size_t>(sent); },
      cluster.now() + 10.0);
  expectZeroGapInOrder(sub, sent);
  EXPECT_EQ(cbA.stats().channelsTimedOut, 0u);
  EXPECT_EQ(cbB.stats().channelsTimedOut, 0u);
}

TEST(CbReliable, BlackedOutSubscriberRecoversBesideHealthyPeer) {
  // Two reliable subscribers share one publication's send window. One of
  // them is blacked out for 0.5 s mid-stream while the other keeps
  // acking: the laggard must recover everything it missed from the
  // shared window, and neither stream may skip or reorder a frame.
  CodCluster cluster;
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

  constexpr int kCount = 80;
  net::LinkModel dead;
  dead.lossRate = 1.0;
  for (int i = 0; i < kCount; ++i) {
    if (i == 15) cluster.network().setLink(0, 2, dead);
    if (i == 65) cluster.network().setLink(0, 2, net::LinkModel{});
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  cluster.runUntil(
      [&] {
        return healthy.values.size() >= kCount &&
               laggard.values.size() >= kCount;
      },
      cluster.now() + 10.0);
  expectZeroGapInOrder(healthy, kCount);
  expectZeroGapInOrder(laggard, kCount);
  // The blackout really cost the laggard frames, and repair filled them.
  EXPECT_GT(cbA.stats().reliable.retransmitsSent, 0u);
  EXPECT_EQ(cbB.stats().reliable.gapsAbandoned, 0u);
  EXPECT_EQ(cbC.stats().reliable.gapsAbandoned, 0u);
  EXPECT_EQ(cbA.stats().channelsTimedOut, 0u);
}

TEST(CbReliable, BurstBeyondChannelTimeoutTearsDownAndRediscovers) {
  // Past the channel timeout the channel is gone — rediscovery must bring
  // a fresh reliable channel up, and streaming on it is again lossless.
  CodCluster cluster;
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 5.0));

  cluster.network().setPartitioned(0, 1, true);
  cluster.step(cbA.config().channelTimeoutSec + 1.5);
  EXPECT_EQ(cbB.sourceCount(sub.handle), 0u);
  EXPECT_GE(cbB.stats().channelsTimedOut, 1u);

  cluster.network().setPartitioned(0, 1, false);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               cluster.now() + 10.0));
  const std::size_t before = sub.values.size();
  for (int i = 0; i < 50; ++i) {
    pub.send(1000 + i, cluster.now());
    cluster.step(0.01);
  }
  cluster.runUntil([&] { return sub.values.size() >= before + 50; },
                   cluster.now() + 5.0);
  ASSERT_EQ(sub.values.size(), before + 50);
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(sub.values[before + static_cast<std::size_t>(i)],
                     1000 + i);
}

TEST(CbReliable, TinySendWindowDegradesToCountedLossNotLivelock) {
  // Publish far more than the retransmit window holds into a blackout:
  // the overflowed frames are unrecoverable, and the publisher must order
  // the subscriber past the hole instead of NACK-looping forever.
  CodCluster cluster;
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 5.0));

  // 10 updates per 10 ms tick overflow the window in well under the
  // channel timeout.
  constexpr int kPerTick = 10;
  constexpr int kBlackout = static_cast<int>(net::kSendWindowFrames) + 40;
  net::LinkModel dead;
  dead.lossRate = 1.0;
  cluster.network().setLink(0, 1, dead);
  for (int i = 0; i < kBlackout; ++i) {
    pub.send(i, cluster.now());
    if (i % kPerTick == kPerTick - 1) cluster.step(0.01);
  }
  cluster.network().setLink(0, 1, net::LinkModel{});
  // Stream resumes: later values arrive despite the unrecoverable hole.
  for (int i = kBlackout; i < kBlackout + 20; ++i) {
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  ASSERT_TRUE(cluster.runUntil(
      [&] {
        return !sub.values.empty() && sub.values.back() == kBlackout + 19;
      },
      cluster.now() + 10.0));
  EXPECT_GT(cbA.stats().reliable.sendWindowEvictions, 0u);
  EXPECT_GT(cbB.stats().reliable.gapsAbandoned, 0u);
  // Order is still strict even across the abandoned hole.
  for (std::size_t i = 1; i < sub.values.size(); ++i)
    EXPECT_LT(sub.values[i - 1], sub.values[i]);
}

TEST(CbReliable, MixedFanOutSharesOneWindowAcrossReliableChannels) {
  // One publisher, two reliable subscribers on different computers plus a
  // best-effort one: the retransmit window is shared (frames buffered
  // once) and each reliable subscriber independently recovers its own
  // losses.
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.3;
  cfg.link.jitterSec = 300e-6;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("pub");
  auto& cbB = cluster.addComputer("r1");
  auto& cbC = cluster.addComputer("r2");
  auto& cbD = cluster.addComputer("be");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub r1("score", net::QosClass::kReliableOrdered);
  r1.bind(cbB);
  QosSub r2("score", net::QosClass::kReliableOrdered);
  r2.bind(cbC);
  QosSub be("score", net::QosClass::kBestEffort);
  be.bind(cbD);
  ASSERT_TRUE(cluster.runUntil(
      [&] {
        return cbB.connected(r1.handle) && cbC.connected(r2.handle) &&
               cbD.connected(be.handle);
      },
      20.0));

  constexpr int kCount = 150;
  for (int i = 0; i < kCount; ++i) {
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  cluster.runUntil(
      [&] {
        return r1.values.size() >= kCount && r2.values.size() >= kCount;
      },
      cluster.now() + 30.0);
  expectZeroGapInOrder(r1, kCount);
  expectZeroGapInOrder(r2, kCount);
  // Shared window: frames buffered once per update, not once per channel.
  EXPECT_LE(cbA.stats().reliable.framesBuffered,
            static_cast<std::uint64_t>(kCount));
  // The best-effort subscriber is untouched by the QoS of its siblings.
  EXPECT_LT(be.values.size(), static_cast<std::size_t>(kCount));
}

TEST(CbReliable, TimestampsAndOrderSurviveRetransmitPath) {
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.4;
  cfg.seed = 9;
  CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  QosPub pub("score", net::QosClass::kBestEffort);
  pub.bind(cbA);
  QosSub sub("score", net::QosClass::kReliableOrdered);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 15.0));
  std::vector<double> sentTs;
  for (int i = 0; i < 100; ++i) {
    sentTs.push_back(cluster.now());
    pub.send(i, cluster.now());
    cluster.step(0.01);
  }
  cluster.runUntil([&] { return sub.values.size() >= 100; },
                   cluster.now() + 30.0);
  ASSERT_EQ(sub.values.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sub.values[i], static_cast<double>(i));
    EXPECT_DOUBLE_EQ(sub.timestamps[i], sentTs[i]);  // retransmit kept ts
  }
}

TEST(CbReliable, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    CodCluster::Config cfg;
    cfg.seed = seed;
    cfg.link.lossRate = 0.35;
    cfg.link.jitterSec = 300e-6;
    CodCluster cluster(cfg);
    auto& cbA = cluster.addComputer("a");
    auto& cbB = cluster.addComputer("b");
    QosPub pub("det", net::QosClass::kBestEffort);
    pub.bind(cbA);
    QosSub sub("det", net::QosClass::kReliableOrdered);
    sub.bind(cbB);
    cluster.runUntil([&] { return cbB.connected(sub.handle); }, 15.0);
    for (int i = 0; i < 80; ++i) {
      pub.send(i, cluster.now());
      cluster.step(0.01);
    }
    cluster.runUntil([&] { return sub.values.size() >= 80; },
                     cluster.now() + 20.0);
    return std::make_tuple(sub.values.size(),
                           cbA.stats().reliable.retransmitsSent,
                           cbB.stats().reliable.nacksSent);
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace cod::core
