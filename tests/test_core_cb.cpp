// Tests of the Communication Backbone protocol over the simulated LAN.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace cod::core {
namespace {

/// Minimal publisher LP.
class Pub : public LogicalProcess {
 public:
  explicit Pub(std::string cls) : LogicalProcess("pub"), cls_(std::move(cls)) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle = cb.publishObjectClass(*this, cls_);
  }
  void send(double value, double ts) {
    AttributeSet a;
    a.set("v", value);
    backbone()->updateAttributeValues(handle, a, ts);
  }
  PublicationHandle handle = kInvalidHandle;

 private:
  std::string cls_;
};

/// Minimal subscriber LP recording everything it reflects.
class Sub : public LogicalProcess {
 public:
  explicit Sub(std::string cls) : LogicalProcess("sub"), cls_(std::move(cls)) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle = cb.subscribeObjectClass(*this, cls_);
  }
  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs,
                              double timestamp) override {
    classNames.push_back(className);
    values.push_back(attrs.getDouble("v"));
    timestamps.push_back(timestamp);
  }
  SubscriptionHandle handle = kInvalidHandle;
  std::vector<std::string> classNames;
  std::vector<double> values;
  std::vector<double> timestamps;

 private:
  std::string cls_;
};

class CbTest : public ::testing::Test {
 protected:
  CodCluster cluster;
};

TEST_F(CbTest, DiscoveryEstablishesChannel) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("demo");
  pub.bind(cbA);
  Sub sub("demo");
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0));
  EXPECT_EQ(cbA.channelCount(pub.handle), 1u);
  EXPECT_EQ(cbB.sourceCount(sub.handle), 1u);
  EXPECT_GE(cbB.stats().broadcastsSent, 1u);
  EXPECT_GE(cbA.stats().acknowledgesSent, 1u);
}

TEST_F(CbTest, UpdatesFlowInOrderWithTimestamps) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("demo");
  pub.bind(cbA);
  Sub sub("demo");
  sub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  for (int i = 0; i < 20; ++i) pub.send(i, 0.1 * i);
  cluster.step(0.1);
  ASSERT_EQ(sub.values.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(sub.values[i], i);
    EXPECT_DOUBLE_EQ(sub.timestamps[i], 0.1 * i);
    EXPECT_EQ(sub.classNames[i], "demo");
  }
}

TEST_F(CbTest, SubscriberBeforePublisherConnects) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Sub sub("late");
  sub.bind(cbB);
  cluster.step(0.5);  // subscriber broadcasts into the void for a while
  EXPECT_FALSE(cbB.connected(sub.handle));
  Pub pub("late");
  pub.bind(cbA);  // publisher joins late (dynamic join, §2.3)
  EXPECT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               cluster.now() + 3.0));
}

TEST_F(CbTest, PublisherBeforeSubscriberConnects) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("early");
  pub.bind(cbA);
  cluster.step(0.5);
  Sub sub("early");
  sub.bind(cbB);
  EXPECT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               cluster.now() + 2.0));
}

TEST_F(CbTest, ClassNamesIsolateTraffic) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("alpha");
  pub.bind(cbA);
  Sub rightSub("alpha");
  rightSub.bind(cbB);
  Sub wrongSub("beta");
  wrongSub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(rightSub.handle); }, 2.0);
  pub.send(1.0, 0.0);
  cluster.step(0.1);
  EXPECT_EQ(rightSub.values.size(), 1u);
  EXPECT_TRUE(wrongSub.values.empty());
  EXPECT_FALSE(cbB.connected(wrongSub.handle));
}

TEST_F(CbTest, MultipleSubscribersFanOut) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  auto& cbC = cluster.addComputer("c");
  Pub pub("fan");
  pub.bind(cbA);
  Sub s1("fan"), s2("fan");
  s1.bind(cbB);
  s2.bind(cbC);
  cluster.runUntil(
      [&] { return cbB.connected(s1.handle) && cbC.connected(s2.handle); },
      3.0);
  EXPECT_EQ(cbA.channelCount(pub.handle), 2u);
  pub.send(5.0, 1.0);
  cluster.step(0.1);
  EXPECT_EQ(s1.values.size(), 1u);
  EXPECT_EQ(s2.values.size(), 1u);
}

TEST_F(CbTest, MultiplePublishersFanIn) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  auto& cbC = cluster.addComputer("c");
  Pub p1("multi"), p2("multi");
  p1.bind(cbA);
  p2.bind(cbB);
  Sub sub("multi");
  sub.bind(cbC);
  cluster.runUntil([&] { return cbC.sourceCount(sub.handle) == 2; }, 3.0);
  p1.send(1.0, 0.0);
  p2.send(2.0, 0.0);
  cluster.step(0.1);
  EXPECT_EQ(sub.values.size(), 2u);
}

TEST_F(CbTest, LocalFastPathSameComputer) {
  auto& cb = cluster.addComputer("solo");
  Pub pub("local");
  pub.bind(cb);
  Sub sub("local");
  sub.bind(cb);
  // No network round trip needed: deliver on the next tick.
  pub.send(9.0, 0.0);
  cluster.step(0.01);
  ASSERT_EQ(sub.values.size(), 1u);
  EXPECT_DOUBLE_EQ(sub.values[0], 9.0);
  EXPECT_EQ(cb.stats().updatesLocalFastPath, 1u);
  EXPECT_EQ(cb.stats().updatesSent, 0u);  // nothing left the computer
}

TEST_F(CbTest, UnsubscribeTearsDownBothSides) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("bye");
  pub.bind(cbA);
  Sub sub("bye");
  sub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  cbB.unsubscribe(sub.handle);
  cluster.step(0.1);  // let the BYE propagate
  EXPECT_EQ(cbA.channelCount(pub.handle), 0u);
  pub.send(1.0, 0.0);
  cluster.step(0.1);
  EXPECT_TRUE(sub.values.empty());
}

TEST_F(CbTest, UnpublishNotifiesSubscriber) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("gone");
  pub.bind(cbA);
  Sub sub("gone");
  sub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  cbA.unpublish(pub.handle);
  cluster.step(0.1);
  EXPECT_EQ(cbB.sourceCount(sub.handle), 0u);
}

TEST(CbShutdown, DestructorSendsFramesStagedSinceLastTick) {
  // ~CommunicationBackbone flushes what was staged after the last tick:
  // an update published right before shutdown still reaches its
  // subscriber. (An unpublish would prove nothing here: it flushes its
  // BYEs at once.)
  net::SimNetwork net;
  const net::HostId ha = net.addHost("a");
  const net::HostId hb = net.addHost("b");
  auto cbA = std::make_unique<CommunicationBackbone>("a", net.bind(ha, 1));
  CommunicationBackbone cbB("b", net.bind(hb, 1));
  Pub pub("farewell");
  pub.bind(*cbA);
  Sub sub("farewell");
  sub.bind(cbB);
  for (int i = 0; i < 400 && !cbB.connected(sub.handle); ++i) {
    net.advance(0.005);
    cbA->tick(net.now());
    cbB.tick(net.now());
  }
  ASSERT_TRUE(cbB.connected(sub.handle));

  const std::uint64_t sentBefore = cbA->transportStats()->packetsSent;
  pub.send(42.0, net.now());
  ASSERT_EQ(cbA->transportStats()->packetsSent, sentBefore)
      << "the update left before the tick, so this test proves nothing";
  cbA.reset();  // no tick between the update and the destructor
  net.advance(0.1);
  cbB.tick(net.now());
  ASSERT_EQ(sub.values.size(), 1u);
  EXPECT_DOUBLE_EQ(sub.values[0], 42.0);
}

TEST_F(CbTest, DetachResignsAllRegistrations) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Sub sub("multi");
  sub.bind(cbB);
  {
    Pub pub("multi");
    pub.bind(cbA);
    cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
    EXPECT_EQ(cbA.lpCount(), 1u);
  }  // pub destroyed → detached → unpublished
  EXPECT_EQ(cbA.lpCount(), 0u);
  cluster.step(0.1);
  EXPECT_EQ(cbB.sourceCount(sub.handle), 0u);
}

/// Subscriber that resigns other subscriptions (its own included) from
/// inside its first reflection, and subscribes anew.
class Resigner : public Sub {
 public:
  using Sub::Sub;
  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs,
                              double timestamp) override {
    Sub::reflectAttributeValues(className, attrs, timestamp);
    for (const SubscriptionHandle h : victims) backbone()->unsubscribe(h);
    if (!victims.empty()) late = backbone()->subscribeObjectClass(*this, "demo");
    victims.clear();
  }
  std::vector<SubscriptionHandle> victims;
  SubscriptionHandle late = kInvalidHandle;
};

TEST_F(CbTest, ReflectCallbackMayResignSubscriptionsMidDelivery) {
  // Delivery walks the subscriptions in creation order while the
  // callbacks run. One that resigns subscriptions still ahead in the walk
  // (and its own, with a reflection still queued) must stop their
  // delivery at once and never touch a freed entry (the asan lane checks
  // that); one made by the callback waits for the next tick.
  auto& cb = cluster.addComputer("a");
  Pub pub("demo");
  pub.bind(cb);
  Sub first("demo"), victim("demo"), last("demo");
  Resigner resigner("demo");
  first.bind(cb);
  resigner.bind(cb);
  victim.bind(cb);
  last.bind(cb);
  resigner.victims = {victim.handle, resigner.handle};
  pub.send(1.0, 0.0);  // local fast path: two reflections per mailbox
  pub.send(2.0, 0.0);
  cluster.step(0.01);
  EXPECT_EQ(first.values.size(), 2u);
  EXPECT_EQ(resigner.values.size(), 1u);
  EXPECT_TRUE(victim.values.empty());
  EXPECT_EQ(last.values.size(), 2u);
  ASSERT_NE(resigner.late, kInvalidHandle);
  EXPECT_EQ(cb.latest(resigner.late), nullptr);  // nothing was queued to it
  pub.send(3.0, 0.0);
  cluster.step(0.01);
  EXPECT_EQ(resigner.values.size(), 2u);  // via the new subscription
  EXPECT_EQ(first.values.size(), 3u);
  EXPECT_EQ(last.values.size(), 3u);
}

TEST_F(CbTest, ChannelSurvivesWellBeyondTimeout) {
  // Regression for the channel-id role collision: a CB that both publishes
  // and subscribes used to mis-route keep-alives, and its channels died at
  // the timeout. Run an idle (no-update) channel for several timeouts.
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  // Both computers publish one class and subscribe to the other's.
  Pub pubA("a.out");
  pubA.bind(cbA);
  Sub subA("b.out");
  subA.bind(cbA);
  Pub pubB("b.out");
  pubB.bind(cbB);
  Sub subB("a.out");
  subB.bind(cbB);
  cluster.runUntil(
      [&] { return cbA.connected(subA.handle) && cbB.connected(subB.handle); },
      3.0);
  const double horizon =
      cluster.now() + 4.0 * cbA.config().channelTimeoutSec;
  while (cluster.now() < horizon) cluster.step(0.25);
  EXPECT_EQ(cbA.stats().channelsTimedOut, 0u);
  EXPECT_EQ(cbB.stats().channelsTimedOut, 0u);
  pubA.send(1.0, 0.0);
  pubB.send(2.0, 0.0);
  cluster.step(0.1);
  EXPECT_EQ(subA.values.size(), 1u);
  EXPECT_EQ(subB.values.size(), 1u);
}

TEST_F(CbTest, PartitionTimesOutAndReconnects) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("part");
  pub.bind(cbA);
  Sub sub("part");
  sub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  cluster.network().setPartitioned(0, 1, true);
  // Everything times out across the partition.
  cluster.step(cbA.config().channelTimeoutSec + 1.0);
  EXPECT_EQ(cbB.sourceCount(sub.handle), 0u);
  EXPECT_GE(cbB.stats().channelsTimedOut, 1u);
  // Heal: discovery resumes and the channel comes back.
  cluster.network().setPartitioned(0, 1, false);
  EXPECT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               cluster.now() + 5.0));
  pub.send(3.0, 0.0);
  cluster.step(0.1);
  EXPECT_EQ(sub.values.size(), 1u);
}

TEST_F(CbTest, LossyLinkStillConnectsAndDedups) {
  CodCluster::Config cfg;
  cfg.link.lossRate = 0.2;
  CodCluster c2(cfg);
  auto& cbA = c2.addComputer("a");
  auto& cbB = c2.addComputer("b");
  Pub pub("lossy");
  pub.bind(cbA);
  Sub sub("lossy");
  sub.bind(cbB);
  // Retransmits make discovery succeed despite 20% loss.
  ASSERT_TRUE(c2.runUntil([&] { return cbB.connected(sub.handle); }, 10.0));
  // One update per tick, so each leaves in its own datagram and the 20%
  // loss applies per update (a single-burst send would coalesce into a
  // handful of batch datagrams and make the loss all-or-nothing per batch).
  for (int i = 0; i < 100; ++i) {
    pub.send(i, 0.01 * i);
    c2.step(0.005);
  }
  c2.step(0.5);
  // Some updates are lost (no retransmit for data), none duplicated, and
  // the sequence observed is strictly increasing.
  EXPECT_LE(sub.values.size(), 100u);
  EXPECT_GT(sub.values.size(), 50u);
  for (std::size_t i = 1; i < sub.values.size(); ++i)
    EXPECT_LT(sub.values[i - 1], sub.values[i]);
}

TEST_F(CbTest, MailboxOverflowDropsOldest) {
  // The local fast path enqueues each update at once, so a burst between
  // two ticks fills the mailbox, and each update past kMailboxLimit
  // evicts the oldest reflection.
  auto& cb = cluster.addComputer("a");
  Pub pub("flood");
  pub.bind(cb);
  Sub sub("flood");
  sub.bind(cb);
  constexpr std::size_t kExtra = 15;
  for (std::size_t i = 0; i < kMailboxLimit + kExtra; ++i)
    pub.send(static_cast<double>(i), 0.0);
  EXPECT_TRUE(sub.values.empty());  // nothing is delivered before a tick
  cluster.step(0.01);
  ASSERT_EQ(sub.values.size(), kMailboxLimit);
  for (std::size_t i = 0; i < kMailboxLimit; ++i)
    ASSERT_DOUBLE_EQ(sub.values[i], static_cast<double>(kExtra + i)) << i;
  EXPECT_EQ(cb.stats().mailboxOverflows, kExtra);
}

TEST_F(CbTest, AttachIsIdempotentAndExclusive) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  Pub pub("x");
  pub.bind(cbA);
  EXPECT_EQ(cbA.attach(pub), pub.id());  // second attach: same id
  EXPECT_THROW(cbB.attach(pub), std::logic_error);
}

TEST_F(CbTest, UpdateOnUnknownPublicationThrows) {
  auto& cb = cluster.addComputer("a");
  AttributeSet a;
  EXPECT_THROW(cb.updateAttributeValues(12345, a, 0.0), std::invalid_argument);
}

TEST_F(CbTest, PaperLiteralModeStopsBroadcastingAfterAck) {
  CodCluster::Config cfg;
  cfg.cb.refreshIntervalSec = 0.0;  // §2.3 literal: stop after first ACK
  CodCluster c2(cfg);
  auto& cbA = c2.addComputer("a");
  auto& cbB = c2.addComputer("b");
  Pub pub("once");
  pub.bind(cbA);
  Sub sub("once");
  sub.bind(cbB);
  c2.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  const auto broadcastsAtConnect = cbB.stats().broadcastsSent;
  c2.step(5.0);
  EXPECT_EQ(cbB.stats().broadcastsSent, broadcastsAtConnect);
}

TEST_F(CbTest, RefreshModeKeepsDiscoveringLatePublishers) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  auto& cbC = cluster.addComputer("c");
  Pub p1("refresh");
  p1.bind(cbA);
  Sub sub("refresh");
  sub.bind(cbB);
  cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
  // A second publisher appears after the subscription is satisfied.
  Pub p2("refresh");
  p2.bind(cbC);
  EXPECT_TRUE(cluster.runUntil(
      [&] { return cbB.sourceCount(sub.handle) == 2; }, cluster.now() + 5.0));
}

TEST_F(CbTest, MalformedDatagramsAreCountedAndIgnored) {
  auto& cbA = cluster.addComputer("a");
  cluster.addComputer("b");
  // Inject garbage straight at cbA's port.
  auto rogue = cluster.network().bind(1, 2);
  rogue->send(cbA.address(), std::vector<std::uint8_t>{0xFF, 0x00, 0x13});
  cluster.step(0.1);
  EXPECT_EQ(cbA.stats().malformedDrops, 1u);
}

TEST_F(CbTest, NullTransportRejected) {
  EXPECT_THROW(CommunicationBackbone("x", nullptr), std::invalid_argument);
}

/// tableLoad() counts exactly what the tables hold: one subscriber per
/// class on the far node, so each side's channels equal its
/// registrations.
TEST_F(CbTest, TableLoadCountsRegistrationsAndChannels) {
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  std::vector<std::unique_ptr<Pub>> pubs;
  std::vector<std::unique_ptr<Sub>> subs;
  constexpr std::size_t kClasses = 32;
  for (std::size_t k = 0; k < kClasses; ++k) {
    const std::string cls = "load.c" + std::to_string(k);
    pubs.push_back(std::make_unique<Pub>(cls));
    pubs.back()->bind(cbA);
    subs.push_back(std::make_unique<Sub>(cls));
    subs.back()->bind(cbB);
  }
  cluster.step(2.0);
  const CbTableLoad a = cbA.tableLoad();
  EXPECT_EQ(a.publications, kClasses);
  EXPECT_EQ(a.subscriptions, 0u);
  EXPECT_EQ(a.outChannels, kClasses);
  EXPECT_EQ(a.inChannels, 0u);
  const CbTableLoad b = cbB.tableLoad();
  EXPECT_EQ(b.publications, 0u);
  EXPECT_EQ(b.subscriptions, kClasses);
  EXPECT_EQ(b.outChannels, 0u);
  EXPECT_EQ(b.inChannels, kClasses);
}

TEST_F(CbTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    CodCluster::Config cfg;
    cfg.seed = seed;
    cfg.link.jitterSec = 100e-6;
    CodCluster c(cfg);
    auto& cbA = c.addComputer("a");
    auto& cbB = c.addComputer("b");
    Pub pub("det");
    pub.bind(cbA);
    Sub sub("det");
    sub.bind(cbB);
    c.runUntil([&] { return cbB.connected(sub.handle); }, 2.0);
    for (int i = 0; i < 50; ++i) pub.send(i, 0.01 * i);
    c.step(0.5);
    return std::make_pair(sub.values.size(), cbB.stats().updatesDelivered);
  };
  EXPECT_EQ(run(77), run(77));
}

}  // namespace
}  // namespace cod::core
