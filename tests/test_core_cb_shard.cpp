// Shard-boundary tests of the CB routing core (src/core/shard.hpp): the
// class-name hash that places every object class on exactly one shard,
// colliding classes sharing a shard without cross-talk, rediscovery
// after a channel timeout landing back on the owning shard, and the
// headline guarantee — any shard count is byte-identical on the wire to
// shards=1 — plus a pinned digest of the wire across every CB timer path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "core/protocol.hpp"
#include "net/simnet.hpp"
#include "net/transport.hpp"

namespace cod::core {
namespace {

/// Minimal publisher LP.
class Pub : public LogicalProcess {
 public:
  explicit Pub(std::string cls,
               net::QosClass qos = net::QosClass::kBestEffort)
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

/// Minimal subscriber LP counting reflections per class.
class Sub : public LogicalProcess {
 public:
  explicit Sub(std::string cls,
               net::QosClass qos = net::QosClass::kBestEffort)
      : LogicalProcess("sub"), cls_(std::move(cls)), qos_(qos) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle = cb.subscribeObjectClass(*this, cls_, qos_);
  }
  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs,
                              double /*timestamp*/) override {
    classNames.push_back(className);
    values.push_back(attrs.getDouble("v"));
  }
  SubscriptionHandle handle = kInvalidHandle;
  std::vector<std::string> classNames;
  std::vector<double> values;

 private:
  std::string cls_;
  net::QosClass qos_;
};

// ---- the hash is the routing contract -----------------------------------

/// classNameHash is 32-bit FNV-1a. The exact values are load-bearing:
/// every node of a rack derives a decoded discovery message's owning
/// shard from this hash independently, so a silent algorithm change would
/// strand cross-version racks in hash disagreement. Pin the constants.
TEST(ClassNameHash, IsPinnedFnv1a32) {
  EXPECT_EQ(classNameHash(""), 2166136261u);  // FNV offset basis
  EXPECT_EQ(classNameHash("crane.state"), 3399086397u);
  EXPECT_EQ(classNameHash("mass.c0"), 3774275150u);
  EXPECT_EQ(classNameHash("mass.c1"), 3791052769u);
  // Reference FNV-1a loop, so a mismatch above points at the algorithm
  // rather than a stale literal.
  const std::string_view probe = "soak.probe.a";
  std::uint32_t h = 2166136261u;
  for (const char c : probe) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  EXPECT_EQ(classNameHash(probe), h);
  EXPECT_EQ(classNameHash(probe), 3763282346u);
}

TEST(ClassNameHash, ShardOfClampsAndPartitions) {
  net::SimNetwork net(/*seed=*/1);
  const net::HostId h0 = net.addHost("solo");
  CommunicationBackbone::Config zero;
  zero.shards = 0;  // documented clamp: 0 behaves as 1
  CommunicationBackbone cb("solo", net.bind(h0, 1), zero);
  EXPECT_EQ(cb.shardCount(), 1u);
  EXPECT_EQ(cb.shardOf("anything"), 0u);
}

// ---- colliding classes share a shard, not traffic -----------------------

TEST(CbSharding, CollidingClassesShareAShardWithoutCrossTalk) {
  // With 4 shards, "mass.c0" and "soak.probe.a" collide (both hash to
  // shard 2) while "mass.c1" lands elsewhere — see the pinned hashes.
  CodCluster::Config ccfg;
  ccfg.cb.shards = 4;
  CodCluster cluster(ccfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  const std::uint32_t shared = cbA.shardOf("mass.c0");
  ASSERT_EQ(shared, cbA.shardOf("soak.probe.a"));
  ASSERT_NE(shared, cbA.shardOf("mass.c1"));

  // Publisher of one colliding class, subscribers of both + the odd one.
  Pub pub("mass.c0");
  pub.bind(cbA);
  Sub hit("mass.c0"), collider("soak.probe.a"), elsewhere("mass.c1");
  hit.bind(cbB);
  collider.bind(cbB);
  elsewhere.bind(cbB);

  // Both colliding registrations live on the same shard of B; the third
  // does not ride along.
  EXPECT_EQ(cbB.shardLoad(shared).subscriptions, 2u);
  EXPECT_EQ(cbB.shardLoad(cbB.shardOf("mass.c1")).subscriptions, 1u);

  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(hit.handle); }, 2.0));
  pub.send(7.5, 0.1);
  cluster.step(0.2);

  // Exact-match semantics survive the shared shard: only the same-name
  // subscriber connects and reflects.
  ASSERT_EQ(hit.values.size(), 1u);
  EXPECT_DOUBLE_EQ(hit.values[0], 7.5);
  EXPECT_FALSE(cbB.connected(collider.handle));
  EXPECT_FALSE(cbB.connected(elsewhere.handle));
  EXPECT_TRUE(collider.values.empty());
  EXPECT_TRUE(elsewhere.values.empty());

  // The channel bookkeeping sits on the owning shard on both sides.
  EXPECT_EQ(cbA.shardLoad(shared).outChannels, 1u);
  EXPECT_EQ(cbB.shardLoad(shared).inChannels, 1u);
}

// ---- rediscovery lands back on the owning shard -------------------------

TEST(CbSharding, RediscoveryAfterTimeoutStaysOnOwningShard) {
  CodCluster::Config ccfg;
  ccfg.cb.shards = 3;
  ccfg.cb.channelTimeoutSec = 0.5;
  ccfg.cb.heartbeatIntervalSec = 0.1;
  CodCluster cluster(ccfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  const std::string cls = "crane.state";
  const std::uint32_t owner = cbB.shardOf(cls);

  Pub pub(cls);
  pub.bind(cbA);
  Sub sub(cls);
  sub.bind(cbB);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); }, 2.0));
  ASSERT_EQ(cbB.shardLoad(owner).inChannels, 1u);

  // Partition the pair until the subscriber's channel times out.
  cluster.network().setPartitioned(0, 1, true);
  ASSERT_TRUE(cluster.runUntil([&] { return !cbB.connected(sub.handle); },
                               cluster.now() + 3.0));
  EXPECT_EQ(cbB.shardLoad(owner).inChannels, 0u);
  // The subscription entry itself never moves: still on the owning shard,
  // broadcasting again.
  EXPECT_EQ(cbB.shardLoad(owner).subscriptions, 1u);

  // Heal: rediscovery reconnects, and the fresh channel is registered on
  // the same shard (not wherever a stale index pointed).
  cluster.network().setPartitioned(0, 1, false);
  ASSERT_TRUE(cluster.runUntil([&] { return cbB.connected(sub.handle); },
                               cluster.now() + 3.0));
  EXPECT_EQ(cbB.shardLoad(owner).inChannels, 1u);
  pub.send(3.25, cluster.now());
  cluster.step(0.2);
  ASSERT_FALSE(sub.values.empty());
  EXPECT_DOUBLE_EQ(sub.values.back(), 3.25);
}

// ---- the wire-identity guarantee ----------------------------------------

/// Transport decorator that journals every outbound datagram (kind, dst,
/// bytes) so two runs can be compared datagram-for-datagram.
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

/// Drive a lossy two-node mesh of several classes (spanning shards, both
/// QoS levels, both directions) and journal every datagram either CB puts
/// on the wire. `shards` is the only variable between runs.
std::vector<std::vector<std::uint8_t>> runTapped(std::uint32_t shards) {
  net::SimNetwork net(/*seed=*/17);
  net::LinkModel lossy = net.defaultLink();
  lossy.lossRate = 0.15;  // loss exercises retransmit + rediscovery paths
  net.setDefaultLink(lossy);
  std::vector<std::vector<std::uint8_t>> log;
  const net::HostId h0 = net.addHost("alpha");
  const net::HostId h1 = net.addHost("bravo");
  CommunicationBackbone::Config cfg;
  cfg.shards = shards;
  CommunicationBackbone cbA(
      "alpha", std::make_unique<TapTransport>(net.bind(h0, 1), &log), cfg);
  CommunicationBackbone cbB(
      "bravo", std::make_unique<TapTransport>(net.bind(h1, 1), &log), cfg);

  // Classes chosen to span shards at any tested count; reliable + best
  // effort; traffic in both directions.
  Pub pa1("mass.c0"), pa2("crane.state");
  Pub pb1("mass.c1");
  pa1.bind(cbA);
  pa2.bind(cbA);
  pb1.bind(cbB);
  Sub sb1("mass.c0"), sb2("crane.state");
  Sub sa1("mass.c1");
  sb1.bind(cbB);
  sb2.bind(cbB);
  sa1.bind(cbA);

  int i = 0;
  for (double t = 0.0; t < 4.0; t += 0.005) {
    net.advance(0.005);
    if (++i % 4 == 0) {
      pa1.send(i, t);
      pb1.send(-i, t);
    }
    if (i % 16 == 0) pa2.send(0.5 * i, t);
    cbA.tick(net.now());
    cbB.tick(net.now());
  }
  return log;
}

TEST(CbSharding, AnyShardCountIsByteIdenticalToOneShard) {
  const auto baseline = runTapped(1);
  ASSERT_FALSE(baseline.empty());
  for (const std::uint32_t shards : {2u, 5u}) {
    const auto sharded = runTapped(shards);
    ASSERT_EQ(baseline.size(), sharded.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < baseline.size(); ++i)
      ASSERT_EQ(baseline[i], sharded[i])
          << "datagram " << i << " shards=" << shards;
  }
}

/// 64-bit FNV-1a over a datagram journal; each entry is length-prefixed
/// so entry boundaries count too.
std::uint64_t journalDigest(const std::vector<std::vector<std::uint8_t>>& log) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (const auto& entry : log) {
    const auto n = static_cast<std::uint32_t>(entry.size());
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(n >> (8 * i)));
    for (const std::uint8_t b : entry) mix(b);
  }
  return h;
}

struct TimerPathsRun {
  std::vector<std::vector<std::uint8_t>> log;
  CbStats stats;  // summed over every CB of every run
};

/// Three nodes on a lossy, jittery LAN, driven until every CB timer path
/// has fired: reliable streams both ways plus a best-effort one, and a
/// subscriber that asks for best effort on a reliable-floor publication
/// (CHANNEL_ACK re-sends until its first WINDOW_ACK). Loss drives connect
/// retries, NACKs, acks and tail retransmits. Two partitions follow:
/// alpha-charlie for 2 s, shorter than channelTimeoutSec, so the tail
/// sweep skips charlie's stalled channel (and, with the window split on,
/// its window splits and later merges); then alpha-bravo for 4 s, longer
/// than the timeout, so channels time out on both sides and rediscovery
/// rebuilds them after the heal. Keep-alives run throughout. The reliable
/// streams publish every 7th tick, a period that divides none of the
/// protocol intervals, so a deadline the timers miss is not masked by
/// the wake an update causes anyway. Appends to `run`.
void runTimerPathsTapped(CommunicationBackbone::Config cfg,
                         std::uint64_t seed, TimerPathsRun& run) {
  net::SimNetwork net(seed);
  net::LinkModel link = net.defaultLink();
  link.lossRate = 0.2;
  link.jitterSec = 0.002;
  net.setDefaultLink(link);
  const net::HostId ha = net.addHost("alpha");
  const net::HostId hb = net.addHost("bravo");
  const net::HostId hc = net.addHost("charlie");
  cfg.reliable.splitLagFrames = 64;
  CommunicationBackbone cbA(
      "alpha", std::make_unique<TapTransport>(net.bind(ha, 1), &run.log), cfg);
  CommunicationBackbone cbB(
      "bravo", std::make_unique<TapTransport>(net.bind(hb, 1), &run.log), cfg);
  CommunicationBackbone cbC(
      "charlie", std::make_unique<TapTransport>(net.bind(hc, 1), &run.log),
      cfg);

  constexpr auto kReliable = net::QosClass::kReliableOrdered;
  Pub aRel("mass.c0", kReliable), aBest("crane.state");
  Pub bRel("mass.c1", kReliable);
  aRel.bind(cbA);
  aBest.bind(cbA);
  bRel.bind(cbB);
  Sub bOnARel("mass.c0", kReliable), cOnARel("mass.c0"), bOnABest("crane.state");
  Sub aOnBRel("mass.c1", kReliable), cOnBRel("mass.c1", kReliable);
  bOnARel.bind(cbB);
  cOnARel.bind(cbC);
  bOnABest.bind(cbB);
  aOnBRel.bind(cbA);
  cOnBRel.bind(cbC);

  constexpr double kStep = 0.002;
  for (int i = 1; i <= 6000; ++i) {  // 12 s
    net.advance(kStep);
    if (i == 1000) net.setPartitioned(ha, hc, true);   // 2 s
    if (i == 2000) net.setPartitioned(ha, hc, false);  // 4 s
    if (i == 2500) net.setPartitioned(ha, hb, true);   // 5 s
    if (i == 4500) net.setPartitioned(ha, hb, false);  // 9 s
    if (i % 7 == 0) {
      aRel.send(i, net.now());
      bRel.send(-i, net.now());
    }
    if (i % 20 == 0) aBest.send(0.5 * i, net.now());
    cbA.tick(net.now());
    cbB.tick(net.now());
    cbC.tick(net.now());
  }
  for (const CommunicationBackbone* cb : {&cbA, &cbB, &cbC}) {
    const CbStats& s = cb->stats();
    run.stats.broadcastsSent += s.broadcastsSent;
    run.stats.channelsTimedOut += s.channelsTimedOut;
    run.stats.channelsEstablishedIn += s.channelsEstablishedIn;
    run.stats.reliable.nacksSent += s.reliable.nacksSent;
    run.stats.reliable.windowAcksSent += s.reliable.windowAcksSent;
    run.stats.reliable.retransmitsSent += s.reliable.retransmitsSent;
    run.stats.reliable.windowSplits += s.reliable.windowSplits;
    run.stats.reliable.windowMerges += s.reliable.windowMerges;
  }
}

/// The timer phase runs each entry's timer only when its deadline says
/// something may be due. These digests were taken from the timer phase
/// that visited every entry on every tick, so the deadline walk must put
/// exactly the same bytes on the wire, in the same order. Each digest
/// covers three network seeds: between them, a handler that failed to
/// wake its entry (subscriber heartbeat, WINDOW_ACK, CHANNEL_ACK, first
/// data on a channel, a new update) changes at least one of them. (The
/// digest folds in IEEE-754 doubles from heartbeat and update stamps, so
/// it assumes no FMA contraction — the x86-64 default.)
TEST(CbSharding, TimerPathsWireDigestIsPinned) {
  struct Case {
    std::uint32_t shards;
    bool split;
    bool batching;
    std::size_t datagrams;
    std::uint64_t digest;
  };
  for (const Case c : {Case{1, false, true, 15717, 11041363238732833539ull},
                       Case{5, false, true, 15717, 11041363238732833539ull},
                       Case{1, true, true, 15648, 677050216604120547ull},
                       Case{1, false, false, 18890, 14946788691355040827ull}}) {
    CommunicationBackbone::Config cfg;
    cfg.shards = c.shards;
    cfg.reliable.perChannelWindowSplit = c.split;
    cfg.batch.enabled = c.batching;
    TimerPathsRun run;
    for (const std::uint64_t seed : {11u, 12u, 20u})
      runTimerPathsTapped(cfg, seed, run);
    const std::string label = "shards=" + std::to_string(c.shards) +
                              " split=" + std::to_string(c.split) +
                              " batching=" + std::to_string(c.batching);
    // Every timer path fired at least once.
    EXPECT_GT(run.stats.broadcastsSent, 0u) << label;
    EXPECT_GT(run.stats.reliable.nacksSent, 0u) << label;
    EXPECT_GT(run.stats.reliable.windowAcksSent, 0u) << label;
    EXPECT_GT(run.stats.reliable.retransmitsSent, 0u) << label;
    EXPECT_GT(run.stats.channelsTimedOut, 0u) << label;
    // Rediscovery rebuilt the timed-out channels: more establishments
    // than the five subscriptions of each run need once.
    EXPECT_GT(run.stats.channelsEstablishedIn, 15u) << label;
    if (c.split) {
      EXPECT_GT(run.stats.reliable.windowSplits, 0u) << label;
      EXPECT_GT(run.stats.reliable.windowMerges, 0u) << label;
    }
    EXPECT_EQ(run.log.size(), c.datagrams) << label;
    EXPECT_EQ(journalDigest(run.log), c.digest) << label;
  }
}

// ---- load accounting across shards --------------------------------------

TEST(CbSharding, ShardLoadSumsToTheWholeTable) {
  CodCluster::Config ccfg;
  ccfg.cb.shards = 4;
  CodCluster cluster(ccfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  std::vector<std::unique_ptr<Pub>> pubs;
  std::vector<std::unique_ptr<Sub>> subs;
  constexpr int kClasses = 32;
  for (int k = 0; k < kClasses; ++k) {
    const std::string cls = "load.c" + std::to_string(k);
    pubs.push_back(std::make_unique<Pub>(cls));
    pubs.back()->bind(cbA);
    subs.push_back(std::make_unique<Sub>(cls));
    subs.back()->bind(cbB);
  }
  cluster.step(2.0);

  CbShardLoad totalA{}, totalB{};
  std::size_t populatedShards = 0;
  for (std::uint32_t s = 0; s < cbA.shardCount(); ++s) {
    const CbShardLoad a = cbA.shardLoad(s);
    const CbShardLoad b = cbB.shardLoad(s);
    totalA.publications += a.publications;
    totalA.outChannels += a.outChannels;
    totalB.subscriptions += b.subscriptions;
    totalB.inChannels += b.inChannels;
    if (a.publications > 0) ++populatedShards;
    // Each shard's channels track its own registrations, never another
    // shard's: one subscriber per class means counts match exactly.
    EXPECT_EQ(a.outChannels, a.publications) << "shard " << s;
    EXPECT_EQ(b.inChannels, b.subscriptions) << "shard " << s;
  }
  EXPECT_EQ(totalA.publications, static_cast<std::size_t>(kClasses));
  EXPECT_EQ(totalA.outChannels, static_cast<std::size_t>(kClasses));
  EXPECT_EQ(totalB.subscriptions, static_cast<std::size_t>(kClasses));
  EXPECT_EQ(totalB.inChannels, static_cast<std::size_t>(kClasses));
  // 32 FNV-hashed names across 4 shards: every shard sees work.
  EXPECT_EQ(populatedShards, cbA.shardCount());
}

}  // namespace
}  // namespace cod::core
