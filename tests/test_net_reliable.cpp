// Tests of the reliable-delivery primitives: send-window / receive-queue
// semantics in isolation, then a soak of the pair over the simulated LAN
// at aggressive loss (the ReliableOrderTest idiom: every frame must come
// out, in order, despite 55% loss and jitter-induced reordering).
#include "net/reliable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "core/cluster.hpp"
#include "net/simnet.hpp"
#include "net/wire.hpp"

namespace cod::net {
namespace {

ReliableFrame frame(std::uint64_t seq) {
  return ReliableFrame{seq, 0.01 * static_cast<double>(seq),
                       {static_cast<std::uint8_t>(seq & 0xFF)}};
}

class ReceiveQueueTest : public ::testing::Test {
 protected:
  ReliableConfig cfg;
  ReliableStats stats;
  std::vector<ReliableFrame> ready;
};

TEST_F(ReceiveQueueTest, InOrderFramesPassStraightThrough) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  for (std::uint64_t s = 1; s <= 5; ++s)
    EXPECT_EQ(q.offer(frame(s), ready), ReliableReceiveQueue::Offer::kDelivered);
  ASSERT_EQ(ready.size(), 5u);
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_EQ(ready[s - 1].seq, s);
  EXPECT_EQ(q.nextExpected(), 6u);
  EXPECT_EQ(stats.outOfOrderBuffered, 0u);
}

TEST_F(ReceiveQueueTest, GapBuffersUntilHealed) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  EXPECT_EQ(q.offer(frame(1), ready), ReliableReceiveQueue::Offer::kDelivered);
  EXPECT_EQ(q.offer(frame(3), ready), ReliableReceiveQueue::Offer::kBuffered);
  EXPECT_EQ(q.offer(frame(4), ready), ReliableReceiveQueue::Offer::kBuffered);
  ASSERT_EQ(ready.size(), 1u);  // 3 and 4 held behind the hole at 2
  EXPECT_EQ(q.offer(frame(2), ready), ReliableReceiveQueue::Offer::kDelivered);
  ASSERT_EQ(ready.size(), 4u);  // 2 healed the gap and released 3, 4
  EXPECT_EQ(ready[1].seq, 2u);
  EXPECT_EQ(ready[2].seq, 3u);
  EXPECT_EQ(ready[3].seq, 4u);
  EXPECT_EQ(stats.gapsHealed, 2u);
}

TEST_F(ReceiveQueueTest, DuplicatesDroppedBothDeliveredAndBuffered) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), ready);
  EXPECT_EQ(q.offer(frame(1), ready), ReliableReceiveQueue::Offer::kDuplicate);
  q.offer(frame(3), ready);
  EXPECT_EQ(q.offer(frame(3), ready), ReliableReceiveQueue::Offer::kDuplicate);
  EXPECT_EQ(stats.duplicatesDropped, 2u);
  EXPECT_EQ(ready.size(), 1u);
}

TEST_F(ReceiveQueueTest, PreBaseFramesHeldUntilBaseArrives) {
  ReliableReceiveQueue q(cfg, stats);
  // Updates raced ahead of the CHANNEL_ACK: nothing may be delivered (a
  // gap below the first-seen frame would be invisible).
  EXPECT_EQ(q.offer(frame(7), ready), ReliableReceiveQueue::Offer::kBuffered);
  EXPECT_EQ(q.offer(frame(6), ready), ReliableReceiveQueue::Offer::kBuffered);
  EXPECT_TRUE(ready.empty());
  EXPECT_TRUE(q.collectNacks(10.0).empty());  // no NACKs before the base
  q.setBase(5, ready);
  // 6 and 7 were buffered but 5 is still missing.
  EXPECT_TRUE(ready.empty());
  q.offer(frame(5), ready);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0].seq, 5u);
  EXPECT_EQ(ready[2].seq, 7u);
}

TEST_F(ReceiveQueueTest, SetBaseDiscardsHistoryBelowIt) {
  ReliableReceiveQueue q(cfg, stats);
  q.offer(frame(3), ready);  // pre-base stray from before our channel
  q.setBase(5, ready);
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(q.nextExpected(), 5u);
  q.offer(frame(5), ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].seq, 5u);
}

TEST_F(ReceiveQueueTest, NacksListHolesAfterPersistentGap) {
  cfg.nackIntervalSec = 0.05;
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), ready);
  q.offer(frame(4), ready);
  q.offer(frame(6), ready);
  EXPECT_TRUE(q.collectNacks(0.0).empty());  // gap just appeared
  const auto missing = q.collectNacks(0.1);  // persisted past the interval
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[0], 2u);
  EXPECT_EQ(missing[1], 3u);
  EXPECT_EQ(missing[2], 5u);
  EXPECT_TRUE(q.collectNacks(0.11).empty());  // paced: too soon to repeat
  EXPECT_FALSE(q.collectNacks(0.2).empty());
  EXPECT_EQ(stats.nacksSent, 2u);
}

TEST_F(ReceiveQueueTest, FreshHoleAgesBeforeBeingNacked) {
  // A hole opened while an older gap is outstanding must still get the
  // full jitter-healing grace before it is NACKed — otherwise a merely
  // reordered in-flight frame is retransmitted for nothing.
  cfg.nackIntervalSec = 0.05;
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), ready);
  q.offer(frame(3), ready);  // hole at 2
  EXPECT_TRUE(q.collectNacks(0.0).empty());  // too fresh
  q.offer(frame(6), ready);  // new holes at 4, 5 while 2 is still open
  const auto first = q.collectNacks(0.06);
  ASSERT_EQ(first.size(), 1u);  // only the aged hole goes out
  EXPECT_EQ(first[0], 2u);
  q.offer(frame(2), ready);  // 2 heals (delivers 2 and 3)
  const auto second = q.collectNacks(0.12);
  ASSERT_EQ(second.size(), 2u);  // 4 and 5 have aged by now
  EXPECT_EQ(second[0], 4u);
  EXPECT_EQ(second[1], 5u);
}

TEST_F(ReceiveQueueTest, AckDueAfterProgressAndAfterDuplicates) {
  cfg.ackIntervalSec = 0.1;
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  EXPECT_TRUE(q.collectAck(0.0).has_value());  // announces the base
  q.offer(frame(1), ready);
  EXPECT_FALSE(q.collectAck(0.05).has_value());  // interval not elapsed
  const auto ack = q.collectAck(0.2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, 1u);
  EXPECT_FALSE(q.collectAck(0.4).has_value());  // nothing new to report
  // A duplicate means the sender missed our ack: re-arm it.
  q.offer(frame(1), ready);
  const auto reack = q.collectAck(0.6);
  ASSERT_TRUE(reack.has_value());
  EXPECT_EQ(*reack, 1u);
}

TEST_F(ReceiveQueueTest, AbandonSkipsHolesButDeliversBufferedFrames) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), ready);
  q.offer(frame(3), ready);  // 2 lost and (say) evicted at the sender
  ready.clear();
  EXPECT_EQ(q.abandonThrough(2, ready), 1u);  // only 2 is truly gone
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].seq, 3u);
  EXPECT_EQ(q.nextExpected(), 4u);
  EXPECT_EQ(stats.gapsAbandoned, 1u);
}

TEST_F(ReceiveQueueTest, PiggybackAckIgnoresPacingAndAbsorbsPeriodicAck) {
  cfg.ackIntervalSec = 0.1;
  ReliableReceiveQueue q(cfg, stats);
  EXPECT_FALSE(q.piggybackAck(0.0).has_value());  // base still unknown
  q.setBase(1, ready);
  q.offer(frame(1), ready);
  // Riding a departing keep-alive costs nothing, so the pacing interval
  // does not apply…
  const auto pig = q.piggybackAck(0.01);
  ASSERT_TRUE(pig.has_value());
  EXPECT_EQ(*pig, 1u);
  // …and the periodic ack it replaced is absorbed, not duplicated.
  EXPECT_FALSE(q.collectAck(0.2).has_value());
  // New progress re-arms the normal path.
  q.offer(frame(2), ready);
  EXPECT_TRUE(q.collectAck(0.5).has_value());
}

TEST_F(ReceiveQueueTest, ReorderLimitDropsOverflow) {
  cfg.reorderLimit = 4;
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  for (std::uint64_t s = 2; s <= 5; ++s) q.offer(frame(s), ready);
  EXPECT_EQ(q.offer(frame(6), ready), ReliableReceiveQueue::Offer::kOverflow);
  EXPECT_EQ(stats.reorderOverflows, 1u);
  EXPECT_EQ(q.buffered(), 4u);
}

class SendWindowTest : public ::testing::Test {
 protected:
  ReliableConfig cfg;
  ReliableStats stats;
};

TEST_F(SendWindowTest, StoresAndPrunesCumulatively) {
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 1; s <= 10; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_EQ(w.size(), 10u);
  ASSERT_NE(w.frame(3), nullptr);
  w.pruneThrough(7);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.frame(7), nullptr);
  ASSERT_NE(w.frame(8), nullptr);
  EXPECT_EQ(stats.framesPruned, 7u);
}

TEST_F(SendWindowTest, OverflowEvictsOldestAndRecordsHighWaterMark) {
  cfg.sendWindowFrames = 4;
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 1; s <= 6; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.frame(1), nullptr);
  EXPECT_EQ(w.frame(2), nullptr);
  EXPECT_EQ(w.highestEvicted(), 2u);
  EXPECT_EQ(stats.sendWindowEvictions, 2u);
}

TEST_F(SendWindowTest, ByteBudgetEvictsOldestBeyondBytes) {
  cfg.sendWindowBytes = 64;
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 1; s <= 8; ++s)
    w.store(s, std::vector<std::uint8_t>(16, 0xAA), 0.0);
  EXPECT_LE(w.bytesBuffered(), 64u);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.frame(4), nullptr);
  ASSERT_NE(w.frame(5), nullptr);
  EXPECT_EQ(w.highestEvicted(), 4u);
  EXPECT_EQ(stats.sendWindowEvictions, 4u);
}

TEST_F(SendWindowTest, OversizedFrameAloneSurvivesTheBudget) {
  // A frame bigger than the whole budget must not evict itself — the
  // stream keeps making progress on exactly one buffered frame.
  cfg.sendWindowBytes = 8;
  ReliableSendWindow w(cfg, stats);
  w.store(1, std::vector<std::uint8_t>(32, 0x11), 0.0);
  EXPECT_EQ(w.size(), 1u);
  ASSERT_NE(w.frame(1), nullptr);
  w.store(2, std::vector<std::uint8_t>(32, 0x22), 0.0);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.frame(1), nullptr);
  ASSERT_NE(w.frame(2), nullptr);
  EXPECT_EQ(w.highestEvicted(), 1u);
}

TEST_F(SendWindowTest, WouldOverflowChecksFrameCapAndByteBudget) {
  cfg.sendWindowFrames = 2;
  cfg.sendWindowBytes = 40;
  ReliableSendWindow w(cfg, stats);
  EXPECT_FALSE(w.wouldOverflow(16));
  w.store(1, std::vector<std::uint8_t>(16, 0x11), 0.0);
  EXPECT_FALSE(w.wouldOverflow(16));  // 32 <= 40, 2 frames <= cap
  EXPECT_TRUE(w.wouldOverflow(32));   // 48 > 40: byte budget
  w.store(2, std::vector<std::uint8_t>(16, 0x22), 0.0);
  EXPECT_TRUE(w.wouldOverflow(1));  // 3 frames > cap of 2
  // Acks free capacity again — the block is a state, not a verdict.
  w.pruneThrough(1);
  EXPECT_FALSE(w.wouldOverflow(16));
}

TEST_F(SendWindowTest, OverflowPolicyDefaultsFromConfigAndOverrides) {
  cfg.overflowPolicy = OverflowPolicy::kBlockPublisher;
  ReliableSendWindow w(cfg, stats);
  EXPECT_EQ(w.overflowPolicy(), OverflowPolicy::kBlockPublisher);
  w.setOverflowPolicy(OverflowPolicy::kDegradeLatestValue);
  EXPECT_EQ(w.overflowPolicy(), OverflowPolicy::kDegradeLatestValue);
  // The policy names are part of the operator-facing report grammar.
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::kEvictOldest),
               "evict-oldest");
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::kBlockPublisher),
               "block-publisher");
  EXPECT_STREQ(overflowPolicyName(OverflowPolicy::kDegradeLatestValue),
               "degrade-latest-value");
}

TEST_F(SendWindowTest, ByteAccountingTracksPruneAndClear) {
  cfg.sendWindowBytes = 1024;
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 1; s <= 4; ++s)
    w.store(s, std::vector<std::uint8_t>(10, 0x33), 0.0);
  EXPECT_EQ(w.bytesBuffered(), 40u);
  w.pruneThrough(2);
  EXPECT_EQ(w.bytesBuffered(), 20u);
  w.clear();
  EXPECT_EQ(w.bytesBuffered(), 0u);
  EXPECT_TRUE(w.empty());
}

TEST_F(SendWindowTest, StoredSeqsAboveSeedSplitWindows) {
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 3; s <= 7; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_EQ(w.lowestStored(), 3u);
  const auto above = w.storedSeqsAbove(4);
  ASSERT_EQ(above.size(), 3u);
  EXPECT_EQ(above[0], 5u);
  EXPECT_EQ(above[2], 7u);
  EXPECT_TRUE(w.storedSeqsAbove(7).empty());
}

TEST_F(SendWindowTest, TailRetransmitsHonourTimeoutAndAcks) {
  cfg.retxTimeoutSec = 0.25;
  cfg.maxRetransmitPerSweep = 2;
  ReliableSendWindow w(cfg, stats);
  for (std::uint64_t s = 1; s <= 4; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_TRUE(w.takeTailRetransmits(1, 0.1).empty());  // too fresh
  // Frames below minUnacked (acked everywhere) are skipped.
  auto due = w.takeTailRetransmits(3, 0.3);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 3u);
  EXPECT_EQ(due[1], 4u);
  // The sweep restarted their timers.
  EXPECT_TRUE(w.takeTailRetransmits(3, 0.4).empty());
  EXPECT_FALSE(w.takeTailRetransmits(3, 0.6).empty());
}

// ---- Deadlines: polling only when due equals polling every tick ---------
//
// The CB runs a channel's timer only once its deadline has come. Each test
// feeds two identical objects the same random schedule on an irregular
// clock: one is polled on every tick, the other only when its deadline
// says something may be due (or, for the receive queue, right after it
// was fed). Every poll result must match on every tick.

/// xorshift64 over a fixed seed, as in test_core_protocol.cpp.
struct XorShift {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  bool percent(std::uint64_t p) { return next() % 100 < p; }
};

TEST(ReliableDeadlines, ReceiveQueuePolledWhenDueMatchesEveryTick) {
  ReliableConfig cfg;
  cfg.maxNacksPerMessage = 4;  // tracks 16 holes; bursts open many more
  ReliableStats statsA, statsB;
  ReliableReceiveQueue every(cfg, statsA), lazy(cfg, statsB);
  std::vector<ReliableFrame> readyA, readyB;
  XorShift rng;
  std::uint64_t nextSeq = 1;
  std::vector<std::uint64_t> nacked;  // the toy sender's repair queue
  std::size_t maxHoles = 0, nackTicks = 0, ackTicks = 0;
  bool fed = true;
  double now = 0.0;
  const auto feed = [&](auto&& op) {
    op(every, readyA);
    op(lazy, readyB);
    fed = true;
  };
  for (int tick = 0; tick < 40000; ++tick) {
    now += 0.0005 + static_cast<double>(rng.next() % 1000) * 1e-6;
    if (tick == 40) {  // frames before the base are held, not NACKed
      feed([](ReliableReceiveQueue& q, auto& r) { q.setBase(1, r); });
    } else if (tick > 40 && rng.percent(1)) {  // repeated CHANNEL_ACK
      feed([](ReliableReceiveQueue& q, auto& r) { q.setBase(1, r); });
    }
    if (rng.percent(25)) {
      // New data: 30% lost, and now and then a burst lost outright.
      if (rng.percent(2)) nextSeq += 10 + rng.next() % 40;
      const std::uint64_t seq = nextSeq++;
      if (!rng.percent(30))
        feed([&](ReliableReceiveQueue& q, auto& r) { q.offer(frame(seq), r); });
    }
    if (!nacked.empty() && rng.percent(30)) {
      // Repair from the last NACK, or a stale duplicate.
      const std::uint64_t seq = nacked[rng.next() % nacked.size()];
      feed([&](ReliableReceiveQueue& q, auto& r) { q.offer(frame(seq), r); });
    }
    if (rng.percent(1) && lazy.nextExpected() > 0) {  // sender evicted
      const std::uint64_t through = lazy.nextExpected() + rng.next() % 8;
      feed([&](ReliableReceiveQueue& q, auto& r) {
        q.abandonThrough(through, r);
      });
    }
    if (rng.percent(2)) {  // a keep-alive leaves and carries the ack
      ASSERT_EQ(every.piggybackAck(now), lazy.piggybackAck(now));
    }

    const auto nacksA = every.collectNacks(now);
    const auto ackA = every.collectAck(now);
    std::vector<std::uint64_t> nacksB;
    std::optional<std::uint64_t> ackB;
    if (fed || now >= lazy.nextTimerDue()) {
      nacksB = lazy.collectNacks(now);
      ackB = lazy.collectAck(now);
      fed = false;
    }
    ASSERT_EQ(nacksA, nacksB) << "tick " << tick;
    ASSERT_EQ(ackA, ackB) << "tick " << tick;
    if (!nacksA.empty()) {
      nacked = nacksA;
      ++nackTicks;
    }
    if (ackA) ++ackTicks;
    if (every.nextExpected() > 0 && every.maxSeen() >= every.nextExpected())
      maxHoles = std::max<std::size_t>(
          maxHoles, every.maxSeen() - every.nextExpected() - every.buffered());
  }
  EXPECT_GT(maxHoles, 4 * cfg.maxNacksPerMessage);
  EXPECT_GT(nackTicks, 100u);
  EXPECT_GT(ackTicks, 100u);
  EXPECT_EQ(readyA.size(), readyB.size());
  EXPECT_EQ(statsA.gapsAbandoned, statsB.gapsAbandoned);
}

TEST(ReliableDeadlines, TailSweepPolledWhenDueMatchesEveryTick) {
  ReliableConfig cfg;
  cfg.retxTimeoutSec = 0.05;
  cfg.maxRetransmitPerSweep = 3;  // the cap leaves due frames behind
  ReliableStats statsA, statsB;
  ReliableSendWindow every(cfg, statsA), lazy(cfg, statsB);
  XorShift rng;
  std::uint64_t nextSeq = 1, ackedThrough = 0;
  std::size_t sweepTicks = 0;
  double now = 0.0;
  for (int tick = 0; tick < 40000; ++tick) {
    now += 0.0005 + static_cast<double>(rng.next() % 1000) * 1e-6;
    if (rng.percent(20)) {
      every.store(nextSeq, {0x55}, now);
      lazy.store(nextSeq, {0x55}, now);
      ++nextSeq;
    }
    if (rng.percent(3) && ackedThrough + 1 < nextSeq) {
      ackedThrough += 1 + rng.next() % (nextSeq - ackedThrough - 1);
      every.pruneThrough(ackedThrough);
      lazy.pruneThrough(ackedThrough);
    }
    if (rng.percent(2) && ackedThrough + 1 < nextSeq) {  // a NACK re-send
      const std::uint64_t seq =
          ackedThrough + 1 + rng.next() % (nextSeq - ackedThrough - 1);
      every.markSent(seq, now);
      lazy.markSent(seq, now);
    }
    // Stalled channels drop out of the sweep's floor and come back, so
    // the floor moves both ways.
    const std::uint64_t minUnacked = ackedThrough + 1 + rng.next() % 4;

    const auto dueA = every.takeTailRetransmits(minUnacked, now);
    std::vector<std::uint64_t> dueB;
    if (now >= dueAfter(lazy.earliestUnackedSentSec(minUnacked),
                        cfg.retxTimeoutSec))
      dueB = lazy.takeTailRetransmits(minUnacked, now);
    ASSERT_EQ(dueA, dueB) << "tick " << tick;
    if (!dueA.empty()) ++sweepTicks;
  }
  EXPECT_GT(sweepTicks, 100u);
}

TEST(ReliableDeadlines, DueAfterIsNeverLaterThanTheIntervalCheck) {
  // Wherever `now - since >= interval` holds, now >= dueAfter(since,
  // interval) must hold too. Clocks within a few ulps of the boundary;
  // early in a run `since` is below the interval, where the subtraction
  // rounds and a plain since + interval would be late now and then.
  XorShift rng;
  std::size_t boundaryHits = 0;
  for (int i = 0; i < 400000; ++i) {
    const double since =
        rng.percent(50)
            ? static_cast<double>(rng.next() % 100000) * 1e-5
            : static_cast<double>(rng.next() % 1000000) * 1e-3 +
                  static_cast<double>(rng.next() % 1000) * 1e-9;
    const double interval = static_cast<double>(1 + rng.next() % 500) * 1e-3;
    double now = since + interval;
    const int ulps = static_cast<int>(rng.next() % 7) - 3;
    for (int k = 0; k < std::abs(ulps); ++k)
      now = std::nextafter(now, ulps > 0 ? 1e300 : -1e300);
    if (now - since >= interval) {
      ASSERT_GE(now, dueAfter(since, interval)) << since << " " << interval;
      if (now < since + interval) ++boundaryHits;
    }
  }
  EXPECT_GT(boundaryHits, 0u);  // the margin was needed, not just present
  EXPECT_EQ(dueAfter(-std::numeric_limits<double>::infinity(), 0.1),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(dueAfter(std::numeric_limits<double>::infinity(), 0.1),
            std::numeric_limits<double>::infinity());
}

// ---- Soak: the pair over a lossy, jittery simulated LAN -----------------
//
// A toy sender/receiver speak a minimal 4-type framing over SimNetwork,
// wired to the window/queue exactly the way the CB is. 55% loss matches
// the exemplar ReliableOrderTest; jitter makes even surviving packets
// arrive out of order.

constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kNackFrame = 2;
constexpr std::uint8_t kAckFrame = 3;

struct ToySender {
  SimTransport* t = nullptr;
  NodeAddr peer;
  ReliableSendWindow window;
  std::uint64_t nextSeq = 1;

  ToySender(const ReliableConfig& cfg, ReliableStats& stats, SimTransport* tr,
            NodeAddr p)
      : t(tr), peer(p), window(cfg, stats) {}

  void send(double now) {
    WireWriter w;
    w.u8(kData);
    w.u64(nextSeq);
    w.f64(now);
    w.u64(nextSeq * 31);  // payload the receiver can check
    window.store(nextSeq, w.bytes(), now);
    t->send(peer, w.bytes());
    ++nextSeq;
  }

  void pump(double now, std::uint64_t& cumAcked) {
    while (auto d = t->receive()) {
      WireReader r(d->payload);
      const auto type = r.u8();
      if (!type) continue;
      if (*type == kNackFrame) {
        const auto count = r.u16();
        for (std::uint16_t i = 0; count && i < *count; ++i) {
          const auto seq = r.u64();
          if (!seq) break;
          if (auto* f = window.frame(*seq)) {
            t->send(peer, *f);
            window.markSent(*seq, now);
          }
        }
      } else if (*type == kAckFrame) {
        const auto cum = r.u64();
        if (cum) {
          cumAcked = std::max(cumAcked, *cum);
          window.pruneThrough(*cum);
        }
      }
    }
    for (const std::uint64_t seq :
         window.takeTailRetransmits(cumAcked + 1, now)) {
      if (auto* f = window.frame(seq)) t->send(peer, *f);
    }
  }
};

struct ToyReceiver {
  SimTransport* t = nullptr;
  NodeAddr peer;
  ReliableReceiveQueue queue;
  std::vector<std::uint64_t> delivered;

  ToyReceiver(const ReliableConfig& cfg, ReliableStats& stats, SimTransport* tr,
              NodeAddr p)
      : t(tr), peer(p), queue(cfg, stats) {
    std::vector<ReliableFrame> none;
    queue.setBase(1, none);
  }

  void pump(double now) {
    std::vector<ReliableFrame> ready;
    while (auto d = t->receive()) {
      WireReader r(d->payload);
      const auto type = r.u8();
      const auto seq = r.u64();
      const auto ts = r.f64();
      const auto body = r.u64();
      if (!type || *type != kData || !seq || !ts || !body) continue;
      EXPECT_EQ(*body, *seq * 31);  // payload integrity through retransmits
      queue.offer(ReliableFrame{*seq, *ts, {}}, ready);
    }
    for (const ReliableFrame& f : ready) delivered.push_back(f.seq);
    const auto missing = queue.collectNacks(now);
    if (!missing.empty()) {
      WireWriter w;
      w.u8(kNackFrame);
      w.u16(static_cast<std::uint16_t>(missing.size()));
      for (const std::uint64_t s : missing) w.u64(s);
      t->send(peer, w.bytes());
    }
    if (const auto cum = queue.collectAck(now)) {
      WireWriter w;
      w.u8(kAckFrame);
      w.u64(*cum);
      t->send(peer, w.bytes());
    }
  }
};

void runSoak(double lossRate, double jitterSec, int numSends,
             std::uint64_t seed) {
  SimNetwork net(seed);
  const HostId a = net.addHost("sender");
  const HostId b = net.addHost("receiver");
  LinkModel link;
  link.lossRate = lossRate;
  link.jitterSec = jitterSec;
  net.setDefaultLink(link);
  auto ta = net.bind(a, 1);
  auto tb = net.bind(b, 1);

  ReliableConfig cfg;
  ReliableStats stats;
  ToySender sender(cfg, stats, ta.get(), {b, 1});
  ToyReceiver receiver(cfg, stats, tb.get(), {a, 1});

  std::uint64_t cumAcked = 0;
  int sent = 0;
  double now = 0.0;
  const double dt = 0.01;
  // Send phase, then drain until everything is recovered.
  while (receiver.delivered.size() < static_cast<std::size_t>(numSends)) {
    if (sent < numSends) {
      sender.send(now);
      ++sent;
    }
    net.advance(dt);
    now = net.now();
    receiver.pump(now);
    sender.pump(now, cumAcked);
    ASSERT_LT(now, 120.0) << "soak did not converge: delivered "
                          << receiver.delivered.size() << "/" << numSends;
  }

  // Zero gaps, strict order.
  ASSERT_EQ(receiver.delivered.size(), static_cast<std::size_t>(numSends));
  for (int i = 0; i < numSends; ++i)
    ASSERT_EQ(receiver.delivered[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i) + 1);
  if (lossRate > 0.0) {
    EXPECT_GT(stats.retransmitsSent, 0u);
    EXPECT_GT(stats.nacksSent, 0u);
  }
  EXPECT_EQ(stats.gapsAbandoned, 0u);
}

// ---- Control-datagram reduction on quiet reliable links -----------------
//
// PR-2 follow-on: WINDOW_ACK/NACK piggyback on heartbeat flushes. With the
// CB's send coalescer on, every control frame a tick owes a peer
// (heartbeats for all channels, piggybacked acks) rides one datagram, so a
// quiet multi-channel reliable link sends a fraction of the datagrams the
// un-batched protocol needs.

std::uint64_t quietReliableLinkDatagrams(bool batching) {
  core::CodCluster::Config cfg;
  cfg.cb.batch.enabled = batching;
  core::CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("pub");
  auto& cbB = cluster.addComputer("sub");
  core::LogicalProcess pub{"pub"};
  core::LogicalProcess sub{"sub"};
  cbA.attach(pub);
  cbB.attach(sub);
  const char* classes[3] = {"rel.a", "rel.b", "rel.c"};
  std::vector<core::PublicationHandle> pubs;
  std::vector<core::SubscriptionHandle> subs;
  for (const char* cls : classes) {
    pubs.push_back(
        cbA.publishObjectClass(pub, cls, QosClass::kReliableOrdered));
    subs.push_back(
        cbB.subscribeObjectClass(sub, cls, QosClass::kReliableOrdered));
  }
  EXPECT_TRUE(cluster.runUntil(
      [&] {
        for (const auto s : subs)
          if (!cbB.connected(s)) return false;
        return true;
      },
      5.0));
  // A short burst gives the reliable machinery progress to acknowledge.
  core::AttributeSet attrs;
  attrs.set("v", 1.0);
  for (int i = 0; i < 5; ++i) {
    for (const auto h : pubs) cbA.updateAttributeValues(h, attrs, cluster.now());
    cluster.step(0.01);
  }
  const auto before = cluster.network().stats().packetsSent;
  cluster.step(10.0);  // quiet: heartbeats, refresh broadcasts, acks
  return cluster.network().stats().packetsSent - before;
}

TEST(ReliableControlTraffic, BatchingCutsQuietLinkControlDatagrams) {
  const std::uint64_t batched = quietReliableLinkDatagrams(true);
  const std::uint64_t unbatched = quietReliableLinkDatagrams(false);
  ASSERT_GT(unbatched, 0u);
  // At three reliable channels the coalesced protocol should need well
  // under two-thirds of the control datagrams (measured ~0.45x).
  EXPECT_LT(batched * 3, unbatched * 2)
      << "batched=" << batched << " unbatched=" << unbatched;
}

TEST(ReliableSoak, AllFramesInOrderAt25PercentLoss) {
  runSoak(0.25, 500e-6, 400, 11);
}

TEST(ReliableSoak, AllFramesInOrderAt55PercentLoss) {
  runSoak(0.55, 500e-6, 250, 7);
}

TEST(ReliableSoak, JitterOnlyReorderingHealsWithoutAbandonment) {
  runSoak(0.0, 5e-3, 300, 3);
}

}  // namespace
}  // namespace cod::net
