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

using Offer = ReliableReceiveQueue::Offer;

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
    EXPECT_EQ(q.offer(frame(s), 0.0, ready), Offer::kDelivered);
  ASSERT_EQ(ready.size(), 5u);
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_EQ(ready[s - 1].seq, s);
  EXPECT_EQ(q.nextExpected(), 6u);
  EXPECT_EQ(stats.outOfOrderBuffered, 0u);
}

TEST_F(ReceiveQueueTest, GapBuffersUntilHealed) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  EXPECT_EQ(q.offer(frame(1), 0.0, ready), Offer::kDelivered);
  EXPECT_EQ(q.offer(frame(3), 0.0, ready), Offer::kBuffered);
  EXPECT_EQ(q.offer(frame(4), 0.0, ready), Offer::kBuffered);
  ASSERT_EQ(ready.size(), 1u);  // 3 and 4 held behind the hole at 2
  EXPECT_EQ(q.offer(frame(2), 0.0, ready), Offer::kDelivered);
  ASSERT_EQ(ready.size(), 4u);  // 2 healed the gap and released 3, 4
  EXPECT_EQ(ready[1].seq, 2u);
  EXPECT_EQ(ready[2].seq, 3u);
  EXPECT_EQ(ready[3].seq, 4u);
  EXPECT_EQ(stats.gapsHealed, 2u);
}

TEST_F(ReceiveQueueTest, DuplicatesDroppedBothDeliveredAndBuffered) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  EXPECT_EQ(q.offer(frame(1), 0.0, ready), Offer::kDuplicate);
  q.offer(frame(3), 0.0, ready);
  EXPECT_EQ(q.offer(frame(3), 0.0, ready), Offer::kDuplicate);
  EXPECT_EQ(stats.duplicatesDropped, 2u);
  EXPECT_EQ(ready.size(), 1u);
}

TEST_F(ReceiveQueueTest, PreBaseFramesHeldUntilBaseArrives) {
  ReliableReceiveQueue q(cfg, stats);
  // Updates raced ahead of the CHANNEL_ACK: nothing may be delivered (a
  // gap below the first-seen frame would be invisible).
  EXPECT_EQ(q.offer(frame(7), 0.0, ready), Offer::kBuffered);
  EXPECT_EQ(q.offer(frame(6), 0.0, ready), Offer::kBuffered);
  EXPECT_TRUE(ready.empty());
  EXPECT_TRUE(q.collectNacks(10.0).empty());  // no NACKs before the base
  q.setBase(5, ready);
  // 6 and 7 were buffered but 5 is still missing.
  EXPECT_TRUE(ready.empty());
  q.offer(frame(5), 0.0, ready);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0].seq, 5u);
  EXPECT_EQ(ready[2].seq, 7u);
}

TEST_F(ReceiveQueueTest, SetBaseDiscardsHistoryBelowIt) {
  ReliableReceiveQueue q(cfg, stats);
  q.offer(frame(3), 0.0, ready);  // pre-base stray from before our channel
  q.setBase(5, ready);
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(q.nextExpected(), 5u);
  q.offer(frame(5), 0.0, ready);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].seq, 5u);
}

using Seqs = std::vector<std::uint64_t>;

/// Hole 2 is NACKed at t=0, its original turns up 4 ms late and the
/// repair 1 ms after that: the NACK was spurious. Leaves 1..3 delivered,
/// a 4 ms reorder window and a 12 ms repair timeout (SRTT 4 ms,
/// RTTVAR 2 ms).
void learnFourMillisecondsOfReordering(ReliableReceiveQueue& q,
                                       std::vector<ReliableFrame>& ready) {
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(3), 0.0, ready);
  ASSERT_EQ(q.collectNacks(0.0), Seqs{2});
  q.offer(frame(2), 0.004, ready);  // the original: fills the hole
  ASSERT_DOUBLE_EQ(q.reorderWindowSec(), 0.0);
  q.offer(frame(2), 0.005, ready);  // the repair, within one timeout
  ASSERT_DOUBLE_EQ(q.reorderWindowSec(), 0.004);
  ASSERT_DOUBLE_EQ(q.repairTimeoutSec(), 0.012);
  ASSERT_EQ(q.nextExpected(), 4u);
}

TEST_F(ReceiveQueueTest, NacksListHolesAfterPersistentGap) {
  // No reordering seen yet: every hole goes out on the poll that finds
  // it. The repeat waits out the repair timeout, which starts at the cap.
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(4), 0.0, ready);
  q.offer(frame(6), 0.0, ready);
  EXPECT_EQ(q.collectNacks(0.0), (Seqs{2, 3, 5}));
  EXPECT_TRUE(q.collectNacks(0.04).empty());  // paced: too soon to repeat
  EXPECT_EQ(q.collectNacks(kMaxNackWaitSec), (Seqs{2, 3, 5}));
  EXPECT_EQ(stats.nacksSent, 2u);
}

TEST_F(ReceiveQueueTest, FreshHoleAgesBeforeBeingNacked) {
  // Once reordering has been seen, a hole opened while an older one is in
  // repair still gets the whole reorder window before it is NACKed, and
  // the older hole's repeat waits for its own repair timeout.
  ReliableReceiveQueue q(cfg, stats);
  learnFourMillisecondsOfReordering(q, ready);
  q.offer(frame(5), 0.010, ready);  // hole at 4
  EXPECT_TRUE(q.collectNacks(0.010).empty());  // too fresh
  EXPECT_TRUE(q.collectAck(0.010).has_value());
  EXPECT_DOUBLE_EQ(q.nextTimerDue(), dueAfter(0.010, 0.004));
  EXPECT_EQ(q.collectNacks(0.014), Seqs{4});
  q.offer(frame(8), 0.016, ready);  // new holes at 6, 7 while 4 is open
  EXPECT_TRUE(q.collectNacks(0.016).empty());
  EXPECT_TRUE(q.collectNacks(0.019).empty());
  EXPECT_EQ(q.collectNacks(0.020), (Seqs{6, 7}));  // only the aged holes
  // 4's repeat came due at 0.026, but alone it also waits a repair
  // timeout after the channel's last NACK: one message repeats all three.
  EXPECT_TRUE(q.collectNacks(0.026).empty());
  EXPECT_DOUBLE_EQ(q.nextTimerDue(), dueAfter(0.020, 0.012));
  EXPECT_EQ(q.collectNacks(0.032), (Seqs{4, 6, 7}));
}

TEST_F(ReceiveQueueTest, HoleNackedOnTheTickItOpensWithoutReordering) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.5, ready);
  q.offer(frame(3), 0.5, ready);
  EXPECT_DOUBLE_EQ(q.reorderWindowSec(), 0.0);
  EXPECT_EQ(q.collectNacks(0.5), Seqs{2});
  // A hole that opens a tick later goes out on its own tick too: pacing
  // only spaces out repeats.
  q.offer(frame(5), 0.501, ready);
  EXPECT_EQ(q.collectNacks(0.501), Seqs{4});
  EXPECT_EQ(stats.nacksSent, 2u);
}

TEST_F(ReceiveQueueTest, SpuriousNackWidensTheReorderWindow) {
  ReliableReceiveQueue q(cfg, stats);
  learnFourMillisecondsOfReordering(q, ready);
  EXPECT_EQ(stats.spuriousNacks, 1u);
  EXPECT_EQ(stats.duplicatesDropped, 1u);
  // The next reordering of up to 4 ms heals without traffic.
  q.offer(frame(5), 0.1, ready);
  EXPECT_TRUE(q.collectNacks(0.1).empty());
  q.offer(frame(4), 0.103, ready);
  EXPECT_TRUE(q.collectNacks(0.103).empty());
  EXPECT_EQ(q.nextExpected(), 6u);
  EXPECT_EQ(stats.nacksSent, 1u);
}

TEST_F(ReceiveQueueTest, HealBeforeNackWidensTheReorderWindow) {
  // A hole that heals between two polls, later than the window, shows
  // lateness the window did not cover.
  ReliableReceiveQueue q(cfg, stats);
  learnFourMillisecondsOfReordering(q, ready);
  q.offer(frame(5), 0.1, ready);  // hole at 4
  EXPECT_TRUE(q.collectNacks(0.1).empty());
  q.offer(frame(4), 0.1065, ready);  // no poll in between
  EXPECT_NEAR(q.reorderWindowSec(), 0.0065, 1e-12);
  EXPECT_EQ(stats.spuriousNacks, 1u);  // nothing was NACKed
  q.offer(frame(7), 0.2, ready);  // hole at 6 now waits 6.5 ms
  EXPECT_TRUE(q.collectNacks(0.2).empty());
  EXPECT_TRUE(q.collectNacks(0.206).empty());
  EXPECT_EQ(q.collectNacks(0.2065), Seqs{6});
}

TEST_F(ReceiveQueueTest, LateDuplicateDoesNotWidenTheWindow) {
  // A tail-RTO re-send of a frame the NACK already repaired arrives long
  // after the fill: a duplicate, but no evidence of reordering.
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(3), 0.0, ready);
  ASSERT_EQ(q.collectNacks(0.0), Seqs{2});
  q.offer(frame(2), 0.002, ready);  // the repair
  EXPECT_DOUBLE_EQ(q.repairTimeoutSec(), 0.006);
  q.offer(frame(2), 0.25, ready);  // the sender's tail retransmit
  EXPECT_EQ(stats.duplicatesDropped, 1u);
  EXPECT_EQ(stats.spuriousNacks, 0u);
  EXPECT_DOUBLE_EQ(q.reorderWindowSec(), 0.0);
  // Nor does a duplicate of a frame that was never NACKed.
  q.offer(frame(3), 0.251, ready);
  EXPECT_EQ(stats.spuriousNacks, 0u);
  EXPECT_DOUBLE_EQ(q.reorderWindowSec(), 0.0);
}

TEST_F(ReceiveQueueTest, ReorderWindowAndRepairTimeoutAreCapped) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(3), 0.0, ready);
  ASSERT_EQ(q.collectNacks(0.0), Seqs{2});
  // An 80 ms round trip: SRTT + 4·RTTVAR would be 240 ms.
  q.offer(frame(2), 0.08, ready);
  EXPECT_DOUBLE_EQ(q.repairTimeoutSec(), kMaxNackWaitSec);
  // The repair arrives too: the original was 80 ms late.
  q.offer(frame(2), 0.09, ready);
  EXPECT_EQ(stats.spuriousNacks, 1u);
  EXPECT_DOUBLE_EQ(q.reorderWindowSec(), kMaxNackWaitSec);
  // A hole still goes out once it is kMaxNackWaitSec old.
  q.offer(frame(5), 1.0, ready);
  EXPECT_TRUE(q.collectNacks(1.0).empty());
  EXPECT_TRUE(q.collectNacks(1.049).empty());
  EXPECT_EQ(q.collectNacks(1.0 + kMaxNackWaitSec), Seqs{4});
}

TEST_F(ReceiveQueueTest, RepairTimeoutSamplesKarnStyleBacksOffAndResets) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(3), 0.0, ready);
  ASSERT_EQ(q.collectNacks(0.0), Seqs{2});
  ASSERT_EQ(q.collectNacks(0.05), Seqs{2});  // unanswered: repeat
  // Filled after two NACKs: which one did it answer? No sample.
  q.offer(frame(2), 0.052, ready);
  EXPECT_DOUBLE_EQ(q.repairTimeoutSec(), kMaxNackWaitSec);
  // A hole NACKed once gives a sample: 3 ms, so 3 + 4·1.5 = 9 ms.
  q.offer(frame(5), 0.1, ready);
  ASSERT_EQ(q.collectNacks(0.1), Seqs{4});
  q.offer(frame(4), 0.103, ready);
  EXPECT_NEAR(q.repairTimeoutSec(), 0.009, 1e-12);
  // A peer that stops answering: each repeat doubles the timeout, up to
  // the cap.
  q.offer(frame(7), 0.2, ready);
  ASSERT_EQ(q.collectNacks(0.2), Seqs{6});
  EXPECT_TRUE(q.collectNacks(0.208).empty());
  ASSERT_EQ(q.collectNacks(0.209), Seqs{6});
  EXPECT_NEAR(q.repairTimeoutSec(), 0.018, 1e-12);
  EXPECT_TRUE(q.collectNacks(0.226).empty());
  ASSERT_EQ(q.collectNacks(0.227), Seqs{6});
  EXPECT_NEAR(q.repairTimeoutSec(), 0.036, 1e-12);
  ASSERT_EQ(q.collectNacks(0.263), Seqs{6});
  EXPECT_DOUBLE_EQ(q.repairTimeoutSec(), kMaxNackWaitSec);
  ASSERT_EQ(q.collectNacks(0.313), Seqs{6});
  EXPECT_DOUBLE_EQ(q.repairTimeoutSec(), kMaxNackWaitSec);
  // The fill resets the backoff; after four repeats it gives no sample.
  q.offer(frame(6), 0.314, ready);
  EXPECT_NEAR(q.repairTimeoutSec(), 0.009, 1e-12);
  EXPECT_EQ(q.nextExpected(), 8u);
}

TEST(ReceiveQueueTiming, NackTicksDoNotDependOnTheClockOrigin) {
  // The same schedule on a 1 ms tick grid, from a clock origin near zero
  // and from one an hour into a run: every NACK leaves on the same tick.
  // Round trips are differences of large clock readings there, and
  // backoff doubles them up to the cap.
  const auto nackTicks = [](double origin) {
    ReliableConfig cfg;
    ReliableStats stats;
    ReliableReceiveQueue q(cfg, stats);
    std::vector<ReliableFrame> ready;
    q.setBase(1, ready);
    std::vector<std::pair<int, Seqs>> out;
    std::uint64_t next = 1;
    for (int tick = 0; tick < 10000; ++tick) {
      const double now = origin + tick * 1e-3;
      if (tick % 40 == 0) {
        // A frame every 40 ticks; every third is lost and reappears as a
        // repair on the tick after the NACK, or after three repeats.
        if (next % 3 != 0) q.offer(frame(next), now, ready);
        ++next;
      }
      for (const auto& [at, seqs] : out) {
        if (at != tick - 1) continue;
        for (const std::uint64_t s : seqs)
          if (s % 2 == 0 || stats.nacksSent % 4 == 0)
            q.offer(frame(s), now, ready);
      }
      if (auto nacks = q.collectNacks(now); !nacks.empty())
        out.emplace_back(tick, std::move(nacks));
    }
    return out;
  };
  const auto reference = nackTicks(0.0);
  EXPECT_GT(reference.size(), 100u);
  for (const double origin : {1.7, 517.3, 4321.987654, 9000.000123})
    EXPECT_EQ(nackTicks(origin), reference) << "origin " << origin;
}

TEST_F(ReceiveQueueTest, AckDueAfterProgressAndAfterDuplicates) {
  cfg.ackIntervalSec = 0.1;
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  EXPECT_TRUE(q.collectAck(0.0).has_value());  // announces the base
  q.offer(frame(1), 0.0, ready);
  EXPECT_FALSE(q.collectAck(0.05).has_value());  // interval not elapsed
  const auto ack = q.collectAck(0.2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, 1u);
  EXPECT_FALSE(q.collectAck(0.4).has_value());  // nothing new to report
  // A duplicate means the sender missed our ack: re-arm it.
  q.offer(frame(1), 0.0, ready);
  const auto reack = q.collectAck(0.6);
  ASSERT_TRUE(reack.has_value());
  EXPECT_EQ(*reack, 1u);
}

TEST_F(ReceiveQueueTest, AbandonSkipsHolesButDeliversBufferedFrames) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  q.offer(frame(1), 0.0, ready);
  q.offer(frame(3), 0.0, ready);  // 2 lost and (say) evicted at the sender
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
  q.offer(frame(1), 0.0, ready);
  // Riding a departing keep-alive costs nothing, so the pacing interval
  // does not apply…
  const auto pig = q.piggybackAck(0.01);
  ASSERT_TRUE(pig.has_value());
  EXPECT_EQ(*pig, 1u);
  // …and the periodic ack it replaced is absorbed, not duplicated.
  EXPECT_FALSE(q.collectAck(0.2).has_value());
  // New progress re-arms the normal path.
  q.offer(frame(2), 0.0, ready);
  EXPECT_TRUE(q.collectAck(0.5).has_value());
}

TEST_F(ReceiveQueueTest, ReorderLimitDropsOverflow) {
  ReliableReceiveQueue q(cfg, stats);
  q.setBase(1, ready);
  const std::uint64_t last = 1 + kReorderLimit;  // 2..last fill the buffer
  for (std::uint64_t s = 2; s <= last; ++s) q.offer(frame(s), 0.0, ready);
  EXPECT_EQ(stats.reorderOverflows, 0u);
  EXPECT_EQ(q.offer(frame(last + 1), 0.0, ready), Offer::kOverflow);
  EXPECT_EQ(stats.reorderOverflows, 1u);
  EXPECT_EQ(q.buffered(), kReorderLimit);
}

class SendWindowTest : public ::testing::Test {
 protected:
  ReliableStats stats;
};

TEST_F(SendWindowTest, StoresAndPrunesCumulatively) {
  ReliableSendWindow w(stats);
  for (std::uint64_t s = 1; s <= 10; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_EQ(w.size(), 10u);
  ASSERT_NE(w.frame(3), nullptr);
  w.pruneThrough(7);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.frame(7), nullptr);
  ASSERT_NE(w.frame(8), nullptr);
  EXPECT_EQ(stats.framesPruned, 7u);
  // clear() (the last reliable channel is gone) drops the rest.
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.frame(8), nullptr);
}

TEST_F(SendWindowTest, OverflowEvictsOldestAndRecordsHighWaterMark) {
  ReliableSendWindow w(stats);
  for (std::uint64_t s = 1; s <= kSendWindowFrames + 2; ++s)
    w.store(s, {0x55}, 0.0);
  EXPECT_EQ(w.size(), kSendWindowFrames);
  EXPECT_EQ(w.frame(1), nullptr);
  EXPECT_EQ(w.frame(2), nullptr);
  EXPECT_NE(w.frame(3), nullptr);
  EXPECT_EQ(w.highestEvicted(), 2u);
  EXPECT_EQ(stats.sendWindowEvictions, 2u);
}

TEST_F(SendWindowTest, TailRetransmitsHonourTimeoutAndAcks) {
  ReliableSendWindow w(stats);
  // Two frames below the sweep's floor, then more than one sweep's cap.
  const std::uint64_t last = 2 + kMaxRetransmitPerSweep + 2;
  for (std::uint64_t s = 1; s <= last; ++s) w.store(s, {0x55}, 0.0);
  EXPECT_TRUE(w.takeTailRetransmits(1, kRetxTimeoutSec - 0.01).empty());
  // Frames below minUnacked (acked everywhere) are skipped, and one sweep
  // re-sends at most kMaxRetransmitPerSweep, oldest first.
  const double t1 = kRetxTimeoutSec + 0.05;
  auto due = w.takeTailRetransmits(3, t1);
  ASSERT_EQ(due.size(), kMaxRetransmitPerSweep);
  for (std::size_t i = 0; i < due.size(); ++i) EXPECT_EQ(due[i], 3 + i);
  // The next sweep takes what the cap left behind.
  due = w.takeTailRetransmits(3, t1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], last - 1);
  EXPECT_EQ(due[1], last);
  // The sweeps restarted their timers.
  EXPECT_TRUE(w.takeTailRetransmits(3, t1 + 0.1).empty());
  EXPECT_FALSE(w.takeTailRetransmits(3, t1 + kRetxTimeoutSec + 0.01).empty());
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
        feed([&](ReliableReceiveQueue& q, auto& r) {
          q.offer(frame(seq), now, r);
        });
    }
    if (!nacked.empty() && rng.percent(30)) {
      // Repair from the last NACK, or a stale duplicate.
      const std::uint64_t seq = nacked[rng.next() % nacked.size()];
      feed([&](ReliableReceiveQueue& q, auto& r) {
        q.offer(frame(seq), now, r);
      });
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
  // More holes than the queue tracks at once (4 NACKs' worth).
  EXPECT_GT(maxHoles, 4 * kMaxNacksPerMessage);
  EXPECT_GT(nackTicks, 100u);
  EXPECT_GT(ackTicks, 100u);
  EXPECT_EQ(readyA.size(), readyB.size());
  EXPECT_EQ(statsA.gapsAbandoned, statsB.gapsAbandoned);
}

TEST(ReliableDeadlines, TailSweepPolledWhenDueMatchesEveryTick) {
  ReliableStats statsA, statsB;
  ReliableSendWindow every(statsA), lazy(statsB);
  XorShift rng;
  std::uint64_t nextSeq = 1, ackedThrough = 0;
  std::size_t sweepTicks = 0, cappedTicks = 0;
  double now = 0.0;
  for (int tick = 0; tick < 40000; ++tick) {
    now += 0.0005 + static_cast<double>(rng.next() % 1000) * 1e-6;
    // Single frames, and now and then a burst stored on one tick, which
    // falls due on one tick beyond the sweep's cap.
    const std::uint64_t stores =
        rng.percent(20) ? 1 : (rng.percent(1) ? 40 + rng.next() % 40 : 0);
    for (std::uint64_t k = 0; k < stores; ++k) {
      every.store(nextSeq, {0x55}, now);
      lazy.store(nextSeq, {0x55}, now);
      ++nextSeq;
    }
    // Acks come about every 0.4 s, slower than the retransmit timeout.
    if (rng.percent(1) && rng.percent(25) && ackedThrough + 1 < nextSeq) {
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
                        kRetxTimeoutSec))
      dueB = lazy.takeTailRetransmits(minUnacked, now);
    ASSERT_EQ(dueA, dueB) << "tick " << tick;
    if (!dueA.empty()) ++sweepTicks;
    if (dueA.size() == kMaxRetransmitPerSweep) ++cappedTicks;
  }
  EXPECT_GT(sweepTicks, 100u);
  EXPECT_GT(cappedTicks, 10u);  // the cap left due frames behind
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

  ToySender(ReliableStats& stats, SimTransport* tr, NodeAddr p)
      : t(tr), peer(p), window(stats) {}

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
  std::vector<double> latencySec;  // delivery minus send time, per frame

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
      queue.offer(ReliableFrame{*seq, *ts, {}}, now, ready);
    }
    for (const ReliableFrame& f : ready) {
      delivered.push_back(f.seq);
      latencySec.push_back(now - f.timestamp);
    }
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

/// Sends `numSends` frames, one every 10 ms, and pumps both ends
/// `ticksPerSend` times per send until all are delivered. `latencySec`,
/// if given, receives each frame's delivery minus send time.
void runSoak(double lossRate, double jitterSec, int numSends,
             std::uint64_t seed, std::vector<double>* latencySec = nullptr,
             int ticksPerSend = 1) {
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
  ToySender sender(stats, ta.get(), {b, 1});
  ToyReceiver receiver(cfg, stats, tb.get(), {a, 1});

  std::uint64_t cumAcked = 0;
  int sent = 0;
  double now = 0.0;
  const double dt = 0.01 / ticksPerSend;
  // Send phase, then drain until everything is recovered.
  for (int tick = 0;
       receiver.delivered.size() < static_cast<std::size_t>(numSends);
       ++tick) {
    if (sent < numSends && tick % ticksPerSend == 0) {
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
  if (latencySec != nullptr) *latencySec = receiver.latencySec;
}

// ---- Control datagrams on quiet reliable links --------------------------
//
// WINDOW_ACK/NACK piggyback on heartbeat flushes. The CB's send coalescer
// puts every control frame a tick owes a peer (heartbeats for all
// channels, piggybacked acks) in one datagram, so a quiet multi-channel
// reliable link sends a fraction of the datagrams one frame per datagram
// would need.

std::uint64_t quietReliableLinkDatagrams() {
  core::CodCluster cluster;
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
  // Pinned: 10 quiet seconds of three reliable channels cost 75 datagrams.
  // One frame per datagram, the wire before coalescing, cost 171 on the
  // same run (measured when that send path was deleted).
  EXPECT_EQ(quietReliableLinkDatagrams(), 75u);
}

TEST(ReliableSoak, AllFramesInOrderAt25PercentLoss) {
  runSoak(0.25, 500e-6, 400, 11);
}

TEST(ReliableSoak, AllFramesInOrderAt55PercentLoss) {
  runSoak(0.55, 500e-6, 250, 7);
}

double percentile(std::vector<double> v, double f) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(f * static_cast<double>(v.size() - 1))];
}

TEST(ReliableSoak, ReliableOrderTestLatencyAt55PercentLoss) {
  // The Anger ReliableOrderTest shape: 1000 sends at 55% loss, gapless and
  // in order, with delivery-latency percentiles bounded from the design.
  // Both sides tick every 1 ms and a frame goes out every 10 ticks (the
  // send step). A NACK is answered on the tick after it leaves, so a
  // repair round trip is two ticks.
  //  - A lost frame's hole shows when a later frame arrives: within g send
  //    steps for a fraction 1 - loss^g of holes.
  //  - The receiver NACKs it on that tick (nothing is reordered here).
  //    A repeat waits one repair timeout after the hole's last NACK and
  //    after the channel's last NACK, so repeats of a hole are less than
  //    two kMaxNackWaitSec apart. A NACK and its repair both cross the
  //    lossy link, so an attempt succeeds with q = (1 - loss)^2 and a
  //    fraction 1 - (1 - q)^n of holes need at most n attempts.
  // A hole that needs n attempts thus heals within g steps, 2(n - 1)
  // capped repair timeouts and one round trip. The bounds take g and n
  // each at the percentile and repeats at their widest spacing; learned
  // repeats come a few ticks apart, which leaves room for the head-of-line
  // wait behind earlier holes. A receiver that waits kMaxNackWaitSec
  // before the first NACK and between NACKs misses the median bound.
  constexpr double kLoss = 0.55;
  constexpr double kSendStepSec = 0.01;
  constexpr double kRoundTripSec = 0.002;
  constexpr double q = (1 - kLoss) * (1 - kLoss);
  const auto bound = [&](double f) {
    const double steps = std::ceil(std::log(1 - f) / std::log(kLoss));
    const double attempts = std::ceil(std::log(1 - f) / std::log(1 - q));
    return steps * kSendStepSec + 2 * (attempts - 1) * kMaxNackWaitSec +
           kRoundTripSec;
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<double> latency;
    runSoak(kLoss, 500e-6, 1000, seed, &latency, /*ticksPerSend=*/10);
    ASSERT_EQ(latency.size(), 1000u);
    EXPECT_LE(percentile(latency, 0.5), bound(0.5)) << "seed " << seed;
    EXPECT_LE(percentile(latency, 0.99), bound(0.99)) << "seed " << seed;
  }
}

TEST(ReliableSoak, JitterOnlyReorderingHealsWithoutAbandonment) {
  runSoak(0.0, 5e-3, 300, 3);
}

}  // namespace
}  // namespace cod::net
