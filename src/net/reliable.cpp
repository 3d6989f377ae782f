#include "net/reliable.hpp"

#include <algorithm>

namespace cod::net {

namespace {

/// A duration between two clock readings, rounded to the microsecond. A
/// reading far from zero carries rounding noise of its own (an ulp of
/// 4000 s is ~1e-12 s); the 4·RTTVAR term and backoff doublings would
/// carry that past dueAfter's few-ulp margin, and equal round trips would
/// repeat their NACKs on different ticks depending on the clock's origin.
double measured(double sec) { return std::round(sec * 1e6) * 1e-6; }

}  // namespace

// ---- ReliableSendWindow -------------------------------------------------

void ReliableSendWindow::store(std::uint64_t seq,
                               std::vector<std::uint8_t> frame, double now) {
  Entry e;
  e.frame = std::move(frame);
  e.lastSentSec = now;  // storing happens at first send
  frames_[seq] = std::move(e);
  ++stats_->framesBuffered;
  while (frames_.size() > kSendWindowFrames) {
    highestEvicted_ = std::max(highestEvicted_, frames_.begin()->first);
    frames_.erase(frames_.begin());
    ++stats_->sendWindowEvictions;
  }
}

std::vector<std::uint8_t>* ReliableSendWindow::frame(std::uint64_t seq) {
  const auto it = frames_.find(seq);
  return it != frames_.end() ? &it->second.frame : nullptr;
}

void ReliableSendWindow::markSent(std::uint64_t seq, double now) {
  const auto it = frames_.find(seq);
  if (it == frames_.end()) return;
  if (retxDelayHist_ != nullptr)
    retxDelayHist_->record(now - it->second.lastSentSec);
  it->second.lastSentSec = now;
  ++stats_->retransmitsSent;
}

void ReliableSendWindow::touchSent(std::uint64_t seq, double now) {
  const auto it = frames_.find(seq);
  if (it == frames_.end()) return;
  it->second.lastSentSec = now;
}

void ReliableSendWindow::pruneThrough(std::uint64_t throughSeq) {
  while (!frames_.empty() && frames_.begin()->first <= throughSeq) {
    frames_.erase(frames_.begin());
    ++stats_->framesPruned;
  }
}

std::vector<std::uint64_t> ReliableSendWindow::takeTailRetransmits(
    std::uint64_t minUnacked, double now) {
  std::vector<std::uint64_t> due;
  for (auto it = frames_.lower_bound(minUnacked); it != frames_.end(); ++it) {
    if (now - it->second.lastSentSec < kRetxTimeoutSec) continue;
    if (retxDelayHist_ != nullptr)
      retxDelayHist_->record(now - it->second.lastSentSec);
    it->second.lastSentSec = now;
    // retransmitsSent is NOT counted here: the caller re-sends each due
    // frame on zero or more channels and counts one retransmit per
    // channel actually staged — the same per-channel unit markSent (the
    // NACK path) and dataFramesSent use, which the reliable-layer loss
    // estimate divides against.
    due.push_back(it->first);
    if (due.size() >= kMaxRetransmitPerSweep) break;
  }
  return due;
}

double ReliableSendWindow::earliestUnackedSentSec(
    std::uint64_t minUnacked) const {
  double earliest = std::numeric_limits<double>::infinity();
  for (auto it = frames_.lower_bound(minUnacked); it != frames_.end(); ++it)
    earliest = std::min(earliest, it->second.lastSentSec);
  return earliest;
}

// ---- ReliableReceiveQueue -----------------------------------------------

void ReliableReceiveQueue::setBase(std::uint64_t firstSeq,
                                   std::vector<ReliableFrame>& ready) {
  if (baseKnown_) {
    // A repeated CHANNEL_ACK means the sender has not heard from us:
    // re-announce our position.
    ackDue_ = true;
    return;
  }
  baseKnown_ = true;
  nextExpected_ = firstSeq;
  // Frames below the base predate this channel and are not owed to it.
  buffer_.erase(buffer_.begin(), buffer_.lower_bound(firstSeq));
  release(ready);
  ackDue_ = true;  // announce our position to the sender
}

void ReliableReceiveQueue::release(std::vector<ReliableFrame>& ready) {
  auto it = buffer_.find(nextExpected_);
  while (it != buffer_.end()) {
    ready.push_back(std::move(it->second));
    buffer_.erase(it);
    ++nextExpected_;
    ++stats_->gapsHealed;
    it = buffer_.find(nextExpected_);
  }
}

ReliableReceiveQueue::Offer ReliableReceiveQueue::offer(
    ReliableFrame frame, double now, std::vector<ReliableFrame>& ready) {
  maxSeen_ = std::max(maxSeen_, frame.seq);
  if (baseKnown_) {
    if (frame.seq < nextExpected_) {
      ++stats_->duplicatesDropped;
      ++duplicatesDropped_;
      ackDue_ = true;  // the sender evidently missed our last ack
      noteDuplicate(frame.seq, now);
      return Offer::kDuplicate;
    }
    if (frame.seq == nextExpected_) {
      // Every tracked hole sits at or above nextExpected_, so the one this
      // frame fills, if any, is the first.
      if (!holes_.empty() && holes_.begin()->first == frame.seq)
        noteFill(holes_.begin(), now);
      ready.push_back(std::move(frame));
      ++nextExpected_;
      release(ready);
      ackDue_ = true;
      return Offer::kDelivered;
    }
  }
  // Out of order, or the base is still unknown: hold the frame.
  if (buffer_.contains(frame.seq)) {
    ++stats_->duplicatesDropped;
    ++duplicatesDropped_;
    noteDuplicate(frame.seq, now);
    return Offer::kDuplicate;
  }
  if (buffer_.size() >= kReorderLimit) {
    ++stats_->reorderOverflows;
    return Offer::kOverflow;  // stays missing; a NACK will re-fetch it
  }
  if (const auto hole = holes_.find(frame.seq); hole != holes_.end())
    noteFill(hole, now);
  buffer_.emplace(frame.seq, std::move(frame));
  ++stats_->outOfOrderBuffered;
  return Offer::kBuffered;
}

void ReliableReceiveQueue::noteFill(
    std::map<std::uint64_t, Hole>::iterator hole, double now) {
  const std::uint64_t seq = hole->first;
  const Hole h = hole->second;
  holes_.erase(hole);
  const double lateness = measured(now - h.since);
  if (h.nacks == 0) {
    // Healed before its NACK: reordering the window has to cover.
    reorderWindow_ =
        std::max(reorderWindow_, std::min(lateness, kMaxNackWaitSec));
    return;
  }
  if (h.nacks == 1) {
    // Karn's rule: after a repeat, the fill cannot say which NACK it
    // answers. RFC 6298 smoothing otherwise.
    const double rtt = measured(now - h.nackedAt);
    if (srtt_ < 0.0) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {
      rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
      srtt_ = 0.875 * srtt_ + 0.125 * rtt;
    }
  }
  backoff_ = 0;  // the peer answers again
  while (!fills_.empty() &&
         now >= dueAfter(fills_.front().at, kMaxNackWaitSec))
    fills_.pop_front();  // past any repair timeout
  fills_.push_back(Fill{seq, now, lateness, h.nacks});
}

void ReliableReceiveQueue::noteDuplicate(std::uint64_t seq, double now) {
  for (auto it = fills_.begin(); it != fills_.end(); ++it) {
    if (it->seq != seq) continue;
    // Two copies within one repair timeout: the hole would have healed
    // without a NACK. A later duplicate, such as a tail-RTO re-send, says
    // nothing about the NACK. Only a hole NACKed once shows reordering:
    // after a repeat, the copies may be two repairs, or a repair and the
    // sender's own tail re-send.
    if (now < dueAfter(it->at, repairTimeoutSec())) {
      ++stats_->spuriousNacks;
      if (it->nacks == 1)
        reorderWindow_ =
            std::max(reorderWindow_, std::min(it->lateness, kMaxNackWaitSec));
    }
    fills_.erase(it);
    return;
  }
}

double ReliableReceiveQueue::repairTimeoutSec() const {
  if (srtt_ < 0.0) return kMaxNackWaitSec;
  const double rto = srtt_ + std::max(kMinRepairVarianceSec, 4 * rttvar_);
  return std::min(kMaxNackWaitSec, std::ldexp(rto, backoff_));
}

std::uint64_t ReliableReceiveQueue::abandonThrough(
    std::uint64_t throughSeq, std::vector<ReliableFrame>& ready) {
  if (!baseKnown_ || throughSeq < nextExpected_) return 0;
  // Buffered frames inside the abandoned range are still deliverable; only
  // the true holes are lost.
  std::uint64_t range = throughSeq - nextExpected_ + 1;
  for (auto it = buffer_.begin();
       it != buffer_.end() && it->first <= throughSeq;) {
    ready.push_back(std::move(it->second));
    it = buffer_.erase(it);
    --range;
  }
  holes_.erase(holes_.begin(), holes_.upper_bound(throughSeq));
  nextExpected_ = throughSeq + 1;
  release(ready);
  stats_->gapsAbandoned += range;
  ackDue_ = true;
  return range;
}

std::vector<std::uint64_t> ReliableReceiveQueue::collectNacks(double now) {
  if (!baseKnown_ || buffer_.empty()) {
    holes_.clear();
    return {};
  }
  // Enumerate the holes below the buffered frames. Track more than one
  // NACK's worth so later holes age while earlier ones are in repair.
  const std::size_t trackCap = 4 * kMaxNacksPerMessage;
  std::vector<std::uint64_t> current;
  std::uint64_t seq = nextExpected_;
  for (const auto& [held, f] : buffer_) {
    for (; seq < held && current.size() < trackCap; ++seq)
      current.push_back(seq);
    if (current.size() >= trackCap) break;
    seq = held + 1;
  }
  // Age each hole individually: drop the healed, stamp the new.
  for (auto it = holes_.begin(); it != holes_.end();) {
    if (std::binary_search(current.begin(), current.end(), it->first)) {
      ++it;
    } else {
      it = holes_.erase(it);
    }
  }
  for (const std::uint64_t s : current) holes_.try_emplace(s, Hole{now});
  // A fresh hole is due once it outlives the reorder window, a NACKed one
  // once the repair timeout has passed since its last NACK. A NACK leaves
  // when a fresh hole is due; repeats ride along, and on their own wait
  // out the timeout since the channel's last NACK too, so one message
  // repeats every hole that is due and a silent peer draws one NACK per
  // timeout.
  const double rto = repairTimeoutSec();
  const auto freshDue = [&](const Hole& h) {
    return h.nacks == 0 && now >= dueAfter(h.since, reorderWindow_);
  };
  if (now < dueAfter(lastNackSec_, rto) &&
      std::none_of(holes_.begin(), holes_.end(),
                   [&](const auto& e) { return freshDue(e.second); }))
    return {};
  std::vector<std::uint64_t> due;
  bool repeat = false;
  for (auto& [s, h] : holes_) {
    if (h.nacks == 0 ? !freshDue(h) : now < dueAfter(h.nackedAt, rto))
      continue;
    repeat = repeat || h.nacks > 0;
    ++h.nacks;
    h.nackedAt = now;
    due.push_back(s);
    if (due.size() >= kMaxNacksPerMessage) break;
  }
  if (due.empty()) return {};
  // A repeat means the hole's last NACK went unanswered: back off.
  if (repeat && rto < kMaxNackWaitSec) ++backoff_;
  lastNackSec_ = now;
  ++stats_->nacksSent;
  return due;
}

std::optional<std::uint64_t> ReliableReceiveQueue::collectAck(double now) {
  if (!baseKnown_ || !ackDue_) return std::nullopt;
  if (now - lastAckSec_ < cfg_->ackIntervalSec) return std::nullopt;
  lastAckSec_ = now;
  ackDue_ = false;
  ++stats_->windowAcksSent;
  return nextExpected_ == 0 ? 0 : nextExpected_ - 1;
}

double ReliableReceiveQueue::nextTimerDue() const {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  if (!baseKnown_) return kNever;
  double due = ackDue_ ? dueAfter(lastAckSec_, cfg_->ackIntervalSec) : kNever;
  // collectNacks' two conditions: a fresh hole outlives the reorder
  // window, or a NACKed hole's repair timeout has passed since both its
  // own last NACK and the channel's.
  const double rto = repairTimeoutSec();
  double repeatDue = kNever;
  for (const auto& [seq, h] : holes_) {
    if (h.nacks == 0) {
      due = std::min(due, dueAfter(h.since, reorderWindow_));
    } else {
      repeatDue = std::min(repeatDue, dueAfter(h.nackedAt, rto));
    }
  }
  if (repeatDue < kNever)
    due = std::min(due, std::max(repeatDue, dueAfter(lastNackSec_, rto)));
  return due;
}

std::optional<std::uint64_t> ReliableReceiveQueue::piggybackAck(double now) {
  if (!baseKnown_) return std::nullopt;
  lastAckSec_ = now;
  ackDue_ = false;
  ++stats_->windowAcksSent;
  return nextExpected_ == 0 ? 0 : nextExpected_ - 1;
}

}  // namespace cod::net
