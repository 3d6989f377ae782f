// Per-channel reliable delivery over unreliable datagrams.
//
// The CB's virtual channels are newest-wins by default (kBestEffort): a
// lost UPDATE is simply superseded by the next one, which is the right
// trade for 16 fps surround-view state. Exam scoring and instructor
// control traffic must never drop, so a channel can instead be opened as
// kReliableOrdered: the sender keeps a bounded window of already-encoded
// frames for retransmission, the receiver detects sequence gaps, NACKs
// the missing frames, buffers out-of-order arrivals, and releases them
// strictly in order.
//
// This header is transport-level machinery only — it moves opaque frames
// and sequence numbers and knows nothing about the CB message vocabulary.
// The CB owns the wire messages (kNack / kWindowAck in core/protocol.hpp)
// and drives these two classes from its datagram handlers and timers:
//
//   sender (one window per publication, frames shared across channels):
//     store() every reliable UPDATE frame once; NACKs and the
//     retransmit timeout (takeTailRetransmits) re-send from the window;
//     cumulative WindowAcks prune it.
//   receiver (one queue per reliable in-channel):
//     offer() each arriving frame; in-order frames come back immediately,
//     out-of-order frames are buffered until the gap heals;
//     collectNacks()/collectAck() tell the CB when to emit control
//     messages.
//
// Loss of the *last* frame of a burst produces no observable gap at the
// receiver, so NACKs alone cannot guarantee delivery; the sender-side
// retransmit timeout covers the tail.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "telemetry/hist.hpp"  // std-only header; no layering cycle

namespace cod::net {

/// Delivery guarantee of one virtual channel.
enum class QosClass : std::uint8_t {
  kBestEffort = 0,       // newest-wins; lost updates are superseded
  kReliableOrdered = 1,  // every update delivered, in publication order
};

/// The earliest clock value at which `now - since >= interval` can hold:
/// the deadline form of the interval checks the reliable layer and the CB
/// timers make. It is a few ulps early, so that floating-point rounding
/// can make a timer wake early (its own check then does nothing) but
/// never late.
inline double dueAfter(double since, double interval) {
  if (std::isinf(since)) return since;
  return since + interval - 4 * std::numeric_limits<double>::epsilon() *
                                (std::abs(since) + std::abs(interval));
}

/// Ceiling of the receiver's learned NACK timing, and its starting repair
/// timeout: a hole waits at most this long for its first NACK, NACKs are
/// repeated this far apart until the peer has answered one, and a peer
/// that stops answering backs off to it. A silent peer is therefore
/// NACKed at most once per kMaxNackWaitSec.
inline constexpr double kMaxNackWaitSec = 0.05;
/// Floor of the repair timeout's variance term (RFC 6298's clock
/// granularity G): a steady round trip still leaves one clock tick of
/// slack before a NACK is repeated.
inline constexpr double kMinRepairVarianceSec = 0.001;

/// Sender-side retransmit timeout: an unacknowledged frame older than this
/// is re-sent unprompted (covers tail loss, where the receiver never
/// learns a gap exists).
inline constexpr double kRetxTimeoutSec = 0.25;
/// Retransmit buffer cap, frames per publication, and the window's only
/// memory bound. Overflow evicts the oldest frame — receivers that still
/// miss it are told to skip, so a too-small window degrades to counted
/// loss instead of livelock.
inline constexpr std::size_t kSendWindowFrames = 512;
/// Receiver reorder buffer cap, frames per channel.
inline constexpr std::size_t kReorderLimit = 1024;
/// Missing sequence numbers listed per NACK message.
inline constexpr std::size_t kMaxNacksPerMessage = 64;
/// Frames re-sent per retransmit-timeout sweep per publication.
inline constexpr std::size_t kMaxRetransmitPerSweep = 32;

/// Tunables of the reliable layer (CB config embeds one).
struct ReliableConfig {
  /// Cadence of cumulative WindowAcks from the receiver.
  double ackIntervalSec = 0.1;
};

/// Counters for tests, benches and the instructor monitor.
struct ReliableStats {
  std::uint64_t framesBuffered = 0;      // sender: frames stored
  std::uint64_t framesPruned = 0;        // sender: acked and released
  std::uint64_t sendWindowEvictions = 0; // sender: overflow evictions
  /// Sender: frame re-sends, one per channel per re-send (NACK-driven via
  /// markSent; tail-RTO counted by the CB as it stages each channel).
  std::uint64_t retransmitsSent = 0;
  /// Sender: original (first-attempt) data frames staged on reliable
  /// channels, one per channel per update. With retransmitsSent this
  /// yields a loss estimate that needs no network omniscience: every
  /// lost attempt is eventually re-sent exactly once per loss, so
  /// retransmitsSent / (dataFramesSent + retransmitsSent) converges on
  /// the path's datagram loss rate — the only loss observable a real
  /// socket deployment has (transport.hpp: framesDropped stays 0 there).
  std::uint64_t dataFramesSent = 0;
  std::uint64_t nacksReceived = 0;       // sender side
  std::uint64_t windowAcksReceived = 0;  // sender side
  std::uint64_t nacksSent = 0;           // receiver side
  std::uint64_t windowAcksSent = 0;      // receiver side
  std::uint64_t outOfOrderBuffered = 0;  // receiver: held for a gap
  std::uint64_t gapsHealed = 0;          // receiver: released from buffer
  std::uint64_t duplicatesDropped = 0;   // receiver: seq already delivered
  std::uint64_t reorderOverflows = 0;    // receiver: buffer cap hit
  std::uint64_t gapsAbandoned = 0;       // receiver: skipped on sender's order
  /// Sender: duplicates subscribers reported back via WINDOW_ACK dup
  /// blocks — retransmits that arrived after the original made it. The
  /// loss estimate subtracts them: a delivered-twice frame was never a
  /// network loss, just an ack that lost the race with the tail RTO.
  std::uint64_t peerDuplicatesReported = 0;
  /// Receiver: duplicates of a NACKed sequence that arrived within one
  /// repair timeout of its fill — the hole would have healed without
  /// (all of) its NACKs. Not on the telemetry wire.
  std::uint64_t spuriousNacks = 0;
};

/// One data frame as the reliable layer sees it: an opaque payload with
/// the publication-global sequence number and sender timestamp.
struct ReliableFrame {
  std::uint64_t seq = 0;
  double timestamp = 0.0;
  std::vector<std::uint8_t> payload;
  /// End-to-end latency sampling (core/protocol.hpp trace tag): set when
  /// the UPDATE carried a tag. `tagSec` is the publisher-clock publish
  /// time (echoed back verbatim, never interpreted here); `arrivalSec` is
  /// the receiver-clock arrival time, so release minus arrival is the
  /// reorder-buffer hold.
  bool traced = false;
  double tagSec = 0.0;
  double arrivalSec = 0.0;
};

/// Sender half: a bounded window of already-encoded UPDATE frames, keyed
/// by sequence number. One window serves every reliable channel of a
/// publication — frames differ between channels only in the 4-byte
/// channel id, which the CB patches at (re)send time, so buffering stays
/// one copy per update, not one per channel.
class ReliableSendWindow {
 public:
  explicit ReliableSendWindow(ReliableStats& stats) : stats_(&stats) {}

  /// Buffer one encoded frame (copies; the live frame buffer is reused by
  /// the caller). Evicts the oldest frames beyond the frame cap.
  void store(std::uint64_t seq, std::vector<std::uint8_t> frame, double now);

  /// The stored frame for `seq`, or null if never stored / already
  /// pruned / evicted. Mutable so the caller can patch the channel id in
  /// place before re-sending.
  std::vector<std::uint8_t>* frame(std::uint64_t seq);

  /// Note that `seq` was just re-sent — restarts its retransmit timeout
  /// and counts one retransmit.
  void markSent(std::uint64_t seq, double now);

  /// Observe the delay between successive (re)transmissions of each frame
  /// in `hist` (telemetry's reliable.retxDelaySec). Not owned; null (the
  /// default) disables the observation.
  void attachRetransmitDelayHistogram(telemetry::LogHistogram* hist) {
    retxDelayHist_ = hist;
  }

  /// Restart `seq`'s retransmit timeout WITHOUT counting a retransmit:
  /// the first transmission of a frame that was window-buffered while its
  /// channel's QoS was unconfirmed goes through the retransmit plumbing
  /// but is data, not a re-send — counting it as one would bias the
  /// reliable-layer loss estimate.
  void touchSent(std::uint64_t seq, double now);

  /// Drop every frame with seq <= `throughSeq` (cumulatively acked by all
  /// reliable channels).
  void pruneThrough(std::uint64_t throughSeq);

  /// Frames unacked beyond the retransmit timeout, oldest first, capped
  /// at kMaxRetransmitPerSweep. `minUnacked` is the smallest sequence any
  /// live channel still waits for. Marks the returned frames sent.
  std::vector<std::uint64_t> takeTailRetransmits(std::uint64_t minUnacked,
                                                 double now);

  /// Earliest (re)send time of a stored frame with seq >= `minUnacked`
  /// (+inf if there is none): takeTailRetransmits(minUnacked, now)
  /// returns nothing while now - this < kRetxTimeoutSec. Only a store or a
  /// lower `minUnacked` can bring it forward.
  double earliestUnackedSentSec(std::uint64_t minUnacked) const;

  /// Highest sequence ever evicted by overflow (0 if none): receivers
  /// NACKing at or below it must be told to skip.
  std::uint64_t highestEvicted() const { return highestEvicted_; }
  std::size_t size() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }
  void clear() { frames_.clear(); }

 private:
  struct Entry {
    std::vector<std::uint8_t> frame;
    double lastSentSec = 0.0;
  };

  ReliableStats* stats_;
  telemetry::LogHistogram* retxDelayHist_ = nullptr;
  std::map<std::uint64_t, Entry> frames_;
  std::uint64_t highestEvicted_ = 0;
};

/// Receiver half: gap detection, NACK scheduling and in-order release for
/// one reliable in-channel.
///
/// Sequence numbers are publication-global, so a channel opened mid-stream
/// must learn its base — the first sequence it is owed — from the
/// publisher's CHANNEL_ACK. Frames arriving before the base is known are
/// buffered, never delivered or NACKed (their gaps cannot be told from
/// history that predates the channel).
///
/// NACK timing is learned per channel rather than configured, after RACK
/// (RFC 8985) and the RFC 6298 retransmit timer:
///   - a hole is NACKed once it outlives the channel's reorder window.
///     The window starts at 0 and widens to the lateness actually seen:
///     how long a hole stayed open when it healed before its NACK, or
///     when, NACKed once, it drew a duplicate within one repair timeout
///     of the fill (the NACK was spurious);
///   - a NACKed hole is NACKed again once the repair timeout has passed
///     since its last NACK and since the channel's last NACK message. The
///     timeout is SRTT + max(kMinRepairVarianceSec, 4·RTTVAR) over
///     NACK→fill samples, taken only from holes NACKed exactly once
///     (Karn's rule). It starts at kMaxNackWaitSec, doubles with every
///     NACK that repeats an unanswered one, and drops back to the
///     estimate when a NACKed hole fills.
/// Both are capped at kMaxNackWaitSec.
class ReliableReceiveQueue {
 public:
  ReliableReceiveQueue(const ReliableConfig& cfg, ReliableStats& stats)
      : cfg_(&cfg), stats_(&stats) {}

  /// Learn the channel's base sequence (idempotent; only the first call
  /// takes effect). Frames already buffered at or above the base become
  /// releasable and are appended to `ready` in order.
  void setBase(std::uint64_t firstSeq, std::vector<ReliableFrame>& ready);
  bool baseKnown() const { return baseKnown_; }

  enum class Offer : std::uint8_t {
    kDelivered,  // appended to `ready` (possibly with healed successors)
    kBuffered,   // out of order or pre-base; held
    kDuplicate,  // already delivered
    kOverflow,   // reorder buffer full; frame dropped (will be NACKed)
  };

  /// Feed one frame that arrived at `now`; releasable frames (this one and
  /// any healed successors) are appended to `ready` strictly in sequence
  /// order. A frame that fills a tracked hole, or duplicates a recent
  /// fill, updates the channel's learned NACK timing.
  Offer offer(ReliableFrame frame, double now,
              std::vector<ReliableFrame>& ready);

  /// Sender declared frames <= `throughSeq` unrecoverable (evicted from
  /// its window): skip them so the stream can resume. Releasable buffered
  /// frames are appended to `ready`. Returns how many sequences were
  /// abandoned.
  std::uint64_t abandonThrough(std::uint64_t throughSeq,
                               std::vector<ReliableFrame>& ready);

  /// Missing sequence numbers to NACK now: holes that outlived the
  /// reorder window, plus NACKed holes whose repair timeout has passed
  /// (empty if none is due). Each hole is aged from when this poll first
  /// saw it. Caps at kMaxNacksPerMessage.
  std::vector<std::uint64_t> collectNacks(double now);

  /// Cumulative sequence to acknowledge now, if an ack is due (progress
  /// was made, or duplicates suggest the sender missed the last ack).
  std::optional<std::uint64_t> collectAck(double now);

  /// Earliest clock value at which collectNacks or collectAck can return
  /// something (+inf if neither can until the queue is fed again). Valid
  /// once collectNacks has run after the last offer, setBase or
  /// abandonThrough: feeding can open holes whose ageing only that poll
  /// starts, so a fed queue must be polled at once.
  double nextTimerDue() const;

  /// Cumulative sequence to piggyback on a keep-alive that is leaving
  /// anyway (the CB batches it into the same heartbeat datagram). Unlike
  /// collectAck it ignores the pacing interval and the progress flag — the
  /// marginal cost of riding along is a few bytes — and it stamps the
  /// pacing clock, so the separate ack that would have followed is
  /// absorbed. nullopt until the base is known.
  std::optional<std::uint64_t> piggybackAck(double now);

  /// Next sequence owed to the subscriber (0 while the base is unknown).
  std::uint64_t nextExpected() const { return nextExpected_; }
  std::uint64_t maxSeen() const { return maxSeen_; }
  std::size_t buffered() const { return buffer_.size(); }
  /// Cumulative duplicates dropped on THIS channel — reported back to the
  /// publisher in WINDOW_ACK dup blocks so its loss estimate can subtract
  /// retransmits that were delivered twice rather than lost.
  std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  /// How long a fresh hole waits for its first NACK.
  double reorderWindowSec() const { return reorderWindow_; }
  /// How long a NACKed hole waits before it is NACKed again.
  double repairTimeoutSec() const;

 private:
  /// A missing sequence as collectNacks tracks it.
  struct Hole {
    double since = 0.0;     // first poll that saw it missing
    double nackedAt = 0.0;  // last NACK that listed it
    std::uint32_t nacks = 0;
  };
  /// A NACKed hole that filled recently: a duplicate of it within one
  /// repair timeout marks the NACK spurious.
  struct Fill {
    std::uint64_t seq = 0;
    double at = 0.0;
    double lateness = 0.0;    // how long the hole stayed open
    std::uint32_t nacks = 0;  // NACKs that listed it
  };

  void release(std::vector<ReliableFrame>& ready);
  /// `hole` just filled at `now`: learn from it, then forget it.
  void noteFill(std::map<std::uint64_t, Hole>::iterator hole, double now);
  /// A duplicate of `seq` arrived at `now`.
  void noteDuplicate(std::uint64_t seq, double now);

  const ReliableConfig* cfg_;
  ReliableStats* stats_;
  std::map<std::uint64_t, ReliableFrame> buffer_;
  /// The currently-missing sequences, maintained lazily by collectNacks
  /// (healed holes are dropped); every key is >= nextExpected_.
  std::map<std::uint64_t, Hole> holes_;
  /// NACKed holes filled within the last kMaxNackWaitSec, oldest first.
  std::deque<Fill> fills_;
  bool baseKnown_ = false;
  std::uint64_t nextExpected_ = 0;
  std::uint64_t maxSeen_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
  double reorderWindow_ = 0.0;
  /// Smoothed NACK→fill round trip and its mean deviation; srtt_ < 0
  /// until the first sample.
  double srtt_ = -1.0;
  double rttvar_ = 0.0;
  /// Doublings of the repair timeout since the last fill of a NACKed hole.
  int backoff_ = 0;
  double lastNackSec_ = -1e300;
  double lastAckSec_ = -1e300;
  bool ackDue_ = false;
};

}  // namespace cod::net
