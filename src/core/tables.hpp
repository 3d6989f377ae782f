// The routing-table entries of the Communication Backbone: publication,
// subscription and virtual-channel state, as the CommunicationBackbone
// (core/cb.hpp) stores and mutates them. Plain data; the protocol logic
// that reads and writes these lives in core/routing.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/value.hpp"
#include "net/reliable.hpp"
#include "net/transport.hpp"

namespace cod::core {

using LpId = std::uint32_t;
using PublicationHandle = std::uint32_t;
using SubscriptionHandle = std::uint32_t;

inline constexpr std::uint32_t kInvalidHandle = 0;

/// Sentinel for "staging slot not resolved yet" in the channel structs
/// (the slot index caches into the CB's per-peer batch table).
inline constexpr std::uint32_t kNoBatchSlot = 0xFFFFFFFFu;

/// Initial `timerDue` of a new entry: its timer runs on the next tick.
inline constexpr double kTimerDueNow = -std::numeric_limits<double>::infinity();

/// Per-subscription mailbox capacity: a full mailbox drops its oldest
/// reflection to admit the newest (CbStats::mailboxOverflows).
inline constexpr std::size_t kMailboxLimit = 1024;

/// A subscriber re-sends CHANNEL_CONNECTION, and a publisher re-sends the
/// CHANNEL_ACK of a reliable channel, this long after the last attempt
/// while the handshake is still unanswered.
inline constexpr double kConnectRetrySec = 0.2;

/// Keep-alive cadence on live channels: either side sends a HEARTBEAT
/// once it has sent nothing else on a channel for this long.
inline constexpr double kHeartbeatIntervalSec = 0.5;

/// One delivered attribute update, as seen by a subscriber. The CB decodes
/// each update once into an immutable shared Reflection: the mailbox entry
/// and the subscription's `latest` hold the same one, and a local update
/// builds one for all its same-computer subscribers.
struct Reflection {
  std::string className;
  AttributeSet attrs;
  double timestamp = 0.0;
  std::uint64_t seq = 0;
};

/// Publisher side of one virtual channel.
struct OutChannel {
  std::uint32_t remoteChannelId = 0;
  net::NodeAddr remote;
  /// Cached index into the CB's peer-batch table for this channel's
  /// endpoint, so the per-update fan-out stages without an address lookup.
  std::uint32_t batchSlot = kNoBatchSlot;
  double lastSentSec = 0.0;   // last update/heartbeat we sent
  double lastHeardSec = 0.0;  // last heartbeat from the subscriber
  net::QosClass qos = net::QosClass::kBestEffort;
  /// Reliable channels: first sequence owed to this channel (fixed at
  /// creation; re-ACKs repeat it so a lost CHANNEL_ACK cannot shift the
  /// base) and the highest sequence the subscriber has cumulatively
  /// acknowledged.
  std::uint64_t firstSeq = 0;
  std::uint64_t cumAcked = 0;
  /// Reliable channels re-send CHANNEL_ACK until the first WINDOW_ACK
  /// proves the subscriber knows the channel's QoS and base — without
  /// this, a lost ack on a publisher-upgraded channel would leave the
  /// subscriber in newest-wins mode forever (inbound data stops its own
  /// connection retries).
  bool windowAckSeen = false;
  double lastAckResendSec = 0.0;
  /// True once the subscriber provably knows this channel's QoS: from
  /// creation when it requested it, else from its first WINDOW_ACK.
  /// Until then a publisher-upgraded channel carries no data — a
  /// QoS-blind subscriber would consume it newest-wins and permanently
  /// skip whatever was lost. Frames are window-buffered meanwhile and
  /// recovered through the normal retransmit path once confirmed.
  bool qosConfirmed = true;
  /// Frames re-sent on this channel (NACK-driven + tail timeout), for
  /// the per-channel health export.
  std::uint64_t retransmits = 0;
  /// Highest sequence ever transmitted on this channel (0 = none).
  /// Frames withheld while !qosConfirmed make their *first* trip
  /// through the retransmit machinery after confirmation; this high
  /// water mark lets those be counted as first transmissions
  /// (dataFramesSent) instead of retransmits, keeping the
  /// reliable-layer loss estimate unbiased under channel upgrades.
  std::uint64_t maxSentSeq = 0;
  /// Cumulative duplicate count last reported by this subscriber in a
  /// WINDOW_ACK dup block (high-water mark; reports are cumulative so
  /// a lost one heals on the next).
  std::uint64_t dupReported = 0;
};

/// One publication-table entry.
struct PublicationEntry {
  PublicationHandle id = 0;
  LpId lp = 0;
  std::string className;
  net::QosClass qos = net::QosClass::kBestEffort;  // channel QoS floor
  std::uint64_t nextSeq = 1;
  std::vector<OutChannel> channels;
  std::vector<SubscriptionHandle> localSubscribers;  // fast path links
  /// Retransmit window, shared by every reliable channel of this
  /// publication (frames differ only in the patched channel id).
  /// Allocated on the first reliable channel.
  std::unique_ptr<net::ReliableSendWindow> retx;
  /// Conservative deadline of publicationTimer: never later than the first
  /// tick on which it can act (ACK re-send, keep-alive, tail retransmit,
  /// dead-subscriber timeout). The timer recomputes it from the fields its
  /// checks read; every handler that changes those fields wakes it to its
  /// own clock (CommunicationBackbone::wake), so the timer walk skips the
  /// publication until then. Waking early does nothing.
  double timerDue = kTimerDueNow;
};

/// Delivery timing of the most recent sampled (trace-tagged) update
/// released in order on a channel, waiting to be echoed to the publisher
/// on the next WINDOW_ACK. One slot suffices: sampling is sparse (1-in-N)
/// and a newer sample superseding an un-echoed older one just thins the
/// sample stream, never biases it.
struct PendingTraceEcho {
  std::uint64_t seq = 0;
  double tagSec = 0.0;      // publisher clock, echoed verbatim
  double releaseSec = 0.0;  // our clock at in-order release
};

/// Subscriber side of one virtual channel.
struct InChannel {
  std::uint32_t channelId = 0;
  SubscriptionHandle subscription = 0;
  net::NodeAddr remote;
  std::uint32_t batchSlot = kNoBatchSlot;  // see OutChannel::batchSlot
  std::uint32_t remotePublicationId = 0;
  bool live = false;          // CHANNEL_ACK received
  double lastConnectSent = 0.0;
  double lastActivity = 0.0;       // last traffic from the publisher
  double lastHeartbeatSent = 0.0;  // our own keep-alives to the publisher
  std::uint64_t lastSeq = 0;       // newest-wins cursor (best effort)
  net::QosClass qos = net::QosClass::kBestEffort;
  /// Present iff the channel is reliable: gap detection, NACK pacing
  /// and in-order release.
  std::unique_ptr<net::ReliableReceiveQueue> rq;
  /// Sampled-update delivery timing owed to the publisher (see
  /// PendingTraceEcho); rides out on the next WINDOW_ACK.
  std::optional<PendingTraceEcho> pendingEcho;
  /// Conservative deadline of inChannelTimer (connect retry, NACK, ack,
  /// keep-alive, timeout); same contract as PublicationEntry::timerDue.
  double timerDue = kTimerDueNow;
};

/// One subscription-table entry.
struct SubscriptionEntry {
  SubscriptionHandle id = 0;
  LpId lp = 0;
  std::string className;
  net::QosClass qos = net::QosClass::kBestEffort;  // requested per channel
  double nextBroadcast = 0.0;
  std::deque<std::shared_ptr<const Reflection>> mailbox;
  std::shared_ptr<const Reflection> latest;
};

/// Live routing-table sizes (CommunicationBackbone::tableLoad), for tests
/// and the telemetry record.
struct CbTableLoad {
  std::size_t publications = 0;
  std::size_t subscriptions = 0;
  std::size_t inChannels = 0;
  std::size_t outChannels = 0;
};

}  // namespace cod::core
