// One routing shard of the Communication Backbone.
//
// The CB partitions its routing core — publication/subscription tables,
// discovery handling and virtual-channel bookkeeping — across CbShard
// units keyed by classNameHash(className) % shards. Every entry for a
// given object class lives on exactly one shard on every node (the hash
// is cross-process stable), so a decoded discovery message routes
// straight to its owning shard and matching is O(entries of that class),
// never O(all tables). Publisher↔subscriber state of one class is
// therefore always intra-shard: local fast-path links, ACK matching and
// reliable delivery never cross a shard boundary.
//
// What a shard does NOT own stays in the CommunicationBackbone facade:
// the transport, the per-peer send coalescer (peers are shared by
// channels of many classes), handle/channel-id allocation (ids must stay
// globally unique and creation-ordered), the shared stats block, and —
// critically — *ordering*. Every wire-order-sensitive walk (discovery
// broadcasts, heartbeats, ACK emission, mailbox delivery, channelHealth)
// is orchestrated by the facade in global creation order (handle or
// channel-id order, whatever shard holds the entry) and dispatched per
// entry into the owning shard, so any shard count produces
// byte-identical wire traffic to shards=1. The timer and mailbox walks
// use a cached creation-ordered list that is rebuilt only when a
// registration or channel index changes, and skip entries whose
// deadline (`timerDue`, `nextBroadcast`) or empty mailbox shows nothing
// to do.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "core/value.hpp"
#include "net/reliable.hpp"
#include "net/transport.hpp"

namespace cod::core {

class CommunicationBackbone;

using LpId = std::uint32_t;
using PublicationHandle = std::uint32_t;
using SubscriptionHandle = std::uint32_t;

inline constexpr std::uint32_t kInvalidHandle = 0;

/// Sentinel for "staging slot not resolved yet" in the channel structs
/// (the slot index caches into the facade's per-peer batch table).
inline constexpr std::uint32_t kNoBatchSlot = 0xFFFFFFFFu;

/// Initial `timerDue` of a new entry: its timer runs on the next tick.
inline constexpr double kTimerDueNow = -std::numeric_limits<double>::infinity();

/// One delivered attribute update, as seen by a subscriber.
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
  /// Cached index into the facade's peer-batch table for this channel's
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
  /// Private send window (flow control, ReliableConfig::
  /// perChannelWindowSplit): allocated when this channel's cumulative
  /// ack lags the shared window by splitLagFrames for splitSustainSec,
  /// so a laggard stops pinning frames every healthy peer already
  /// acked. Null = serving from the publication's shared window (the
  /// only state when the feature is off).
  std::unique_ptr<net::ReliableSendWindow> splitRetx;
  /// Edge timers of the split/merge decision (-1 = condition not
  /// currently observed).
  double lagSinceSec = -1.0;
  double caughtUpSinceSec = -1.0;
  /// Telemetry-closed backpressure: fraction of best-effort updates
  /// actually sent to this peer (1 = all). Reliable channels are never
  /// thinned — their ordering contract is protected by the overflow
  /// policy and the window split instead. `thinDebt` accumulates
  /// (1 - sendFactor) per update and skips one when it reaches 1, so
  /// any factor thins evenly rather than in bursts.
  double sendFactor = 1.0;
  double thinDebt = 0.0;
  /// Cumulative duplicate count last reported by this subscriber in a
  /// WINDOW_ACK dup block (high-water mark; reports are cumulative so
  /// a lost one heals on the next).
  std::uint64_t dupReported = 0;
  /// Highest publisher-side skip already advertised to this channel by
  /// the kDegradeLatestValue eviction path (avoids re-advertising the
  /// same skip every update).
  std::uint64_t lastSkipAdvertised = 0;
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
  /// Per-publication overflow-policy override
  /// (CommunicationBackbone::setPublicationOverflowPolicy); unset means
  /// Config::reliable.overflowPolicy. Remembered here so a window
  /// allocated after the override call still honors it.
  std::optional<net::OverflowPolicy> overflowPolicy;
  /// Exempt from per-peer backpressure thinning
  /// (CommunicationBackbone::setPublicationThinningExempt). Control-plane
  /// streams — telemetry above all — must keep flowing to a struggling
  /// peer: they are how its struggle is observed and how its recovery is
  /// detected, so thinning them would sever the very loop that thins.
  bool thinExempt = false;
  /// Conservative deadline of publicationTimer: never later than the first
  /// tick on which it can act (ACK re-send, keep-alive, window split or
  /// merge, tail retransmit, dead-subscriber timeout). The timer
  /// recomputes it from the fields its checks read; every handler that
  /// changes those fields wakes it to its own clock (CbShard::wake), so
  /// the facade's walk skips the publication until then. Waking early
  /// does nothing.
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
  bool everAcknowledged = false;
  double nextBroadcast = 0.0;
  std::deque<Reflection> mailbox;
  std::optional<Reflection> latest;
};

/// Live shard sizes, for tests and the soak harness's balance checks.
struct CbShardLoad {
  std::size_t publications = 0;
  std::size_t subscriptions = 0;
  std::size_t inChannels = 0;
  std::size_t outChannels = 0;
};

/// One routing shard: the tables for every class whose hash maps here,
/// plus the protocol logic that reads and mutates them. Handlers and
/// timers are invoked by the facade, which owns inbound routing and
/// global wire ordering; sends go back out through the facade's
/// coalescer. Not part of the public API — reach it through
/// CommunicationBackbone.
class CbShard {
 public:
  CbShard(CommunicationBackbone& cb, std::uint32_t index);
  CbShard(const CbShard&) = delete;
  CbShard& operator=(const CbShard&) = delete;

  // --- registration (facade assigns the shard, we own the entry) ---
  void addPublication(PublicationEntry e);
  void addSubscription(SubscriptionEntry e);
  void unpublish(PublicationHandle h);
  void unsubscribe(SubscriptionHandle h);

  // --- lookups ---
  PublicationEntry* publication(PublicationHandle h);
  const PublicationEntry* publication(PublicationHandle h) const;
  SubscriptionEntry* subscription(SubscriptionHandle h);
  const SubscriptionEntry* subscription(SubscriptionHandle h) const;
  InChannel* inChannel(std::uint32_t channelId);
  const InChannel* inChannel(std::uint32_t channelId) const;
  std::size_t sourceCount(SubscriptionHandle h) const;
  CbShardLoad load() const;

  // --- message handlers (routed here by the facade) ---
  void handleSubscription(const SubscriptionMsg& m, const net::NodeAddr& src,
                          double now);
  void handleAcknowledge(const AcknowledgeMsg& m, const net::NodeAddr& src,
                         double now);
  void handleChannelConnection(const ChannelConnectionMsg& m,
                               const net::NodeAddr& src, double now);
  void handleChannelAck(const ChannelAckMsg& m, const net::NodeAddr& src,
                        double now);
  void handleUpdate(UpdateMsg& m, const net::NodeAddr& src, double now);
  /// Publisher keep-alive → refresh our inbound channel.
  void handlePublisherHeartbeat(const HeartbeatMsg& m,
                                const net::NodeAddr& src, double now);
  /// Subscriber keep-alive → refresh our outgoing channel on `pub` (the
  /// facade resolved (src, channelId) → publication via its index).
  void handleSubscriberHeartbeat(PublicationHandle pub, const HeartbeatMsg& m,
                                 const net::NodeAddr& src, double now);
  void handlePublisherBye(const ByeMsg& m, const net::NodeAddr& src);
  void handleSubscriberBye(PublicationHandle pub, const ByeMsg& m,
                           const net::NodeAddr& src);
  void handleNack(PublicationHandle pub, const NackMsg& m,
                  const net::NodeAddr& src, double now);
  void handlePublisherWindowAck(const WindowAckMsg& m,
                                const net::NodeAddr& src, double now);
  void handleSubscriberWindowAck(PublicationHandle pub, const WindowAckMsg& m,
                                 const net::NodeAddr& src, double now);

  // --- timers (facade drives these in global creation order, and only
  // --- once the entry's deadline has come) ---
  /// Discovery broadcast of one subscription; the caller has checked
  /// now >= sub.nextBroadcast.
  void subscriptionTimer(SubscriptionEntry& sub, double now);
  /// Connection retries, NACK/ack emission and keep-alive for one inbound
  /// channel; returns true if the channel has timed out and should drop
  /// after the walk. Recomputes ch.timerDue. `subHeartbeat` is the
  /// tick-shared keep-alive frame scratch (encoded lazily at most once
  /// per tick, re-patched per channel).
  bool inChannelTimer(InChannel& ch, double now,
                      std::vector<std::uint8_t>& subHeartbeat);
  void dropTimedOutInChannel(std::uint32_t channelId, double now);
  /// ACK re-sends, keep-alives, the reliable tail-retransmit sweep and
  /// dead-subscriber timeout for one publication. Recomputes
  /// pub.timerDue.
  void publicationTimer(PublicationEntry& pub, double now,
                        std::vector<std::uint8_t>& pubHeartbeat);

  // --- data plane ---
  /// Returns false iff the update was refused by the shared send
  /// window's OverflowPolicy::kBlockPublisher gate (nothing was sent,
  /// delivered or sequenced; the caller may retry later). Every other
  /// policy always returns true.
  bool update(PublicationEntry& pub, const AttributeSet& attrs,
              double timestamp);

  /// Backpressure hook: set the best-effort thinning factor for every
  /// outgoing channel of this shard whose endpoint is `peer` (clamped
  /// to [0, 1]; 1 restores full rate and clears the thinning debt).
  void setPeerSendFactor(const net::NodeAddr& peer, double factor);

  void removeInChannel(std::uint32_t channelId, bool sendBye);

 private:
  friend class CommunicationBackbone;

  void matchLocal(PublicationEntry& pub);
  /// Bring a timer deadline (an entry's timerDue, a subscription's
  /// nextBroadcast) forward to `now`, and the facade's phase-wide bound
  /// with it. Every write that can make a deadline earlier goes here.
  void wake(double& due, double now);
  void enqueueReflection(SubscriptionEntry& sub, Reflection r);
  /// Decode and enqueue frames the reliable queue released in order.
  /// Non-const: a released trace-tagged frame parks its delivery timing
  /// in `ch.pendingEcho` for the next WINDOW_ACK.
  void deliverReliableReady(InChannel& ch,
                            std::vector<net::ReliableFrame>& ready);
  /// Move `ch.pendingEcho` (if any) onto an outgoing WINDOW_ACK.
  void attachTraceEcho(InChannel& ch, WindowAckMsg& ack, double now);
  /// Attach this channel's cumulative duplicate count to an outgoing
  /// WINDOW_ACK (dup block) when any duplicates have been dropped.
  static void attachDupReport(const InChannel& ch, WindowAckMsg& ack);
  /// The send window serving `ch`: its private split window if one
  /// exists, else the publication's shared window.
  static net::ReliableSendWindow* windowFor(PublicationEntry& pub,
                                            OutChannel& ch);
  /// Split `ch` onto a private send window seeded from the shared one
  /// (everything above its cumulative ack), then re-compact the shared
  /// window the laggard no longer pins.
  void splitChannelWindow(PublicationEntry& pub, OutChannel& ch, double now);
  /// Drop `ch`'s private window and rejoin the shared one (caller has
  /// verified the shared window retains everything still NACKable).
  void mergeChannelWindow(OutChannel& ch);
  /// The split/merge decision for every reliable channel of `pub`
  /// (ReliableConfig::perChannelWindowSplit; no-op when off). Returns
  /// true if it split or merged a window.
  bool runWindowSplitTimer(PublicationEntry& pub, double now);
  /// kDegradeLatestValue: proactively advertise publisher-side skips to
  /// channels whose serving window evicted past their cumulative ack,
  /// without waiting for a NACK round trip.
  void advertiseDegradeSkips(PublicationEntry& pub);
  /// Prune (or drop) a publication's retransmit window after acks or
  /// channel departures.
  void compactSendWindow(PublicationEntry& pub);
  /// The outgoing channel `(src, remoteChannelId)` within `pub`; null if
  /// unknown.
  OutChannel* findOutChannelIn(PublicationEntry& pub, const net::NodeAddr& src,
                               std::uint32_t remoteChannelId);
  static void eraseFromIndex(
      std::unordered_map<std::string, std::vector<std::uint32_t>>& index,
      const std::string& className, std::uint32_t handle);

  CommunicationBackbone& cb_;
  std::uint32_t index_;

  /// Hash tables, not ordered maps: updateAttributeValues and the
  /// reflection paths look these up per update, and nothing needs key
  /// order (iteration-order-sensitive work runs off the facade's
  /// creation-ordered walks). Node-based, so the entry pointers those
  /// walks cache stay valid until the entry is erased.
  std::unordered_map<PublicationHandle, PublicationEntry> publications_;
  std::unordered_map<SubscriptionHandle, SubscriptionEntry> subscriptions_;
  std::map<std::uint32_t, InChannel> inChannels_;  // keyed by channelId

  /// Per-class handle lists (creation order — handles ascend), so
  /// discovery matching is O(entries of the class). Every class maps to
  /// exactly one shard, so these never miss an intra-class match.
  std::unordered_map<std::string, std::vector<PublicationHandle>> pubsByClass_;
  std::unordered_map<std::string, std::vector<SubscriptionHandle>> subsByClass_;
};

}  // namespace cod::core
