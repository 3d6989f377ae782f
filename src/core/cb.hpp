// The Communication Backbone (CB) — the paper's primary contribution (§2).
//
// One CB runs on every computer of the COD cluster as a transparent
// communication layer. Logical Processes (LPs) attach to their resident CB
// and use HLA-style service calls (publishObjectClass, subscribeObjectClass,
// updateAttributeValues) without knowing where — or whether — matching LPs
// exist. The CB performs:
//
//  * the broadcast-until-ACKNOWLEDGE initialization protocol that discovers
//    publishers for each subscription and builds *virtual channels*
//    (publication-table entry linked to a remote subscription-table entry);
//  * update routing over those channels, delivered to subscribers as
//    reflect callbacks from tick(), with a same-computer fast path when
//    publisher and subscriber share a CB;
//  * dynamic join: a publisher CB keeps listening while it executes, so a
//    new LP (e.g. an extra display) can be plugged in without restarting
//    the system;
//  * liveness (heartbeats, channel timeout) and teardown (BYE);
//  * per-channel QoS: kBestEffort channels are the paper's newest-wins
//    path; kReliableOrdered channels add a NACK/retransmit window and
//    in-order delivery (net/reliable.hpp) for traffic that must not drop,
//    such as exam scoring and instructor commands;
//  * tick-coalesced sending: outbound frames (updates, heartbeats, acks,
//    NACKs, retransmits) are staged per destination and leave as one
//    kBatch container datagram per peer per flush — the paper's 16 fps
//    surround view pushes 3+ attribute sets per frame, and without
//    coalescing each one costs a datagram per channel.
//
// The routing tables (core/tables.hpp) and the handlers and timers that
// read and write them (core/routing.cpp) are private members. Whatever
// reaches the wire in a loop runs in creation order (ascending handle or
// channel id), never in hash-table order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "core/tables.hpp"
#include "core/value.hpp"
#include "net/reliable.hpp"
#include "net/transport.hpp"
#include "telemetry/hist.hpp"
#include "telemetry/trace.hpp"

namespace cod::core {

class CommunicationBackbone;

/// Base class for the paper's Logical Processes. Derive, override
/// reflectAttributeValues() and/or step(), and attach to the resident CB.
class LogicalProcess {
 public:
  explicit LogicalProcess(std::string name) : name_(std::move(name)) {}
  virtual ~LogicalProcess();
  LogicalProcess(const LogicalProcess&) = delete;
  LogicalProcess& operator=(const LogicalProcess&) = delete;

  const std::string& name() const { return name_; }
  LpId id() const { return id_; }
  /// The CB this LP is attached to, or null.
  CommunicationBackbone* backbone() const { return cb_; }

  /// Delivery of one subscribed update (HLA "reflect attribute values"),
  /// from inside the CB's tick(). Default does nothing — an LP that only
  /// needs the newest value can read CommunicationBackbone::latest().
  virtual void reflectAttributeValues(const std::string& className,
                                      const AttributeSet& attrs,
                                      double timestamp) {
    (void)className;
    (void)attrs;
    (void)timestamp;
  }

  /// Called once per CB tick after deliveries; the LP's own work.
  virtual void step(double now) { (void)now; }

 private:
  friend class CommunicationBackbone;
  std::string name_;
  LpId id_ = 0;
  CommunicationBackbone* cb_ = nullptr;
};

/// Counters of the per-peer send coalescer (both directions).
struct CbBatchStats {
  std::uint64_t datagramsCoalesced = 0;  // kBatch containers emitted
  std::uint64_t framesCoalesced = 0;     // sub-frames that rode in them
  std::uint64_t soloFlushes = 0;         // one-frame flushes, sent bare
  std::uint64_t oversizeSends = 0;       // frames beyond the byte budget
  std::uint64_t budgetFlushes = 0;       // early flushes forced by budget
  std::uint64_t containerBytesSent = 0;  // bytes across all containers
  std::uint64_t datagramsUnpacked = 0;   // containers received
  std::uint64_t framesUnpacked = 0;      // sub-frames dispatched from them
  std::uint64_t peerSlotsReclaimed = 0;  // staging slots freed on teardown
  /// Mean container size; with framesCoalesced/datagramsCoalesced this is
  /// the observable the batching bench tracks (bytes per datagram).
  double bytesPerDatagram() const {
    return datagramsCoalesced == 0
               ? 0.0
               : static_cast<double>(containerBytesSent) /
                     static_cast<double>(datagramsCoalesced);
  }
};

/// Live-health snapshot of one virtual channel, as exported to the
/// telemetry subsystem (src/telemetry/): enough to spot a stalled peer, a
/// retransmit storm, or a filling window without knowing CB internals.
struct CbChannelHealth {
  std::uint32_t channelId = 0;  // subscriber-allocated, both directions
  std::string className;
  bool outbound = false;  // true: publisher side of the channel
  net::QosClass qos = net::QosClass::kBestEffort;
  bool live = false;      // inbound: CHANNEL_ACK seen; outbound: always
  /// Seconds since the peer was last heard from on this channel.
  double ageSec = 0.0;
  /// Reliable channels: outbound, frames parked in the publication's
  /// retransmit window; inbound, frames held in the reorder buffer.
  std::uint64_t windowFrames = 0;
  /// Outbound reliable channels: frames re-sent on this channel so far.
  std::uint64_t retransmits = 0;
  /// Outbound: subscriber's cumulative ack; inbound: last in-order
  /// (reliable) or newest-wins (best effort) sequence delivered.
  std::uint64_t cumAcked = 0;
  /// Inbound reliable channels: the learned reorder window, how long a
  /// fresh hole waits for its first NACK. Not on the telemetry wire.
  double reorderWindowSec = 0.0;
};

/// Counters exposed for tests, benches and the instructor monitor.
struct CbStats {
  std::uint64_t broadcastsSent = 0;
  std::uint64_t acknowledgesSent = 0;
  std::uint64_t channelsEstablishedOut = 0;  // as publisher
  std::uint64_t channelsEstablishedIn = 0;   // as subscriber
  std::uint64_t updatesSent = 0;
  std::uint64_t updatesDelivered = 0;
  std::uint64_t updatesLocalFastPath = 0;
  std::uint64_t duplicatesDropped = 0;
  std::uint64_t unknownChannelDrops = 0;
  std::uint64_t malformedDrops = 0;
  std::uint64_t channelsTimedOut = 0;
  std::uint64_t mailboxOverflows = 0;
  /// Counters of the reliable-delivery layer (both roles).
  net::ReliableStats reliable;
  /// Counters of the send coalescer.
  CbBatchStats batch;
};

/// The Communication Backbone.
class CommunicationBackbone {
 public:
  struct Config {
    /// §2.3: the "constant time interval" between SUBSCRIPTION broadcasts
    /// while a subscription is still unacknowledged.
    double broadcastIntervalSec = 0.05;
    /// Slow re-broadcast after a subscription has at least one channel, so
    /// publishers that join late are still discovered. 0 disables it,
    /// which is the paper's literal stop-after-first-ACK behaviour.
    double refreshIntervalSec = 1.0;
    /// A channel with no traffic or heartbeat for this long is dropped and
    /// (on the subscriber side) rediscovery resumes. Keep it several
    /// kHeartbeatIntervalSec long, or idle channels time out between
    /// keep-alives.
    double channelTimeoutSec = 3.0;
    /// Tunables of the kReliableOrdered channel machinery.
    net::ReliableConfig reliable;
    /// Optional flight recorder (telemetry/trace.hpp). Not owned; may be
    /// shared by several CBs (each registers its own lane). Hot paths
    /// record into it only while it exists and is enabled, so a null
    /// pointer costs one branch per site.
    telemetry::TraceRecorder* trace = nullptr;
    /// End-to-end latency sampling: every Nth update of each publication
    /// with reliable channels carries a trace tag whose WINDOW_ACK echo
    /// yields publish -> in-order-release latency (histograms() /
    /// telemetry record). 0 disables sampling — the wire is then
    /// byte-identical to a trace-free build.
    std::uint32_t traceSampleEvery = 0;
    /// Tick-phase profiler: time each tick's poll/decode, route, timer,
    /// stage and flush phases into phaseHistograms(), shipped as the
    /// telemetry record's phase block. Off (the default) costs nothing —
    /// no clock reads — and leaves the block out of the record.
    bool phaseProfile = false;
  };

  /// `transport` is this computer's socket; by convention every CB of a
  /// cluster binds the same port so discovery broadcasts reach all of them.
  CommunicationBackbone(std::string name,
                        std::unique_ptr<net::Transport> transport,
                        Config cfg);
  CommunicationBackbone(std::string name,
                        std::unique_ptr<net::Transport> transport);
  ~CommunicationBackbone();
  CommunicationBackbone(const CommunicationBackbone&) = delete;
  CommunicationBackbone& operator=(const CommunicationBackbone&) = delete;

  const std::string& name() const { return name_; }
  net::NodeAddr address() const { return transport_->localAddress(); }
  const Config& config() const { return cfg_; }

  /// Attach an LP to this CB (the paper's "register to its resident CB").
  /// The CB does not own the LP; the LP must outlive its registrations or
  /// detach first (its destructor detaches automatically).
  LpId attach(LogicalProcess& lp);
  void detach(LogicalProcess& lp);

  /// HLA service: declare that `lp` produces `className`. `qos` is the
  /// publication's floor: every channel opened to it is at least that
  /// strong, even if the subscriber asked for best effort (used by e.g.
  /// the scenario module so no monitor can accidentally sample the score
  /// stream lossily).
  PublicationHandle publishObjectClass(
      LogicalProcess& lp, const std::string& className,
      net::QosClass qos = net::QosClass::kBestEffort);
  /// HLA service: declare interest in `className`; starts discovery.
  /// `qos` is requested per channel during connection; the effective
  /// class is the stronger of this and the publication's floor.
  SubscriptionHandle subscribeObjectClass(
      LogicalProcess& lp, const std::string& className,
      net::QosClass qos = net::QosClass::kBestEffort);
  void unpublish(PublicationHandle h);
  void unsubscribe(SubscriptionHandle h);

  /// HLA service: push one update through every virtual channel linked to
  /// this publication, and to same-CB subscribers directly (the local fast
  /// path, §2.1: one or many LPs can run on a computer).
  void updateAttributeValues(PublicationHandle h, const AttributeSet& attrs,
                             double timestamp);

  /// Latest reflection seen on a subscription (null if none).
  /// The pointer stays valid until the subscription's next reflection
  /// replaces it, which can happen in the next tick() or, on the local
  /// fast path, the next updateAttributeValues() of the class on this CB:
  /// read it at once and copy what must outlive those calls.
  const Reflection* latest(SubscriptionHandle h) const;

  /// Number of live virtual channels attached to a publication.
  std::size_t channelCount(PublicationHandle h) const;
  /// Number of live inbound channels feeding a subscription.
  std::size_t sourceCount(SubscriptionHandle h) const;
  /// True once a subscription has at least one live channel.
  bool connected(SubscriptionHandle h) const { return sourceCount(h) > 0; }

  /// Process inbound traffic, run protocol timers, deliver mailboxes and
  /// step attached LPs. Call regularly with a monotonically increasing
  /// clock (virtual or wall).
  void tick(double now);

  /// Emit every staged outbound frame now, one kBatch datagram per peer
  /// (the coalescer's escape hatch — tick() calls this at its end, so
  /// only latency-critical callers between ticks ever need it).
  void flushBatches();

  const CbStats& stats() const { return stats_; }
  /// Per-endpoint counters of the transport under this CB (null if the
  /// transport keeps none).
  const net::TransportStats* transportStats() const {
    return transport_->stats();
  }
  /// Health snapshot of every live virtual channel, publisher side first
  /// (publication-id order), then subscriber side (channel-id order) —
  /// deterministic so telemetry records diff cleanly across snapshots.
  std::vector<CbChannelHealth> channelHealth() const;
  std::size_t lpCount() const { return lps_.size(); }
  /// Peer staging slots currently in use / ever allocated. The coalescer
  /// reclaims slots on channel teardown, so `peerSlotCount` tracks live
  /// peers while `peerSlotCapacity` is bounded by the peak concurrent peer
  /// count, not lifetime peer churn.
  std::size_t peerSlotCount() const { return batchSlots_.size(); }
  std::size_t peerSlotCapacity() const { return peerBatches_.size(); }

  /// Routing-table sizes, for tests and the telemetry record.
  CbTableLoad tableLoad() const;

  /// Latency/size histograms this CB maintains (telemetry record v3):
  /// delivery latency of sampled reliable updates, tick duration, flush
  /// sizes and retransmit delay.
  const telemetry::CbHistograms& histograms() const { return hists_; }

  /// Per-phase tick histograms (the telemetry phase block). All-zero unless
  /// Config::phaseProfile.
  const telemetry::TickPhaseHistograms& phaseHistograms() const {
    return phaseHists_;
  }

 private:
  /// True while hot paths should pay for trace records.
  bool tracing() const {
    return cfg_.trace != nullptr && cfg_.trace->enabled();
  }
  /// Record one flight-recorder event on this CB's lane. Call only under
  /// a tracing() guard (keeps the disabled cost to one branch).
  void traceEvent(telemetry::TraceEventKind kind, double tsSec,
                  double durSec = 0.0, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
    cfg_.trace->record(kind, traceLane_, tsSec, durSec, a, b);
  }

  void handleDatagram(const net::Datagram& d, double now);
  /// Decode one frame and route it to its handler (sub-frames of a kBatch
  /// container go through here individually); false if the frame is
  /// malformed and was dropped. An UPDATE is read in place
  /// (decodeUpdate), every other message through decode().
  bool routeFrame(std::span<const std::uint8_t> frame,
                  const net::NodeAddr& src, double now);
  /// Route one decoded non-UPDATE message to its handler.
  /// Subscriber-sent channel messages resolve their publication through
  /// outChannelIndex_.
  void dispatchMessage(CbMessage& msg, const net::NodeAddr& src, double now);

  void runTimers(double now);
  void deliverMailboxes();

  /// A cached walk over one kind of entry in creation order (ascending
  /// handle or channel id). The timer and mailbox phases walk these
  /// instead of sorting the tables every tick. Every insertion into or
  /// erasure from the matching table bumps `generation`; the walk is
  /// rebuilt on its next use, and a walk in progress that sees the bump
  /// stops trusting its entry pointers.
  template <typename Entry>
  struct Walk {
    struct Item {
      std::uint32_t key;
      Entry* entry;
    };
    std::vector<Item> items;
    std::uint64_t generation = 1;
    std::uint64_t builtAt = 0;  // generation `items` reflects
    bool stale() const { return builtAt != generation; }
  };
  /// Rebuild `walk` from `table` (key → entry) if it is stale.
  template <typename Entry, typename Table>
  void refreshWalk(Walk<Entry>& walk, Table& table);

  /// Table lookups (null if unknown).
  PublicationEntry* findPublication(PublicationHandle h);
  const PublicationEntry* findPublication(PublicationHandle h) const;
  SubscriptionEntry* findSubscription(SubscriptionHandle h);
  const SubscriptionEntry* findSubscription(SubscriptionHandle h) const;

  /// Every outgoing channel endpoint is registered in outChannelIndex_ so
  /// subscriber-sent traffic finds its publication without a table scan.
  void registerOutChannel(const net::NodeAddr& remote,
                          std::uint32_t remoteChannelId,
                          PublicationHandle pub);
  void unregisterOutChannel(const net::NodeAddr& remote,
                            std::uint32_t remoteChannelId,
                            PublicationHandle pub);

  // --- message handlers (core/routing.cpp), called by dispatchMessage ---
  void handleSubscription(const SubscriptionMsg& m, const net::NodeAddr& src);
  void handleAcknowledge(const AcknowledgeMsg& m, const net::NodeAddr& src,
                         double now);
  void handleChannelConnection(const ChannelConnectionMsg& m,
                               const net::NodeAddr& src, double now);
  void handleChannelAck(const ChannelAckMsg& m, double now);
  void handleUpdate(const UpdateView& m, double now);
  /// Publisher keep-alive → refresh our inbound channel.
  void handlePublisherHeartbeat(const HeartbeatMsg& m,
                                const net::NodeAddr& src, double now);
  /// Subscriber keep-alive → refresh our outgoing channel on `pub`
  /// (resolved from (src, channelId) through outChannelIndex_).
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

  // --- timers (runTimers drives these in creation order, and only once
  // --- the entry's deadline has come) ---
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

  // --- data plane and table upkeep (core/routing.cpp) ---
  /// The body of updateAttributeValues for a known publication.
  void update(PublicationEntry& pub, const AttributeSet& attrs,
              double timestamp);
  void removeInChannel(std::uint32_t channelId, bool sendBye);
  /// Link `pub` to every same-class subscription on this CB.
  void matchLocal(PublicationEntry& pub);
  /// Bring a timer deadline (an entry's timerDue, a subscription's
  /// nextBroadcast) forward to `now`, and timersDue_ with it. Every write
  /// that can make a deadline earlier goes here.
  void wake(double& due, double now);
  void enqueueReflection(SubscriptionEntry& sub,
                         std::shared_ptr<const Reflection> r);
  /// Decode and enqueue the frames `ch`'s queue released into `rqReady_`
  /// (in sequence order), then empty it. Non-const: a released
  /// trace-tagged frame parks its delivery timing in `ch.pendingEcho` for
  /// the next WINDOW_ACK.
  void deliverReliableReady(InChannel& ch);
  /// Move `ch.pendingEcho` (if any) onto an outgoing WINDOW_ACK.
  static void attachTraceEcho(InChannel& ch, WindowAckMsg& ack, double now);
  /// Attach this channel's cumulative duplicate count to an outgoing
  /// WINDOW_ACK (dup block) when any duplicates have been dropped.
  static void attachDupReport(const InChannel& ch, WindowAckMsg& ack);
  /// Prune (or drop) a publication's retransmit window after acks or
  /// channel departures.
  static void compactSendWindow(PublicationEntry& pub);
  /// The outgoing channel `(src, remoteChannelId)` within `pub`; null if
  /// unknown.
  static OutChannel* findOutChannelIn(PublicationEntry& pub,
                                      const net::NodeAddr& src,
                                      std::uint32_t remoteChannelId);
  static void eraseFromIndex(
      std::unordered_map<std::string, std::vector<std::uint32_t>>& index,
      const std::string& className, std::uint32_t handle);

  /// One staging buffer per live remote endpoint. A slot stays pinned
  /// while any channel caches its index (`channelRefs`); channel teardown
  /// releases the pin and an unpinned slot is reclaimed to a free list
  /// once its staged frames have flushed, so the table tracks live peers
  /// instead of growing with lifetime peer churn (ephemeral-address
  /// dynamic join). Reclaim happens only at zero refs, so a cached index
  /// can never watch its slot be re-issued to a different peer.
  struct PeerBatch {
    net::NodeAddr addr;
    /// The kBatch container as it is built: the `[u8 10][u16 count]`
    /// header, whose count is written at flush, then `[u32 len][frame]`
    /// per staged frame. A flush cuts it back to the header and keeps its
    /// capacity; the byte budget caps it at one container.
    std::vector<std::uint8_t> container = {
        static_cast<std::uint8_t>(MsgType::kBatch), 0, 0};
    std::uint16_t frames = 0;       // frames staged in `container`
    std::uint32_t channelRefs = 0;  // live channels caching this index
    bool active = false;            // false: parked on the free list

    bool empty() const { return frames == 0; }
    /// Container size if a `frameSize`-byte frame were staged now.
    std::size_t sizeWith(std::size_t frameSize) const {
      return container.size() + kBatchFramePrefixBytes + frameSize;
    }
  };

  /// Resolve (or create) the staging slot for `dst`. Slots created here
  /// are unpinned; transient destinations (discovery replies) give theirs
  /// back at the next flush.
  std::uint32_t batchSlotFor(const net::NodeAddr& dst);
  /// Resolve the slot for a channel's endpoint and pin it until
  /// releaseBatchSlot.
  std::uint32_t acquireBatchSlot(const net::NodeAddr& dst);
  /// Unpin a channel's cached slot at teardown (no-op on kNoBatchSlot).
  void releaseBatchSlot(std::uint32_t slot);
  /// Park an unpinned, empty, active slot on the free list.
  void reclaimSlotIfIdle(std::uint32_t slot);
  /// Stage one encoded frame for `dst`: the one staging decision. Flush
  /// the peer's container early if `frame` would push it past
  /// kBatchByteBudget, send `frame` bare if even alone it busts the
  /// budget, else copy it into the container.
  void stageSend(const net::NodeAddr& dst, std::span<const std::uint8_t> frame);
  void stageSend(std::uint32_t slot, std::span<const std::uint8_t> frame);
  /// Stage through a channel's cached slot (resolving and pinning it on
  /// first use) — the form every per-channel send path uses.
  template <typename Channel>
  void stageToChannel(Channel& ch, std::span<const std::uint8_t> frame) {
    if (ch.batchSlot == kNoBatchSlot)
      ch.batchSlot = acquireBatchSlot(ch.remote);
    stageSend(ch.batchSlot, frame);
  }
  /// Send `b`'s container with one transport send (a lone frame without
  /// its container framing) and empty it.
  void flushSlot(PeerBatch& b);

  std::string name_;
  std::unique_ptr<net::Transport> transport_;
  Config cfg_;
  double now_ = 0.0;

  std::map<LpId, LogicalProcess*> lps_;

  /// Hash tables, not ordered maps: updateAttributeValues and the
  /// reflection paths look these up per update, and nothing needs key
  /// order (iteration-order-sensitive work runs off the creation-ordered
  /// walks below). Node-based, so the entry pointers those walks cache
  /// stay valid until the entry is erased.
  std::unordered_map<PublicationHandle, PublicationEntry> publications_;
  std::unordered_map<SubscriptionHandle, SubscriptionEntry> subscriptions_;
  std::map<std::uint32_t, InChannel> inChannels_;  // keyed by channelId
  /// Per-class handle lists (creation order — handles ascend), so
  /// discovery matching is O(entries of the class).
  std::unordered_map<std::string, std::vector<PublicationHandle>> pubsByClass_;
  std::unordered_map<std::string, std::vector<SubscriptionHandle>> subsByClass_;
  Walk<PublicationEntry> pubWalk_;
  Walk<SubscriptionEntry> subWalk_;
  Walk<InChannel> inWalk_;
  /// Lower bound on every deadline in the walks (each timerDue and
  /// nextBroadcast): a tick before it, with no walk stale, skips the
  /// timer phase outright. runTimers recomputes it; wake lowers it
  /// whenever a deadline comes forward.
  double timersDue_ = kTimerDueNow;
  /// Set on every enqueue: some mailbox may hold a reflection.
  bool mailboxesPending_ = false;
  /// (subscriber endpoint, subscriber-allocated channel id) → publication:
  /// the publisher-side route for heartbeats, BYEs, NACKs and window acks.
  std::map<std::pair<net::NodeAddr, std::uint32_t>, PublicationHandle>
      outChannelIndex_;

  std::vector<PeerBatch> peerBatches_;
  std::map<net::NodeAddr, std::uint32_t> batchSlots_;  // active slots only
  /// FIFO, not LIFO: flushBatches walks slots in index order, so reusing
  /// the oldest freed index first keeps per-peer flush order tracking
  /// channel-creation order instead of recent-teardown order.
  std::deque<std::uint32_t> freeBatchSlots_;

  std::uint32_t nextLpId_ = 1;
  std::uint32_t nextHandle_ = 1;
  std::uint32_t nextChannelId_ = 1;
  CbStats stats_;
  telemetry::CbHistograms hists_;
  telemetry::TickPhaseHistograms phaseHists_;
  /// Route time this tick: dispatchMessage accumulates here (it runs
  /// interleaved with the receive loop, so it cannot be bracketed as one
  /// span); tick() subtracts it from the receive-loop wall time to get
  /// the poll/decode phase. Only maintained under Config::phaseProfile.
  double phaseRouteAccumSec_ = 0.0;
  std::uint16_t traceLane_ = 0;  // our lane in cfg_.trace (if attached)
  std::uint64_t tickOrdinal_ = 0;
  /// Reusable UPDATE frame for updateAttributeValues: encoded once per
  /// update, channel id patched per channel, capacity kept across calls.
  std::vector<std::uint8_t> updateFrame_;
  /// Reusable LP id snapshot for tick()'s step phase.
  std::vector<LpId> stepIds_;
  /// Reusable release list for the reliable receive queues: every offer,
  /// base and skip appends the frames it releases here, and
  /// deliverReliableReady empties it.
  std::vector<net::ReliableFrame> rqReady_;
};

}  // namespace cod::core
