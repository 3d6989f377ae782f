#include "core/cb.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace cod::core {

namespace {

/// Sorted snapshot of a table's keys: handles and channel ids ascend in
/// creation order, so a sorted key walk is creation order.
template <typename Map>
std::vector<typename Map::key_type> sortedKeys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

LogicalProcess::~LogicalProcess() {
  if (cb_ != nullptr) cb_->detach(*this);
}

CommunicationBackbone::CommunicationBackbone(
    std::string name, std::unique_ptr<net::Transport> transport, Config cfg)
    : name_(std::move(name)), transport_(std::move(transport)), cfg_(cfg) {
  if (!transport_)
    throw std::invalid_argument("CommunicationBackbone: null transport");
  if (cfg_.trace != nullptr) traceLane_ = cfg_.trace->registerLane(name_);
}

CommunicationBackbone::CommunicationBackbone(
    std::string name, std::unique_ptr<net::Transport> transport)
    : CommunicationBackbone(std::move(name), std::move(transport), Config{}) {}

CommunicationBackbone::~CommunicationBackbone() {
  // Anything staged since the last tick still leaves (best effort — the
  // transport may already be beyond caring, but a BYE or final update
  // deserves the attempt).
  flushBatches();
  // Detach surviving LPs so their destructors do not dangle into us.
  for (auto& [id, lp] : lps_) {
    lp->cb_ = nullptr;
    lp->id_ = 0;
  }
}

std::uint32_t CommunicationBackbone::batchSlotFor(const net::NodeAddr& dst) {
  const auto it = batchSlots_.find(dst);
  if (it != batchSlots_.end()) return it->second;
  std::uint32_t slot;
  if (!freeBatchSlots_.empty()) {
    slot = freeBatchSlots_.front();
    freeBatchSlots_.pop_front();
    peerBatches_[slot].addr = dst;
  } else {
    slot = static_cast<std::uint32_t>(peerBatches_.size());
    peerBatches_.emplace_back();
    peerBatches_[slot].addr = dst;
  }
  peerBatches_[slot].active = true;
  batchSlots_.emplace(dst, slot);
  return slot;
}

std::uint32_t CommunicationBackbone::acquireBatchSlot(const net::NodeAddr& dst) {
  const std::uint32_t slot = batchSlotFor(dst);
  ++peerBatches_[slot].channelRefs;
  return slot;
}

void CommunicationBackbone::releaseBatchSlot(std::uint32_t slot) {
  if (slot == kNoBatchSlot) return;
  PeerBatch& b = peerBatches_[slot];
  if (b.channelRefs > 0) --b.channelRefs;
  // Staged frames (a BYE, say) must still leave; if the slot is not
  // empty yet, the flush that empties it completes the reclaim.
  reclaimSlotIfIdle(slot);
}

void CommunicationBackbone::reclaimSlotIfIdle(std::uint32_t slot) {
  PeerBatch& b = peerBatches_[slot];
  if (!b.active || b.channelRefs > 0 || !b.empty()) return;
  batchSlots_.erase(b.addr);
  b.active = false;
  freeBatchSlots_.push_back(slot);
  ++stats_.batch.peerSlotsReclaimed;
}

void CommunicationBackbone::stageSend(const net::NodeAddr& dst,
                                      std::span<const std::uint8_t> frame) {
  stageSend(batchSlotFor(dst), frame);
}

void CommunicationBackbone::stageSend(std::uint32_t slot,
                                      std::span<const std::uint8_t> frame) {
  // Staging itself is not recorded per frame — the flush event carries
  // the frame count, and a per-frame instant here would be the single
  // largest event source in a busy mesh (3+ per tick).
  PeerBatch& b = peerBatches_[slot];
  if (!b.empty() && b.sizeWith(frame.size()) > kBatchByteBudget) {
    ++stats_.batch.budgetFlushes;
    flushSlot(b);
  }
  if (b.empty() && b.sizeWith(frame.size()) > kBatchByteBudget) {
    // Even alone this frame busts the budget: bypass the container (the
    // bare frame is wire-compatible; the transport fragments if it must).
    transport_->send(b.addr, frame);
    ++stats_.batch.oversizeSends;
    hists_.flushBytes.record(static_cast<double>(frame.size()));
    if (tracing())
      traceEvent(telemetry::TraceEventKind::kDatagramSend, now_, 0.0,
                 frame.size());
    return;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
  const std::uint8_t prefix[kBatchFramePrefixBytes] = {
      static_cast<std::uint8_t>(len & 0xFF),
      static_cast<std::uint8_t>((len >> 8) & 0xFF),
      static_cast<std::uint8_t>((len >> 16) & 0xFF),
      static_cast<std::uint8_t>((len >> 24) & 0xFF)};
  b.container.insert(b.container.end(), prefix, prefix + sizeof(prefix));
  b.container.insert(b.container.end(), frame.begin(), frame.end());
  ++b.frames;
}

void CommunicationBackbone::flushSlot(PeerBatch& b) {
  if (b.empty()) return;
  const std::uint16_t frames = b.frames;
  std::span<const std::uint8_t> datagram = b.container;
  if (frames == 1) {
    // A one-frame container is pure overhead: a lone message leaves as
    // its bare frame.
    datagram = datagram.subspan(kBatchHeaderBytes + kBatchFramePrefixBytes);
    ++stats_.batch.soloFlushes;
  } else {
    b.container[1] = static_cast<std::uint8_t>(frames & 0xFF);
    b.container[2] = static_cast<std::uint8_t>((frames >> 8) & 0xFF);
    ++stats_.batch.datagramsCoalesced;
    stats_.batch.framesCoalesced += frames;
    stats_.batch.containerBytesSent += datagram.size();
  }
  transport_->send(b.addr, datagram);
  hists_.flushBytes.record(static_cast<double>(datagram.size()));
  // One event per container: the flush IS the datagram send (bytes +
  // frame count); a paired kDatagramSend would double the volume.
  if (tracing())
    traceEvent(telemetry::TraceEventKind::kBatchFlush, now_, 0.0,
               datagram.size(), frames);
  b.container.resize(kBatchHeaderBytes);
  b.frames = 0;
}

void CommunicationBackbone::flushBatches() {
  for (std::uint32_t i = 0; i < peerBatches_.size(); ++i) {
    PeerBatch& b = peerBatches_[i];
    if (!b.active) continue;
    flushSlot(b);
    // Transient destinations (discovery replies, peers mid-teardown) hold
    // no channel pins: give their slots back once drained.
    if (b.channelRefs == 0) reclaimSlotIfIdle(i);
  }
}

LpId CommunicationBackbone::attach(LogicalProcess& lp) {
  if (lp.cb_ == this) return lp.id_;
  if (lp.cb_ != nullptr)
    throw std::logic_error("LP '" + lp.name() + "' already attached elsewhere");
  lp.id_ = nextLpId_++;
  lp.cb_ = this;
  lps_[lp.id_] = &lp;
  return lp.id_;
}

void CommunicationBackbone::detach(LogicalProcess& lp) {
  if (lp.cb_ != this) return;
  // Resign every registration owned by this LP.
  std::vector<PublicationHandle> pubs;
  for (const auto& [h, pub] : publications_)
    if (pub.lp == lp.id_) pubs.push_back(h);
  std::sort(pubs.begin(), pubs.end());
  for (const PublicationHandle h : pubs) unpublish(h);
  std::vector<SubscriptionHandle> subs;
  for (const auto& [h, sub] : subscriptions_)
    if (sub.lp == lp.id_) subs.push_back(h);
  std::sort(subs.begin(), subs.end());
  for (const SubscriptionHandle h : subs) unsubscribe(h);
  lps_.erase(lp.id_);
  lp.cb_ = nullptr;
  lp.id_ = 0;
}

PublicationEntry* CommunicationBackbone::findPublication(PublicationHandle h) {
  const auto it = publications_.find(h);
  return it == publications_.end() ? nullptr : &it->second;
}

const PublicationEntry* CommunicationBackbone::findPublication(
    PublicationHandle h) const {
  const auto it = publications_.find(h);
  return it == publications_.end() ? nullptr : &it->second;
}

SubscriptionEntry* CommunicationBackbone::findSubscription(
    SubscriptionHandle h) {
  const auto it = subscriptions_.find(h);
  return it == subscriptions_.end() ? nullptr : &it->second;
}

const SubscriptionEntry* CommunicationBackbone::findSubscription(
    SubscriptionHandle h) const {
  const auto it = subscriptions_.find(h);
  return it == subscriptions_.end() ? nullptr : &it->second;
}

void CommunicationBackbone::registerOutChannel(const net::NodeAddr& remote,
                                               std::uint32_t remoteChannelId,
                                               PublicationHandle pub) {
  // Assignment, not emplace: a restarted subscriber may reuse a channel
  // id against a different publication while the stale channel rides out
  // its timeout — the newest registration wins the route.
  outChannelIndex_[{remote, remoteChannelId}] = pub;
}

void CommunicationBackbone::unregisterOutChannel(const net::NodeAddr& remote,
                                                 std::uint32_t remoteChannelId,
                                                 PublicationHandle pub) {
  const auto it = outChannelIndex_.find({remote, remoteChannelId});
  // Guarded erase: if the id was re-registered to a newer publication
  // (see registerOutChannel), the stale channel's teardown must not drop
  // the live route.
  if (it != outChannelIndex_.end() && it->second == pub)
    outChannelIndex_.erase(it);
}

void CommunicationBackbone::updateAttributeValues(PublicationHandle h,
                                                  const AttributeSet& attrs,
                                                  double timestamp) {
  PublicationEntry* pub = findPublication(h);
  if (pub == nullptr)
    throw std::invalid_argument("updateAttributeValues: unknown publication");
  update(*pub, attrs, timestamp);
}

const Reflection* CommunicationBackbone::latest(SubscriptionHandle h) const {
  const SubscriptionEntry* sub = findSubscription(h);
  return sub != nullptr ? sub->latest.get() : nullptr;
}

std::size_t CommunicationBackbone::channelCount(PublicationHandle h) const {
  const PublicationEntry* pub = findPublication(h);
  if (pub == nullptr) return 0;
  return pub->channels.size() + pub->localSubscribers.size();
}

std::vector<CbChannelHealth> CommunicationBackbone::channelHealth() const {
  std::vector<CbChannelHealth> out;
  // Publisher side in publication-id (creation) order: the tables hash,
  // but telemetry snapshots should diff stably between intervals.
  for (const PublicationHandle h : sortedKeys(publications_)) {
    const PublicationEntry& pub = *findPublication(h);
    for (const OutChannel& ch : pub.channels) {
      CbChannelHealth hh;
      hh.channelId = ch.remoteChannelId;
      hh.className = pub.className;
      hh.outbound = true;
      hh.qos = ch.qos;
      hh.live = true;  // an OutChannel exists only once connected
      hh.ageSec = now_ - ch.lastHeardSec;
      hh.windowFrames = pub.retx ? pub.retx->size() : 0;
      hh.retransmits = ch.retransmits;
      hh.cumAcked = ch.cumAcked;
      out.push_back(std::move(hh));
    }
  }
  for (const auto& [cid, ch] : inChannels_) {
    CbChannelHealth hh;
    hh.channelId = cid;
    const SubscriptionEntry* sub = findSubscription(ch.subscription);
    if (sub != nullptr) hh.className = sub->className;
    hh.outbound = false;
    hh.qos = ch.qos;
    hh.live = ch.live;
    hh.ageSec = now_ - ch.lastActivity;
    hh.windowFrames = ch.rq ? ch.rq->buffered() : 0;
    hh.reorderWindowSec = ch.rq ? ch.rq->reorderWindowSec() : 0.0;
    hh.cumAcked = ch.rq ? (ch.rq->nextExpected() > 0 ? ch.rq->nextExpected() - 1
                                                     : 0)
                        : ch.lastSeq;
    out.push_back(std::move(hh));
  }
  return out;
}

void CommunicationBackbone::tick(double now) {
  using Clock = std::chrono::steady_clock;
  const bool prof = cfg_.phaseProfile;
  const auto wall0 = Clock::now();
  const std::uint64_t ordinal = tickOrdinal_++;
  // No kTickBegin event: the kTickEnd span already carries the tick's
  // start time and duration, and the hot path budgets every record().
  now_ = now;
  // The receive loop interleaves socket polling/decoding with routing
  // (dispatchMessage), so the route phase cannot be bracketed as one
  // span: dispatchMessage accumulates its own time and pollDecode is the
  // loop's wall time minus that. Budget flushes triggered inside a phase
  // are charged to that phase — the flush phase is the end-of-tick flush
  // only.
  phaseRouteAccumSec_ = 0.0;
  while (auto d = transport_->receive()) handleDatagram(*d, now);
  const auto tRecv = prof ? Clock::now() : Clock::time_point{};
  runTimers(now);
  const auto tTimers = prof ? Clock::now() : Clock::time_point{};
  deliverMailboxes();
  // Step LPs by id snapshot: an LP may attach/detach others in step().
  stepIds_.clear();
  for (const auto& [id, lp] : lps_) stepIds_.push_back(id);
  for (const LpId id : stepIds_) {
    const auto it = lps_.find(id);
    if (it != lps_.end()) it->second->step(now);
  }
  const auto tStage = prof ? Clock::now() : Clock::time_point{};
  // The flush point: everything staged this tick — handler replies, timer
  // traffic, LP-step updates — leaves as one datagram per peer.
  flushBatches();
  const auto wall1 = Clock::now();
  const double wallDur = std::chrono::duration<double>(wall1 - wall0).count();
  hists_.tickDurationSec.record(wallDur);
  if (prof) {
    const double recvSec =
        std::chrono::duration<double>(tRecv - wall0).count();
    phaseHists_.pollDecodeSec.record(
        std::max(0.0, recvSec - phaseRouteAccumSec_));
    phaseHists_.routeSec.record(phaseRouteAccumSec_);
    phaseHists_.timersSec.record(
        std::chrono::duration<double>(tTimers - tRecv).count());
    phaseHists_.stageSec.record(
        std::chrono::duration<double>(tStage - tTimers).count());
    phaseHists_.flushSec.record(
        std::chrono::duration<double>(wall1 - tStage).count());
  }
  if (tracing())
    traceEvent(telemetry::TraceEventKind::kTickEnd, now, wallDur, ordinal);
}

void CommunicationBackbone::handleDatagram(const net::Datagram& d, double now) {
  if (tracing())
    traceEvent(telemetry::TraceEventKind::kDatagramRecv, now, 0.0,
               d.payload.size());
  if (!d.payload.empty() &&
      d.payload.front() == static_cast<std::uint8_t>(MsgType::kBatch)) {
    // Container: walk the length-prefixed sub-frames as views (no
    // copies) and dispatch each as if it had arrived alone. Bare frames
    // (solo flushes, oversize frames) take the plain path below.
    //
    // The framing is validated in full BEFORE anything is dispatched: a
    // corrupt container must have no side effects, exactly like decode()
    // rejecting it wholesale (a half-applied datagram would be a state
    // no sender can produce). validateBatchBody is the same contract
    // decode() enforces.
    const auto body = std::span<const std::uint8_t>(d.payload).subspan(1);
    const auto count = validateBatchBody(body);
    if (!count) {
      ++stats_.malformedDrops;
      return;
    }
    ++stats_.batch.datagramsUnpacked;
    net::WireReader r(body);
    r.u16();  // count, validated above
    // Valid framing, undecodable message inside: dropped exactly as the
    // same bytes would be had they arrived bare.
    for (std::uint16_t i = 0; i < *count; ++i)
      if (routeFrame(*r.blobSpan(), d.src, now)) ++stats_.batch.framesUnpacked;
    return;
  }
  routeFrame(d.payload, d.src, now);
}

bool CommunicationBackbone::routeFrame(std::span<const std::uint8_t> frame,
                                       const net::NodeAddr& src, double now) {
  // Decoding is the poll/decode phase; only the handler's time is route
  // time (see phaseRouteAccumSec_).
  using Clock = std::chrono::steady_clock;
  const auto routed = [&](const auto& handle) {
    const auto routeStart =
        cfg_.phaseProfile ? Clock::now() : Clock::time_point{};
    handle();
    if (cfg_.phaseProfile)
      phaseRouteAccumSec_ +=
          std::chrono::duration<double>(Clock::now() - routeStart).count();
    return true;
  };
  if (!frame.empty() &&
      frame.front() == static_cast<std::uint8_t>(MsgType::kUpdate)) {
    const auto update = decodeUpdate(frame);
    if (update) return routed([&] { handleUpdate(*update, now); });
  } else {
    auto msg = decode(frame);
    if (msg) return routed([&] { dispatchMessage(*msg, src, now); });
  }
  ++stats_.malformedDrops;
  return false;
}

void CommunicationBackbone::dispatchMessage(CbMessage& msg,
                                            const net::NodeAddr& src,
                                            double now) {
  switch (msg.type) {
    case MsgType::kSubscription:
      handleSubscription(msg.subscription, src);
      break;
    case MsgType::kAcknowledge:
      handleAcknowledge(msg.acknowledge, src, now);
      break;
    case MsgType::kChannelConnection:
      handleChannelConnection(msg.channelConnection, src, now);
      break;
    // Subscriber-side channel messages are keyed by our own channel id.
    case MsgType::kChannelAck:
      handleChannelAck(msg.channelAck, now);
      break;
    // Messages that may target either role route by the direction flag:
    // publisher-sent ones by channel id, subscriber-sent ones through the
    // (peer, channel id) → publication index.
    case MsgType::kHeartbeat:
      if (msg.heartbeat.fromPublisher) {
        handlePublisherHeartbeat(msg.heartbeat, src, now);
      } else {
        const auto it = outChannelIndex_.find({src, msg.heartbeat.channelId});
        if (it != outChannelIndex_.end())
          handleSubscriberHeartbeat(it->second, msg.heartbeat, src, now);
      }
      break;
    case MsgType::kBye:
      if (msg.bye.fromPublisher) {
        handlePublisherBye(msg.bye, src);
      } else {
        const auto it = outChannelIndex_.find({src, msg.bye.channelId});
        if (it != outChannelIndex_.end())
          handleSubscriberBye(it->second, msg.bye, src);
      }
      break;
    case MsgType::kNack: {
      const auto it = outChannelIndex_.find({src, msg.nack.channelId});
      if (it != outChannelIndex_.end())
        handleNack(it->second, msg.nack, src, now);
      break;
    }
    case MsgType::kWindowAck:
      if (msg.windowAck.fromPublisher) {
        handlePublisherWindowAck(msg.windowAck, src, now);
      } else {
        const auto it = outChannelIndex_.find({src, msg.windowAck.channelId});
        if (it != outChannelIndex_.end())
          handleSubscriberWindowAck(it->second, msg.windowAck, src, now);
      }
      break;
    case MsgType::kUpdate:
    case MsgType::kBatch:
      // routeFrame reads UPDATEs in place and handleDatagram unpacks
      // containers, which never nest; one reaching here means a decoder
      // bug upstream — drop it.
      ++stats_.malformedDrops;
      break;
  }
}

template <typename Entry, typename Table>
void CommunicationBackbone::refreshWalk(Walk<Entry>& walk, Table& table) {
  if (!walk.stale()) return;
  walk.items.clear();
  walk.items.reserve(table.size());
  for (auto& [key, entry] : table) walk.items.push_back({key, &entry});
  std::sort(walk.items.begin(), walk.items.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  walk.builtAt = walk.generation;
}

void CommunicationBackbone::runTimers(double now) {
  // Every phase walks its entries in creation order, so the wire carries
  // them in creation order. An entry runs only once its deadline has
  // come; the deadlines are conservative, so a skipped entry had nothing
  // to send, and the wire matches a walk that ran every entry on every
  // tick. Nothing here (un)registers an entry until the in-channel drops,
  // so the cached pointers hold.
  if (now < timersDue_ && !subWalk_.stale() && !inWalk_.stale() &&
      !pubWalk_.stale())
    return;
  refreshWalk(subWalk_, subscriptions_);
  refreshWalk(inWalk_, inChannels_);
  refreshWalk(pubWalk_, publications_);
  // Every deadline, as each entry's turn leaves it, folds into the bound
  // (and so does any wake the phase itself causes).
  timersDue_ = std::numeric_limits<double>::infinity();

  // Subscription discovery broadcasts (§2.3).
  for (const auto& [h, sub] : subWalk_.items) {
    if (now >= sub->nextBroadcast) subscriptionTimer(*sub, now);
    timersDue_ = std::min(timersDue_, sub->nextBroadcast);
  }

  // Retransmit CHANNEL_CONNECTION for channels still awaiting their ack,
  // and time out dead inbound channels. Keep-alive frames in one pass
  // differ only in channel id, so the tick encodes at most one frame and
  // re-targets it per channel.
  std::vector<std::uint8_t> subHeartbeat;
  std::vector<std::uint32_t> toDrop;
  for (const auto& [cid, ch] : inWalk_.items) {
    if (now >= ch->timerDue && inChannelTimer(*ch, now, subHeartbeat))
      toDrop.push_back(cid);
    timersDue_ = std::min(timersDue_, ch->timerDue);
  }
  for (const std::uint32_t cid : toDrop) dropTimedOutInChannel(cid, now);

  // Publisher keep-alives on idle channels, the reliable tail-retransmit
  // sweep, and timeout of dead subscribers.
  std::vector<std::uint8_t> pubHeartbeat;
  for (const auto& [h, pub] : pubWalk_.items) {
    if (now >= pub->timerDue) publicationTimer(*pub, now, pubHeartbeat);
    timersDue_ = std::min(timersDue_, pub->timerDue);
  }
}

void CommunicationBackbone::deliverMailboxes() {
  // Subscription-id order == creation order: delivery across LPs
  // must not depend on hash-table layout. A reflect callback may
  // (un)subscribe re-entrantly; once that has happened, entries are
  // re-found by handle, since a cached pointer may dangle. Subscriptions
  // made by a callback wait for the next tick.
  if (!mailboxesPending_) return;
  mailboxesPending_ = false;
  refreshWalk(subWalk_, subscriptions_);
  const std::uint64_t generation = subWalk_.generation;
  for (std::size_t i = 0; i < subWalk_.items.size(); ++i) {
    const SubscriptionHandle h = subWalk_.items[i].key;
    SubscriptionEntry* sub = subWalk_.generation == generation
                                 ? subWalk_.items[i].entry
                                 : findSubscription(h);
    while (sub != nullptr && !sub->mailbox.empty()) {
      // Held here: the callback may unsubscribe, dropping the entry.
      const std::shared_ptr<const Reflection> r =
          std::move(sub->mailbox.front());
      sub->mailbox.pop_front();
      const auto lpIt = lps_.find(sub->lp);
      if (lpIt != lps_.end())
        lpIt->second->reflectAttributeValues(r->className, r->attrs,
                                             r->timestamp);
      if (subWalk_.generation != generation) sub = findSubscription(h);
    }
  }
}

}  // namespace cod::core
