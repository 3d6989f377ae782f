// The routing core of the CommunicationBackbone: registration, the
// discovery and channel handlers, the update fan-out and the per-entry
// timers. Anything order-sensitive on the wire is driven by the
// creation-ordered walks in cb.cpp; nothing here iterates a hash table
// to send.
#include <algorithm>
#include <limits>

#include "core/cb.hpp"

namespace cod::core {

void CommunicationBackbone::eraseFromIndex(
    std::unordered_map<std::string, std::vector<std::uint32_t>>& index,
    const std::string& className, std::uint32_t handle) {
  const auto it = index.find(className);
  if (it == index.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), handle), v.end());
  if (v.empty()) index.erase(it);
}

PublicationHandle CommunicationBackbone::publishObjectClass(
    LogicalProcess& lp, const std::string& className, net::QosClass qos) {
  if (lp.cb_ != this) attach(lp);
  PublicationEntry e;
  e.id = nextHandle_++;
  e.lp = lp.id_;
  e.className = className;
  e.qos = qos;
  auto [it, _] = publications_.emplace(e.id, std::move(e));
  pubsByClass_[className].push_back(it->first);
  ++pubWalk_.generation;
  matchLocal(it->second);
  return it->first;
}

SubscriptionHandle CommunicationBackbone::subscribeObjectClass(
    LogicalProcess& lp, const std::string& className, net::QosClass qos) {
  if (lp.cb_ != this) attach(lp);
  SubscriptionEntry e;
  e.id = nextHandle_++;
  e.lp = lp.id_;
  e.className = className;
  e.qos = qos;
  e.nextBroadcast = now_;  // start discovery on the next tick
  auto [it, _] = subscriptions_.emplace(e.id, std::move(e));
  subsByClass_[className].push_back(it->first);
  ++subWalk_.generation;
  const auto ci = pubsByClass_.find(className);
  if (ci != pubsByClass_.end()) {
    for (const PublicationHandle ph : ci->second) {
      PublicationEntry& pub = publications_.find(ph)->second;
      if (std::find(pub.localSubscribers.begin(), pub.localSubscribers.end(),
                    it->first) == pub.localSubscribers.end()) {
        pub.localSubscribers.push_back(it->first);
      }
    }
  }
  return it->first;
}

void CommunicationBackbone::matchLocal(PublicationEntry& pub) {
  const auto ci = subsByClass_.find(pub.className);
  if (ci == subsByClass_.end()) return;
  // The class index is in creation order (handles ascend), so fast-path
  // delivery order stays creation order — it is observable.
  for (const SubscriptionHandle h : ci->second) {
    if (std::find(pub.localSubscribers.begin(), pub.localSubscribers.end(),
                  h) == pub.localSubscribers.end()) {
      pub.localSubscribers.push_back(h);
    }
  }
}

void CommunicationBackbone::unpublish(PublicationHandle h) {
  const auto it = publications_.find(h);
  if (it == publications_.end()) return;
  if (!it->second.channels.empty()) {
    auto bye = encode(ByeMsg{0, /*fromPublisher=*/true});
    for (OutChannel& ch : it->second.channels) {
      patchChannelId(bye, ch.remoteChannelId);
      stageToChannel(ch, bye);
    }
    // Resignation must not wait for the next tick (the subscriber would
    // keep trusting a dead channel until its heartbeat timeout). Only the
    // BYE'd peers flush — unrelated peers keep coalescing.
    for (const OutChannel& ch : it->second.channels)
      flushSlot(peerBatches_[ch.batchSlot]);
    for (const OutChannel& ch : it->second.channels) {
      releaseBatchSlot(ch.batchSlot);
      unregisterOutChannel(ch.remote, ch.remoteChannelId, h);
    }
  }
  eraseFromIndex(pubsByClass_, it->second.className, h);
  publications_.erase(it);
  ++pubWalk_.generation;
}

void CommunicationBackbone::unsubscribe(SubscriptionHandle h) {
  const auto it = subscriptions_.find(h);
  if (it == subscriptions_.end()) return;
  std::vector<std::uint32_t> channels;
  for (const auto& [cid, ch] : inChannels_)
    if (ch.subscription == h) channels.push_back(cid);
  for (const std::uint32_t cid : channels)
    removeInChannel(cid, /*sendBye=*/true);
  // Only same-class publications can hold a fast-path link to this
  // subscription.
  const auto ci = pubsByClass_.find(it->second.className);
  if (ci != pubsByClass_.end()) {
    for (const PublicationHandle ph : ci->second) {
      auto& ls = publications_.find(ph)->second.localSubscribers;
      ls.erase(std::remove(ls.begin(), ls.end(), h), ls.end());
    }
  }
  eraseFromIndex(subsByClass_, it->second.className, h);
  subscriptions_.erase(it);
  ++subWalk_.generation;
}

std::size_t CommunicationBackbone::sourceCount(SubscriptionHandle h) const {
  const auto it = subscriptions_.find(h);
  if (it == subscriptions_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [cid, ch] : inChannels_)
    if (ch.subscription == h && ch.live) ++n;
  const auto ci = pubsByClass_.find(it->second.className);
  if (ci != pubsByClass_.end()) {
    for (const PublicationHandle ph : ci->second) {
      const auto& ls = publications_.find(ph)->second.localSubscribers;
      if (std::find(ls.begin(), ls.end(), h) != ls.end()) ++n;
    }
  }
  return n;
}

CbTableLoad CommunicationBackbone::tableLoad() const {
  CbTableLoad l;
  l.publications = publications_.size();
  l.subscriptions = subscriptions_.size();
  l.inChannels = inChannels_.size();
  for (const auto& [h, pub] : publications_)
    l.outChannels += pub.channels.size();
  return l;
}

void CommunicationBackbone::wake(double& due, double now) {
  due = now;
  timersDue_ = std::min(timersDue_, now);
}

void CommunicationBackbone::enqueueReflection(
    SubscriptionEntry& sub, std::shared_ptr<const Reflection> r) {
  sub.latest = r;
  if (sub.mailbox.size() >= kMailboxLimit) {
    sub.mailbox.pop_front();
    ++stats_.mailboxOverflows;
  }
  sub.mailbox.push_back(std::move(r));
  mailboxesPending_ = true;
  ++stats_.updatesDelivered;
}

void CommunicationBackbone::handleSubscription(const SubscriptionMsg& m,
                                               const net::NodeAddr& src) {
  // §2.3: the publisher CB checks whether one of its LPs produces the
  // requested class; if so it acknowledges. It keeps listening while it
  // executes, which is what makes dynamic join possible. ACKs go out in
  // publication-id (creation) order — the class index keeps that order,
  // so no sort is needed here.
  const auto ci = pubsByClass_.find(m.className);
  if (ci == pubsByClass_.end()) return;
  for (const PublicationHandle h : ci->second) {
    const AcknowledgeMsg ack{m.subscriptionId, h, m.className};
    stageSend(src, encode(ack));
    ++stats_.acknowledgesSent;
  }
}

void CommunicationBackbone::handleAcknowledge(const AcknowledgeMsg& m,
                                              const net::NodeAddr& src,
                                              double now) {
  const auto it = subscriptions_.find(m.subscriptionId);
  if (it == subscriptions_.end()) return;  // stale: subscription resigned
  SubscriptionEntry& sub = it->second;
  if (sub.className != m.className) return;
  // Dedup: one channel per (publisher endpoint, publication entry).
  for (const auto& [cid, ch] : inChannels_) {
    if (ch.subscription == sub.id && ch.remote == src &&
        ch.remotePublicationId == m.publicationId)
      return;
  }
  InChannel ch;
  ch.channelId = nextChannelId_++;
  ch.subscription = sub.id;
  ch.remote = src;
  ch.remotePublicationId = m.publicationId;
  ch.lastConnectSent = now;
  ch.lastActivity = now;
  ch.lastHeartbeatSent = now;
  ch.qos = sub.qos;
  if (ch.qos == net::QosClass::kReliableOrdered) {
    // The base sequence arrives with the CHANNEL_ACK; frames that beat it
    // are buffered in the queue until then.
    ch.rq = std::make_unique<net::ReliableReceiveQueue>(cfg_.reliable,
                                                        stats_.reliable);
  }
  const ChannelConnectionMsg connect{sub.id, m.publicationId, ch.channelId,
                                     sub.className, sub.qos};
  const std::uint32_t channelId = ch.channelId;
  inChannels_.emplace(channelId, std::move(ch));
  ++inWalk_.generation;
  stageSend(src, encode(connect));
}

void CommunicationBackbone::handleChannelConnection(
    const ChannelConnectionMsg& m, const net::NodeAddr& src, double now) {
  const auto it = publications_.find(m.publicationId);
  if (it == publications_.end()) return;
  PublicationEntry& pub = it->second;
  if (pub.className != m.className) return;
  wake(pub.timerDue, now);
  auto existing = std::find_if(
      pub.channels.begin(), pub.channels.end(), [&](const OutChannel& ch) {
        return ch.remote == src && ch.remoteChannelId == m.channelId;
      });
  if (existing == pub.channels.end()) {
    OutChannel ch;
    ch.remoteChannelId = m.channelId;
    ch.remote = src;
    ch.lastSentSec = now;
    ch.lastHeardSec = now;
    // Effective QoS: the stronger of the subscriber's request and the
    // publication's floor.
    ch.qos = (m.qos == net::QosClass::kReliableOrdered ||
              pub.qos == net::QosClass::kReliableOrdered)
                 ? net::QosClass::kReliableOrdered
                 : net::QosClass::kBestEffort;
    ch.firstSeq = pub.nextSeq;
    ch.cumAcked = pub.nextSeq - 1;  // owes nothing from before it existed
    ch.lastAckResendSec = now;      // the ack below counts as the first
    ch.qosConfirmed = m.qos == ch.qos;  // false iff upgraded by our floor
    if (ch.qos == net::QosClass::kReliableOrdered && !pub.retx) {
      pub.retx = std::make_unique<net::ReliableSendWindow>(stats_.reliable);
      pub.retx->attachRetransmitDelayHistogram(&hists_.retransmitDelaySec);
    }
    pub.channels.push_back(std::move(ch));
    existing = std::prev(pub.channels.end());
    registerOutChannel(src, m.channelId, pub.id);
    ++stats_.channelsEstablishedOut;
  }
  // Idempotent confirm (the paper's second ACKNOWLEDGE). Re-ACKs repeat
  // the channel's original QoS and base sequence: a retransmitted
  // CHANNEL_CONNECTION must not shift the base the subscriber will trust.
  const ChannelAckMsg ack{m.channelId, pub.id, existing->qos,
                          existing->firstSeq};
  stageSend(src, encode(ack));
}

void CommunicationBackbone::handleChannelAck(const ChannelAckMsg& m,
                                             double now) {
  const auto it = inChannels_.find(m.channelId);
  if (it == inChannels_.end()) return;
  InChannel& ch = it->second;
  wake(ch.timerDue, now);
  if (!ch.live) {
    ch.live = true;
    ++stats_.channelsEstablishedIn;
  }
  ch.lastActivity = now;
  if (m.qos == net::QosClass::kReliableOrdered) {
    if (!ch.rq) {
      // The publication mandates reliability although this subscriber
      // only asked for best effort: upgrade the channel.
      ch.qos = net::QosClass::kReliableOrdered;
      ch.rq = std::make_unique<net::ReliableReceiveQueue>(cfg_.reliable,
                                                          stats_.reliable);
    }
    // Updates may have been delivered newest-wins before this ACK landed
    // (upgrade path); never re-deliver below them.
    ch.rq->setBase(std::max(m.firstSeq, ch.lastSeq + 1), rqReady_);
    deliverReliableReady(ch);
  }
}

void CommunicationBackbone::handleUpdate(const UpdateView& m, double now) {
  const auto it = inChannels_.find(m.channelId);
  if (it == inChannels_.end()) {
    ++stats_.unknownChannelDrops;
    return;
  }
  InChannel& ch = it->second;
  if (!ch.live) {
    // The CHANNEL_ACK was lost but data is flowing: the channel is live,
    // and its keep-alives start.
    ch.live = true;
    ++stats_.channelsEstablishedIn;
    wake(ch.timerDue, now);
  }
  ch.lastActivity = now;  // only moves the timeout later
  if (ch.rq) {
    // Reliable path: the queue owns ordering, duplicates and gap healing.
    // Retransmits legitimately arrive with old sequence numbers, so the
    // newest-wins cursor does not apply. A fed queue is polled at once.
    // The queue may hold the frame past this datagram, so it gets the one
    // owned copy of the payload.
    wake(ch.timerDue, now);
    ch.rq->offer(net::ReliableFrame{m.seq, m.timestamp,
                                    {m.payload.begin(), m.payload.end()},
                                    m.traced, m.pubWallSec, now},
                 now, rqReady_);
    deliverReliableReady(ch);
    return;
  }
  if (m.seq <= ch.lastSeq) {
    ++stats_.duplicatesDropped;
    return;
  }
  ch.lastSeq = m.seq;
  auto attrs = AttributeSet::decode(m.payload);
  if (!attrs) {
    ++stats_.malformedDrops;
    return;
  }
  const auto sit = subscriptions_.find(ch.subscription);
  if (sit == subscriptions_.end()) return;
  enqueueReflection(sit->second, std::make_shared<const Reflection>(Reflection{
                                     sit->second.className, std::move(*attrs),
                                     m.timestamp, m.seq}));
}

void CommunicationBackbone::handlePublisherHeartbeat(const HeartbeatMsg& m,
                                                     const net::NodeAddr& src,
                                                     double now) {
  // Subscriber side: a publisher keep-alive refreshes the inbound channel.
  const auto it = inChannels_.find(m.channelId);
  if (it != inChannels_.end() && it->second.remote == src)
    it->second.lastActivity = now;
}

void CommunicationBackbone::handleSubscriberHeartbeat(PublicationHandle pub,
                                                      const HeartbeatMsg& m,
                                                      const net::NodeAddr& src,
                                                      double now) {
  // Publisher side: a subscriber keep-alive refreshes the outgoing channel
  // (and may end its stall, resuming its tail retransmits).
  const auto it = publications_.find(pub);
  if (it == publications_.end()) return;
  wake(it->second.timerDue, now);
  for (OutChannel& ch : it->second.channels) {
    if (ch.remote == src && ch.remoteChannelId == m.channelId)
      ch.lastHeardSec = now;
  }
}

void CommunicationBackbone::handlePublisherBye(const ByeMsg& m,
                                               const net::NodeAddr& src) {
  // A publisher resigned: drop the inbound channel (no BYE back).
  const auto it = inChannels_.find(m.channelId);
  if (it != inChannels_.end() && it->second.remote == src)
    removeInChannel(m.channelId, /*sendBye=*/false);
}

void CommunicationBackbone::handleSubscriberBye(PublicationHandle pub,
                                                const ByeMsg& m,
                                                const net::NodeAddr& src) {
  // A subscriber resigned: drop the matching outgoing channel.
  const auto it = publications_.find(pub);
  if (it == publications_.end()) return;
  wake(it->second.timerDue, now_);
  auto& chans = it->second.channels;
  const std::size_t before = chans.size();
  chans.erase(std::remove_if(chans.begin(), chans.end(),
                             [&](const OutChannel& ch) {
                               if (ch.remote != src ||
                                   ch.remoteChannelId != m.channelId)
                                 return false;
                               releaseBatchSlot(ch.batchSlot);
                               unregisterOutChannel(
                                   ch.remote, ch.remoteChannelId, pub);
                               return true;
                             }),
              chans.end());
  if (chans.size() != before) compactSendWindow(it->second);
}

OutChannel* CommunicationBackbone::findOutChannelIn(
    PublicationEntry& pub, const net::NodeAddr& src,
    std::uint32_t remoteChannelId) {
  for (OutChannel& ch : pub.channels) {
    if (ch.remote == src && ch.remoteChannelId == remoteChannelId) return &ch;
  }
  return nullptr;
}

void CommunicationBackbone::compactSendWindow(PublicationEntry& pub) {
  if (!pub.retx) return;
  std::uint64_t minAcked = std::numeric_limits<std::uint64_t>::max();
  bool anyReliable = false;
  for (const OutChannel& ch : pub.channels) {
    if (ch.qos != net::QosClass::kReliableOrdered) continue;
    anyReliable = true;
    minAcked = std::min(minAcked, ch.cumAcked);
  }
  if (!anyReliable) {
    pub.retx->clear();
    return;
  }
  pub.retx->pruneThrough(minAcked);
}

void CommunicationBackbone::deliverReliableReady(InChannel& ch) {
  if (rqReady_.empty()) return;
  const auto sit = subscriptions_.find(ch.subscription);
  if (sit == subscriptions_.end()) {
    rqReady_.clear();
    return;
  }
  const bool tracingOn = tracing();
  for (const net::ReliableFrame& f : rqReady_) {
    if (f.traced) {
      // Latency sampling: remember the newest released sample so the next
      // WINDOW_ACK can echo it back to the publisher. One slot suffices —
      // a newer sample simply supersedes an un-echoed older one, which
      // thins the sample stream but never biases it.
      ch.pendingEcho = PendingTraceEcho{f.seq, f.tagSec, now_};
      if (tracingOn) {
        traceEvent(telemetry::TraceEventKind::kSubscriberSpan, f.arrivalSec,
                   now_ - f.arrivalSec, f.seq, ch.channelId);
      }
    }
    // Record the releases worth replaying: frames that waited in the
    // window (a repair or reorder just resolved) and sampled frames. The
    // steady state — released the tick it arrived — would otherwise be
    // the ring's biggest noise source and evict exactly those.
    if (tracingOn && (f.traced || now_ > f.arrivalSec))
      traceEvent(telemetry::TraceEventKind::kInOrderRelease, now_, 0.0,
                 f.seq, ch.channelId);
    auto attrs = AttributeSet::decode(f.payload);
    if (!attrs) {
      ++stats_.malformedDrops;
      continue;
    }
    enqueueReflection(sit->second,
                      std::make_shared<const Reflection>(
                          Reflection{sit->second.className, std::move(*attrs),
                                     f.timestamp, f.seq}));
  }
  rqReady_.clear();
}

void CommunicationBackbone::attachTraceEcho(InChannel& ch, WindowAckMsg& ack,
                                            double now) {
  if (!ch.pendingEcho) return;
  // Hold time is measured entirely on the subscriber clock, so the
  // publisher can subtract it from the round trip without clock sync.
  ack.echoed = true;
  ack.echoSeq = ch.pendingEcho->seq;
  ack.echoTagSec = ch.pendingEcho->tagSec;
  ack.echoHoldSec = now - ch.pendingEcho->releaseSec;
  ch.pendingEcho.reset();
}

void CommunicationBackbone::attachDupReport(const InChannel& ch,
                                            WindowAckMsg& ack) {
  // Cumulative, not interval: a report lost on the wire is healed by the
  // next one. Zero duplicates appends no dup block, so a loss-free
  // channel's acks stay byte-identical to the pre-dup-report wire.
  const std::uint64_t dups = ch.rq->duplicatesDropped();
  if (dups == 0) return;
  ack.dupReported = true;
  ack.dupCount = dups;
}

void CommunicationBackbone::handleNack(PublicationHandle pub, const NackMsg& m,
                                       const net::NodeAddr& src, double now) {
  const auto it = publications_.find(pub);
  if (it == publications_.end()) return;
  PublicationEntry& p = it->second;
  OutChannel* ch = findOutChannelIn(p, src, m.channelId);
  if (ch == nullptr || ch->qos != net::QosClass::kReliableOrdered || !p.retx)
    return;
  wake(p.timerDue, now);
  ++stats_.reliable.nacksReceived;
  if (tracing())
    traceEvent(telemetry::TraceEventKind::kNackReceived, now, 0.0,
               m.missingSeqs.size(), ch->remoteChannelId);
  // A NACK is the subscriber speaking: refresh liveness so the tail-RTO
  // sweep's stalled-channel guard never pauses a peer that is actively
  // asking for frames (its heartbeats/acks may all be getting lost).
  ch->lastHeardSec = now;
  net::ReliableSendWindow* w = p.retx.get();
  std::uint64_t skipThrough = 0;
  for (const std::uint64_t seq : m.missingSeqs) {
    if (seq < ch->firstSeq || seq >= p.nextSeq) continue;  // never owed
    if (std::vector<std::uint8_t>* frame = w->frame(seq)) {
      patchChannelId(*frame, ch->remoteChannelId);
      stageToChannel(*ch, *frame);
      if (seq > ch->maxSentSeq) {
        // First trip on this channel (withheld while the QoS upgrade was
        // unconfirmed): data, not a re-send.
        ch->maxSentSeq = seq;
        w->touchSent(seq, now);
        ++stats_.reliable.dataFramesSent;
      } else {
        w->markSent(seq, now);
        ++ch->retransmits;
        if (tracing())
          traceEvent(telemetry::TraceEventKind::kRetransmit, now, 0.0, seq,
                     ch->remoteChannelId);
      }
      ch->lastSentSec = now;
    } else if (seq <= w->highestEvicted()) {
      // Evicted by window overflow: the subscriber must skip, or it will
      // NACK this hole forever.
      skipThrough = std::max(skipThrough, w->highestEvicted());
    }
    // Otherwise the frame was pruned because this subscriber already
    // acked it — a stale NACK that crossed our prune in flight; ignore.
  }
  if (skipThrough > 0) {
    stageToChannel(*ch, encode(WindowAckMsg{ch->remoteChannelId, skipThrough,
                                            /*fromPublisher=*/true}));
  }
}

void CommunicationBackbone::handlePublisherWindowAck(const WindowAckMsg& m,
                                                     const net::NodeAddr& src,
                                                     double now) {
  // Subscriber side: the publisher cannot retransmit through
  // cumulativeSeq any more — skip the hole instead of waiting forever.
  const auto it = inChannels_.find(m.channelId);
  if (it == inChannels_.end() || it->second.remote != src || !it->second.rq)
    return;
  InChannel& ch = it->second;
  wake(ch.timerDue, now);
  ch.lastActivity = now;
  ch.rq->abandonThrough(m.cumulativeSeq, rqReady_);
  deliverReliableReady(ch);
}

void CommunicationBackbone::handleSubscriberWindowAck(PublicationHandle pub,
                                                      const WindowAckMsg& m,
                                                      const net::NodeAddr& src,
                                                      double now) {
  // Publisher side: cumulative delivery progress from the subscriber.
  const auto it = publications_.find(pub);
  if (it == publications_.end()) return;
  PublicationEntry& p = it->second;
  OutChannel* ch = findOutChannelIn(p, src, m.channelId);
  if (ch == nullptr || ch->qos != net::QosClass::kReliableOrdered) return;
  wake(p.timerDue, now);
  ++stats_.reliable.windowAcksReceived;
  if (m.echoed) {
    // The subscriber echoed our trace tag: round trip minus its measured
    // hold is the publish→in-order-release latency, entirely on this
    // node's clock (only the ack's return transit inflates it, which is
    // documented as a conservative overestimate).
    const double latency = std::max(0.0, now - m.echoTagSec - m.echoHoldSec);
    hists_.deliveryLatencySec.record(latency);
    if (tracing())
      traceEvent(telemetry::TraceEventKind::kPublisherSpan, m.echoTagSec,
                 latency, m.echoSeq, m.channelId);
  }
  ch->windowAckSeen = true;
  const bool wasConfirmed = ch->qosConfirmed;
  ch->qosConfirmed = true;
  ch->cumAcked = std::max(ch->cumAcked, m.cumulativeSeq);
  ch->lastHeardSec = now;
  if (m.dupReported && m.dupCount > ch->dupReported) {
    // The subscriber's cumulative duplicate count advanced: those
    // retransmits were delivered twice, not lost. The loss estimate
    // subtracts them (reliableLossEstimatePct's third argument), which
    // removes the tail-RTO bias on low-rate streams — a tail re-send
    // racing a slow ack is a duplicate, not path loss.
    stats_.reliable.peerDuplicatesReported += m.dupCount - ch->dupReported;
    ch->dupReported = m.dupCount;
  }
  if (!wasConfirmed && p.retx) {
    // The QoS upgrade just landed: every frame withheld while the
    // subscriber was QoS-blind leaves NOW, as one burst, instead of
    // dribbling out of the tail-RTO sweep at kMaxRetransmitPerSweep per
    // timeout. These are first transmissions on this channel — counted
    // as data and excluded from the retransmit tally, or the
    // reliable-layer loss estimate would see a flurry of "re-sends" that
    // were never lost at every publisher-upgraded channel establishment.
    for (std::uint64_t seq = std::max(ch->firstSeq, ch->cumAcked + 1);
         seq < p.nextSeq; ++seq) {
      std::vector<std::uint8_t>* frame = p.retx->frame(seq);
      if (frame == nullptr) continue;  // pruned or evicted
      patchChannelId(*frame, ch->remoteChannelId);
      stageToChannel(*ch, *frame);
      p.retx->touchSent(seq, now);
      ch->maxSentSeq = std::max(ch->maxSentSeq, seq);
      ++stats_.reliable.dataFramesSent;
      ch->lastSentSec = now;
    }
  }
  compactSendWindow(p);
}

void CommunicationBackbone::removeInChannel(std::uint32_t channelId,
                                            bool sendBye) {
  const auto it = inChannels_.find(channelId);
  if (it == inChannels_.end()) return;
  if (sendBye) {
    // Tell the publisher so its outgoing entry does not linger until the
    // heartbeat timeout; flush that peer (only) immediately for the same
    // reason.
    const auto bytes = encode(ByeMsg{channelId, /*fromPublisher=*/false});
    stageToChannel(it->second, bytes);
    flushSlot(peerBatches_[it->second.batchSlot]);
  }
  releaseBatchSlot(it->second.batchSlot);
  inChannels_.erase(it);
  ++inWalk_.generation;
}

void CommunicationBackbone::update(PublicationEntry& pub,
                                   const AttributeSet& attrs,
                                   double timestamp) {
  const std::uint64_t seq = pub.nextSeq;
  const bool network = !pub.channels.empty();
  bool sampled = false;
  if (network) {
    // Serialize the frame once; only the 4-byte channel id differs between
    // channels, so fan-out patches it in place instead of re-encoding the
    // whole payload per channel. The attribute set is encoded straight
    // into the reusable frame (no intermediate payload vector), so the
    // steady-state hot path is allocation-free.
    net::WireWriter w(std::move(updateFrame_));
    const std::size_t blobStart = beginUpdateFrame(w, seq, timestamp);
    attrs.encodeInto(w);
    w.endBlob(blobStart);
    // Latency sampling: every traceSampleEvery-th update on a reliable
    // publication carries the publish-time tag. It is appended BEFORE the
    // frame is stored in the retransmit window, so a retransmitted sample
    // measures retransmit-inclusive latency. Sampling off (the default)
    // appends nothing — the frame is byte-identical.
    sampled = cfg_.traceSampleEvery > 0 && pub.retx != nullptr &&
              seq % cfg_.traceSampleEvery == 0;
    if (sampled) appendUpdateTraceTag(w, now_);
    updateFrame_ = w.take();
  }
  pub.nextSeq = seq + 1;

  // Local fast path: same-computer subscribers get the update without the
  // network round trip (§2.1 — one or many LPs can run on a computer).
  // Handles whose subscription has been resigned are erased eagerly so the
  // table cannot accumulate dead links (and channelCount stays truthful).
  // Every local subscriber shares one copy of the update.
  auto& locals = pub.localSubscribers;
  std::size_t kept = 0;
  std::shared_ptr<const Reflection> local;
  for (const SubscriptionHandle sh : locals) {
    const auto sit = subscriptions_.find(sh);
    if (sit == subscriptions_.end()) continue;  // stale: dropped below
    locals[kept++] = sh;
    if (!local)
      local = std::make_shared<const Reflection>(
          Reflection{pub.className, attrs, timestamp, seq});
    enqueueReflection(sit->second, local);
    ++stats_.updatesLocalFastPath;
  }
  locals.resize(kept);

  if (network) {
    wake(pub.timerDue, now_);  // a new frame enters the windows
    if (sampled && tracing())
      traceEvent(telemetry::TraceEventKind::kUpdatePublished, now_, 0.0, seq);
    bool buffered = false;
    // The frame enters the staging arena once for the whole fan-out (on
    // the first channel that actually sends); each channel then stages a
    // 16-byte descriptor whose flush-time spans swap in that channel's id
    // — no per-channel patch-and-copy of the frame bytes.
    std::uint32_t fanOff = 0;
    bool fanStaged = false;
    for (OutChannel& ch : pub.channels) {
      if (ch.qos == net::QosClass::kReliableOrdered && !buffered) {
        // One buffered copy serves every reliable channel; the channel id
        // is re-patched at retransmit time.
        if (pub.retx) pub.retx->store(seq, updateFrame_, now_);
        buffered = true;
      }
      if (!ch.qosConfirmed) continue;  // held back until the upgrade lands
      if (!fanStaged) {
        fanOff = arenaAppend(updateFrame_);
        fanStaged = true;
      }
      stagePatchedToChannel(ch, fanOff,
                            static_cast<std::uint32_t>(updateFrame_.size()));
      ch.lastSentSec = now_;
      ++stats_.updatesSent;
      if (ch.qos == net::QosClass::kReliableOrdered) {
        ++stats_.reliable.dataFramesSent;
        ch.maxSentSeq = seq;
      }
    }
  }
}

void CommunicationBackbone::subscriptionTimer(SubscriptionEntry& sub,
                                              double now) {
  const bool hasLive = sourceCount(sub.id) > 0;
  if (hasLive && cfg_.refreshIntervalSec <= 0.0) {
    sub.nextBroadcast = 1e300;  // paper-literal: stop once acknowledged
    return;
  }
  const SubscriptionMsg msg{sub.id, sub.className};
  const auto bytes = encode(msg);
  transport_->broadcast(address().port, bytes);
  ++stats_.broadcastsSent;
  sub.nextBroadcast = now + (hasLive ? cfg_.refreshIntervalSec
                                     : cfg_.broadcastIntervalSec);
}

bool CommunicationBackbone::inChannelTimer(
    InChannel& ch, double now, std::vector<std::uint8_t>& subHeartbeat) {
  // A reliable channel needs the CHANNEL_ACK itself (it carries the base
  // sequence), so inbound data marking the channel live is not enough to
  // stop the connection retries.
  const bool needsAck = !ch.live || (ch.rq && !ch.rq->baseKnown());
  if (needsAck && now - ch.lastConnectSent >= kConnectRetrySec) {
    const auto sit = subscriptions_.find(ch.subscription);
    if (sit != subscriptions_.end()) {
      const ChannelConnectionMsg connect{ch.subscription,
                                         ch.remotePublicationId, ch.channelId,
                                         sit->second.className,
                                         sit->second.qos};
      stageSend(ch.remote, encode(connect));
      ch.lastConnectSent = now;
    }
  }
  if (ch.rq) {
    // Receiver half of the reliable layer: NACK gaps that outlived the
    // channel's reorder window (and repeat unanswered NACKs), and
    // acknowledge cumulative progress. Both coalesce with whatever else
    // this tick owes the publisher (heartbeats included).
    const auto missing = ch.rq->collectNacks(now);
    if (!missing.empty()) {
      stageToChannel(ch, encode(NackMsg{ch.channelId, missing}));
      if (tracing())
        traceEvent(telemetry::TraceEventKind::kNackSent, now, 0.0,
                   missing.size(), ch.channelId);
    }
    if (const auto cum = ch.rq->collectAck(now)) {
      WindowAckMsg ack{ch.channelId, *cum, /*fromPublisher=*/false};
      attachTraceEcho(ch, ack, now);
      attachDupReport(ch, ack);
      stageToChannel(ch, encode(ack));
      // The ack doubles as a keep-alive on this direction.
      ch.lastHeartbeatSent = now;
    }
  }
  if (ch.live && now - ch.lastHeartbeatSent >= kHeartbeatIntervalSec) {
    // Subscriber keep-alive so the publisher can garbage-collect dead
    // channels (we may never send anything else on this direction).
    if (subHeartbeat.empty())
      subHeartbeat = encode(HeartbeatMsg{0, now, /*fromPublisher=*/false});
    patchChannelId(subHeartbeat, ch.channelId);
    stageToChannel(ch, subHeartbeat);
    ch.lastHeartbeatSent = now;
    if (ch.rq) {
      // Piggyback the cumulative ack on the keep-alive that is leaving
      // anyway: a quiet reliable link keeps the publisher's window
      // pruned without ever paying a separate control datagram.
      if (const auto cum = ch.rq->piggybackAck(now)) {
        WindowAckMsg ack{ch.channelId, *cum, /*fromPublisher=*/false};
        attachTraceEcho(ch, ack, now);
        attachDupReport(ch, ack);
        stageToChannel(ch, encode(ack));
      }
    }
  }
  // The next tick any check above can act on: the earliest of their own
  // deadlines, from the state this run left behind.
  double due = net::dueAfter(ch.lastActivity, cfg_.channelTimeoutSec);
  if (needsAck)
    due = std::min(due, net::dueAfter(ch.lastConnectSent, kConnectRetrySec));
  if (ch.live)
    due = std::min(
        due, net::dueAfter(ch.lastHeartbeatSent, kHeartbeatIntervalSec));
  if (ch.rq) due = std::min(due, ch.rq->nextTimerDue());
  ch.timerDue = due;
  return now - ch.lastActivity > cfg_.channelTimeoutSec;
}

void CommunicationBackbone::dropTimedOutInChannel(std::uint32_t channelId,
                                                  double now) {
  const auto it = inChannels_.find(channelId);
  if (it == inChannels_.end()) return;
  const SubscriptionHandle sh = it->second.subscription;
  removeInChannel(channelId, /*sendBye=*/false);
  ++stats_.channelsTimedOut;
  // Resume fast discovery for the orphaned subscription.
  const auto sit = subscriptions_.find(sh);
  if (sit != subscriptions_.end()) wake(sit->second.nextBroadcast, now);
}

void CommunicationBackbone::publicationTimer(
    PublicationEntry& pub, double now,
    std::vector<std::uint8_t>& pubHeartbeat) {
  auto& chans = pub.channels;
  for (OutChannel& ch : chans) {
    if (ch.qos == net::QosClass::kReliableOrdered && !ch.windowAckSeen &&
        now - ch.lastAckResendSec >= kConnectRetrySec) {
      // Until the first WINDOW_ACK arrives the subscriber may not know
      // this channel is reliable (its CHANNEL_ACK can be lost while
      // data keeps it live): repeat the ack with the original base.
      stageToChannel(ch, encode(ChannelAckMsg{ch.remoteChannelId, pub.id,
                                              ch.qos, ch.firstSeq}));
      ch.lastAckResendSec = now;
    }
    if (now - ch.lastSentSec >= kHeartbeatIntervalSec) {
      if (pubHeartbeat.empty())
        pubHeartbeat = encode(HeartbeatMsg{0, now, /*fromPublisher=*/true});
      patchChannelId(pubHeartbeat, ch.remoteChannelId);
      stageToChannel(ch, pubHeartbeat);
      ch.lastSentSec = now;
    }
  }
  const double stalledAfterSec = 2.0 * kHeartbeatIntervalSec;
  const auto stalled = [&](const OutChannel& ch) {
    return now - ch.lastHeardSec > stalledAfterSec;
  };
  if (pub.retx && !pub.retx->empty()) {
    // Unprompted retransmit of frames unacked beyond the timeout: loss
    // of the last frame of a burst leaves no gap for the receiver to
    // NACK, so the sender must cover the tail.
    //
    // The sweep skips *stalled* channels — no heartbeat or ack from the
    // subscriber for two keep-alive intervals. Such a peer is either
    // dead (its channel is riding out channelTimeoutSec) or cut off,
    // and resending every unacked frame to it each RTO would both waste
    // datagrams and poison the reliable-layer loss estimate with
    // "retransmits" that were never actually lost — the multi-process
    // UDP soak's ±5pp loss-tracking check caught exactly this during a
    // kill/restart window. Nothing is given up: the frames stay in the
    // window, and the moment the peer speaks again lastHeardSec
    // refreshes and the sweep resumes where it left off.
    std::uint64_t minUnacked = std::numeric_limits<std::uint64_t>::max();
    for (const OutChannel& ch : chans) {
      // Unconfirmed channels receive nothing yet, so sweeping for them
      // would only churn the frame timers.
      if (ch.qos == net::QosClass::kReliableOrdered && ch.qosConfirmed &&
          !stalled(ch))
        minUnacked = std::min(minUnacked, ch.cumAcked + 1);
    }
    for (const std::uint64_t seq :
         pub.retx->takeTailRetransmits(minUnacked, now)) {
      std::vector<std::uint8_t>* frame = pub.retx->frame(seq);
      if (frame == nullptr) continue;
      for (OutChannel& ch : chans) {
        if (ch.qos != net::QosClass::kReliableOrdered || !ch.qosConfirmed ||
            ch.cumAcked >= seq || seq < ch.firstSeq || stalled(ch))
          continue;
        patchChannelId(*frame, ch.remoteChannelId);
        stageToChannel(ch, *frame);
        ch.lastSentSec = now;
        if (seq > ch.maxSentSeq) {
          // First transmission on this channel: frames window-buffered
          // while the QoS upgrade was unconfirmed leave through this
          // sweep, and counting them as retransmits would inflate the
          // loss estimate with re-sends that were never lost.
          ch.maxSentSeq = seq;
          ++stats_.reliable.dataFramesSent;
        } else {
          ++ch.retransmits;
          // Per channel staged, matching dataFramesSent's unit (the
          // NACK path counts the same way through markSent).
          ++stats_.reliable.retransmitsSent;
          if (tracing())
            traceEvent(telemetry::TraceEventKind::kRetransmit, now, 0.0,
                       seq, ch.remoteChannelId);
        }
      }
    }
  }
  const std::size_t before = chans.size();
  chans.erase(std::remove_if(chans.begin(), chans.end(),
                             [&](const OutChannel& ch) {
                               if (now - ch.lastHeardSec <=
                                   cfg_.channelTimeoutSec)
                                 return false;
                               releaseBatchSlot(ch.batchSlot);
                               unregisterOutChannel(
                                   ch.remote, ch.remoteChannelId, pub.id);
                               return true;
                             }),
              chans.end());
  if (chans.size() != before) {
    stats_.channelsTimedOut += before - chans.size();
    compactSendWindow(pub);
  }

  // The next tick any check above can act on, from the state this run
  // left behind. A stalled channel stays stalled until the subscriber is
  // heard from, and every handler that hears from it wakes the timer.
  double due = std::numeric_limits<double>::infinity();
  std::uint64_t minUnacked = std::numeric_limits<std::uint64_t>::max();
  for (const OutChannel& ch : chans) {
    due = std::min({due, net::dueAfter(ch.lastHeardSec, cfg_.channelTimeoutSec),
                    net::dueAfter(ch.lastSentSec, kHeartbeatIntervalSec)});
    if (ch.qos == net::QosClass::kReliableOrdered && !ch.windowAckSeen)
      due = std::min(due, net::dueAfter(ch.lastAckResendSec, kConnectRetrySec));
    if (ch.qos == net::QosClass::kReliableOrdered && ch.qosConfirmed &&
        !stalled(ch))
      minUnacked = std::min(minUnacked, ch.cumAcked + 1);
  }
  if (pub.retx)
    due = std::min(due,
                   net::dueAfter(pub.retx->earliestUnackedSentSec(minUnacked),
                                 net::kRetxTimeoutSec));
  pub.timerDue = due;
}

}  // namespace cod::core
