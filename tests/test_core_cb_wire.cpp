// Wire-level tests of the CB fan-out fast path: an UPDATE/HEARTBEAT/BYE
// frame is encoded once and re-targeted per channel by patching the 4-byte
// channel id, so the bytes each subscriber receives must be identical to a
// full per-channel re-encode. Also pins a digest of the wire across every
// CB timer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cb.hpp"
#include "core/protocol.hpp"
#include "net/simnet.hpp"
#include "net/transport.hpp"

namespace cod::core {
namespace {

/// Transport that records every outbound frame and replays injected
/// datagrams, so tests can assert exact bytes on the wire.
class ScriptedTransport final : public net::Transport {
 public:
  net::NodeAddr localAddress() const override { return {1, 1}; }

  void send(const net::NodeAddr& dst,
            std::span<const std::uint8_t> bytes) override {
    sent.emplace_back(dst, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }

  void broadcast(std::uint16_t /*port*/,
                 std::span<const std::uint8_t> /*bytes*/) override {}

  std::optional<net::Datagram> receive() override {
    if (inbound.empty()) return std::nullopt;
    net::Datagram d = std::move(inbound.front());
    inbound.pop_front();
    return d;
  }

  void inject(const net::NodeAddr& src, std::vector<std::uint8_t> bytes) {
    inbound.push_back(net::Datagram{src, localAddress(), std::move(bytes)});
  }

  std::vector<std::pair<net::NodeAddr, std::vector<std::uint8_t>>> sent;
  std::deque<net::Datagram> inbound;
};

AttributeSet sampleAttrs() {
  AttributeSet a;
  a.set("v", 1.25);
  a.set("n", std::int64_t{7});
  a.set("on", true);
  return a;
}

TEST(PatchChannelId, MatchesFullReencodeForAllChannelBearingTypes) {
  const std::vector<std::uint32_t> ids{0u, 1u, 5u, 0xDEADBEEFu};
  for (const std::uint32_t id : ids) {
    UpdateMsg u;
    u.seq = 42;
    u.timestamp = 3.5;
    u.payload = sampleAttrs().encode();
    auto patched = encode(u);  // channelId == 0
    patchChannelId(patched, id);
    u.channelId = id;
    EXPECT_EQ(patched, encode(u)) << "UpdateMsg channel " << id;

    auto hb = encode(HeartbeatMsg{0, 9.25, true});
    patchChannelId(hb, id);
    EXPECT_EQ(hb, encode(HeartbeatMsg{id, 9.25, true})) << "Heartbeat " << id;

    auto bye = encode(ByeMsg{0, false});
    patchChannelId(bye, id);
    EXPECT_EQ(bye, encode(ByeMsg{id, false})) << "Bye " << id;
  }
}

TEST(PatchChannelId, EncodeIntoReusesBufferAndMatchesEncode) {
  UpdateMsg u;
  u.channelId = 11;
  u.seq = 3;
  u.timestamp = 0.5;
  u.payload = sampleAttrs().encode();
  std::vector<std::uint8_t> frame;
  encodeInto(u, frame);
  EXPECT_EQ(frame, encode(u));
  // Re-encoding a smaller message into the same buffer must not keep bytes
  // of the previous, larger frame.
  UpdateMsg small;
  small.channelId = 12;
  small.seq = 4;
  encodeInto(small, frame);
  EXPECT_EQ(frame, encode(small));
}

/// Zero-copy regression: encoding an AttributeSet straight into a writer
/// (the path updateAttributeValues uses for the reusable UPDATE frame)
/// must be byte-identical to the allocating encode().
TEST(ZeroCopyEncode, AttributeSetEncodeIntoMatchesEncode) {
  const AttributeSet attrs = sampleAttrs();
  net::WireWriter w;
  w.u32(0xA5A5A5A5);  // writer already holds bytes; append must not care
  const std::size_t before = w.size();
  attrs.encodeInto(w);
  const auto direct = attrs.encode();
  ASSERT_EQ(w.size(), before + direct.size());
  EXPECT_TRUE(std::equal(direct.begin(), direct.end(),
                         w.bytes().begin() + static_cast<long>(before)));
}

TEST(ZeroCopyEncode, BeginEndBlobMatchesBlob) {
  const std::vector<std::uint8_t> content{1, 2, 3, 4, 5};
  net::WireWriter viaBlob;
  viaBlob.blob(content);
  net::WireWriter inPlace;
  const std::size_t start = inPlace.beginBlob();
  inPlace.raw(content);
  inPlace.endBlob(start);
  EXPECT_EQ(inPlace.bytes(), viaBlob.bytes());
  // Empty blob too.
  net::WireWriter empty1, empty2;
  empty1.blob({});
  const std::size_t s2 = empty2.beginBlob();
  empty2.endBlob(s2);
  EXPECT_EQ(empty2.bytes(), empty1.bytes());
}

class WireFixture : public ::testing::Test {
 protected:
  WireFixture() {
    auto t = std::make_unique<ScriptedTransport>();
    transport = t.get();
    cb = std::make_unique<CommunicationBackbone>("wire", std::move(t));
  }

  /// Establish two outgoing channels (ids 5 and 9) to two fake remotes.
  PublicationHandle publishWithTwoChannels() {
    cb->attach(lp);
    const PublicationHandle h = cb->publishObjectClass(lp, "wire.cls");
    transport->inject(sub1, encode(ChannelConnectionMsg{77, h, 5, "wire.cls"}));
    transport->inject(sub2, encode(ChannelConnectionMsg{78, h, 9, "wire.cls"}));
    cb->tick(0.0);
    EXPECT_EQ(cb->channelCount(h), 2u);
    transport->sent.clear();
    return h;
  }

  LogicalProcess lp{"lp"};
  ScriptedTransport* transport = nullptr;
  std::unique_ptr<CommunicationBackbone> cb;
  const net::NodeAddr sub1{10, 1};
  const net::NodeAddr sub2{20, 1};
};

TEST_F(WireFixture, FanOutUpdateBytesIdenticalToPerChannelEncode) {
  const PublicationHandle h = publishWithTwoChannels();
  const AttributeSet attrs = sampleAttrs();
  cb->updateAttributeValues(h, attrs, 2.5);
  cb->flushBatches();  // one staged frame per peer: leaves bare, not boxed

  ASSERT_EQ(transport->sent.size(), 2u);
  UpdateMsg ref;
  ref.seq = 1;
  ref.timestamp = 2.5;
  ref.payload = attrs.encode();
  ref.channelId = 5;
  EXPECT_EQ(transport->sent[0].first, sub1);
  EXPECT_EQ(transport->sent[0].second, encode(ref));
  ref.channelId = 9;
  EXPECT_EQ(transport->sent[1].first, sub2);
  EXPECT_EQ(transport->sent[1].second, encode(ref));

  // Each frame still decodes on its own (the patch kept it well-formed).
  for (const auto& [dst, bytes] : transport->sent) {
    const auto msg = decode(bytes);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, MsgType::kUpdate);
    const auto decoded = AttributeSet::decode(msg->update.payload);
    ASSERT_TRUE(decoded.has_value());
  }
}

TEST_F(WireFixture, SecondUpdateReusedBufferStillExactBytes) {
  const PublicationHandle h = publishWithTwoChannels();
  cb->updateAttributeValues(h, sampleAttrs(), 1.0);
  cb->flushBatches();
  transport->sent.clear();
  // A different (smaller) payload through the same reused frame buffer.
  AttributeSet small;
  small.set("v", 2.0);
  cb->updateAttributeValues(h, small, 2.0);
  cb->flushBatches();
  ASSERT_EQ(transport->sent.size(), 2u);
  UpdateMsg ref;
  ref.seq = 2;
  ref.timestamp = 2.0;
  ref.payload = small.encode();
  ref.channelId = 5;
  EXPECT_EQ(transport->sent[0].second, encode(ref));
  ref.channelId = 9;
  EXPECT_EQ(transport->sent[1].second, encode(ref));
}

TEST_F(WireFixture, HeartbeatFanOutBytesIdenticalToPerChannelEncode) {
  publishWithTwoChannels();
  cb->tick(0.75);  // past kHeartbeatIntervalSec (0.5) with idle channels
  ASSERT_EQ(transport->sent.size(), 2u);
  EXPECT_EQ(transport->sent[0].second,
            encode(HeartbeatMsg{5, 0.75, /*fromPublisher=*/true}));
  EXPECT_EQ(transport->sent[1].second,
            encode(HeartbeatMsg{9, 0.75, /*fromPublisher=*/true}));
}

TEST_F(WireFixture, UnpublishByeBytesIdenticalToPerChannelEncode) {
  const PublicationHandle h = publishWithTwoChannels();
  cb->unpublish(h);
  ASSERT_EQ(transport->sent.size(), 2u);
  EXPECT_EQ(transport->sent[0].second,
            encode(ByeMsg{5, /*fromPublisher=*/true}));
  EXPECT_EQ(transport->sent[1].second,
            encode(ByeMsg{9, /*fromPublisher=*/true}));
}

/// A reliable channel's retransmit must put the byte-identical frame back
/// on the wire (buffered once, channel id re-patched — never re-encoded).
TEST_F(WireFixture, NackRetransmitReplaysExactUpdateBytes) {
  cb->attach(lp);
  const PublicationHandle h = cb->publishObjectClass(lp, "wire.cls");
  transport->inject(sub1,
                    encode(ChannelConnectionMsg{77, h, 5, "wire.cls",
                                                net::QosClass::kReliableOrdered}));
  cb->tick(0.0);
  transport->sent.clear();

  const AttributeSet attrs = sampleAttrs();
  cb->updateAttributeValues(h, attrs, 1.5);
  cb->flushBatches();
  ASSERT_EQ(transport->sent.size(), 1u);
  const auto original = transport->sent[0].second;
  transport->sent.clear();

  transport->inject(sub1, encode(NackMsg{5, {1}}));
  cb->tick(0.01);
  ASSERT_GE(transport->sent.size(), 1u);
  EXPECT_EQ(transport->sent[0].first, sub1);
  EXPECT_EQ(transport->sent[0].second, original);
  UpdateMsg ref;
  ref.channelId = 5;
  ref.seq = 1;
  ref.timestamp = 1.5;
  ref.payload = attrs.encode();
  EXPECT_EQ(transport->sent[0].second, encode(ref));
  EXPECT_EQ(cb->stats().reliable.retransmitsSent, 1u);
}

/// Best-effort publications must not pay for the reliable layer: no frame
/// buffering, no retransmits, identical wire traffic.
TEST_F(WireFixture, BestEffortPublicationBuffersNothing) {
  const PublicationHandle h = publishWithTwoChannels();
  for (int i = 0; i < 10; ++i)
    cb->updateAttributeValues(h, sampleAttrs(), 0.1 * i);
  cb->flushBatches();
  EXPECT_EQ(cb->stats().reliable.framesBuffered, 0u);
  EXPECT_EQ(cb->stats().reliable.retransmitsSent, 0u);
  // A NACK against a best-effort channel is ignored, not served.
  transport->sent.clear();
  transport->inject(sub1, encode(NackMsg{5, {1, 2, 3}}));
  cb->tick(0.01);
  EXPECT_TRUE(transport->sent.empty());
}

/// Regression: publish → subscribe (local fast path) → unsubscribe →
/// update. The publication table must not retain the dead subscriber —
/// no delivery, truthful channelCount, and no crash.
TEST_F(WireFixture, UnsubscribedLocalSubscriberIsErasedFromPublication) {
  LogicalProcess sub{"sub"};
  cb->attach(lp);
  cb->attach(sub);
  const PublicationHandle h = cb->publishObjectClass(lp, "local.cls");
  const SubscriptionHandle s = cb->subscribeObjectClass(sub, "local.cls");
  EXPECT_EQ(cb->channelCount(h), 1u);

  cb->updateAttributeValues(h, sampleAttrs(), 0.1);
  ASSERT_NE(cb->latest(s), nullptr);
  EXPECT_EQ(cb->stats().updatesLocalFastPath, 1u);

  cb->unsubscribe(s);
  EXPECT_EQ(cb->channelCount(h), 0u);
  cb->updateAttributeValues(h, sampleAttrs(), 0.2);
  EXPECT_EQ(cb->stats().updatesLocalFastPath, 1u);  // nothing new delivered
  EXPECT_EQ(cb->channelCount(h), 0u);
}

// ---- Tick-coalesced batching -------------------------------------------

/// Three updates staged in one tick leave as ONE kBatch container per
/// peer, and every sub-frame is byte-identical to the un-batched encode.
TEST_F(WireFixture, ThreeUpdatesOneTickOneContainerPerPeer) {
  const PublicationHandle h = publishWithTwoChannels();
  const AttributeSet attrs = sampleAttrs();
  cb->updateAttributeValues(h, attrs, 1.0);
  cb->updateAttributeValues(h, attrs, 2.0);
  cb->updateAttributeValues(h, attrs, 3.0);
  cb->flushBatches();

  ASSERT_EQ(transport->sent.size(), 2u);  // one datagram per peer, not six
  EXPECT_EQ(cb->stats().batch.datagramsCoalesced, 2u);
  EXPECT_EQ(cb->stats().batch.framesCoalesced, 6u);
  const std::uint32_t channelIds[2] = {5, 9};
  for (int peer = 0; peer < 2; ++peer) {
    const auto msg = decode(transport->sent[peer].second);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::kBatch);
    ASSERT_EQ(msg->batch.frames.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      UpdateMsg ref;
      ref.channelId = channelIds[peer];
      ref.seq = i + 1;
      ref.timestamp = static_cast<double>(i + 1);
      ref.payload = attrs.encode();
      EXPECT_EQ(msg->batch.frames[i], encode(ref))
          << "peer " << peer << " frame " << i;
    }
  }
}

/// Best-effort and reliable sub-frames share one container when both
/// publications fan out to the same peer in the same tick.
TEST_F(WireFixture, MixedQosFramesShareOneContainer) {
  cb->attach(lp);
  const PublicationHandle be = cb->publishObjectClass(lp, "wire.be");
  const PublicationHandle rel = cb->publishObjectClass(
      lp, "wire.rel", net::QosClass::kReliableOrdered);
  transport->inject(sub1, encode(ChannelConnectionMsg{70, be, 5, "wire.be"}));
  transport->inject(sub1,
                    encode(ChannelConnectionMsg{71, rel, 6, "wire.rel",
                                                net::QosClass::kReliableOrdered}));
  cb->tick(0.0);
  transport->sent.clear();

  const AttributeSet attrs = sampleAttrs();
  cb->updateAttributeValues(be, attrs, 1.0);
  cb->updateAttributeValues(rel, attrs, 1.0);
  cb->flushBatches();
  ASSERT_EQ(transport->sent.size(), 1u);
  const auto msg = decode(transport->sent[0].second);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MsgType::kBatch);
  ASSERT_EQ(msg->batch.frames.size(), 2u);
  const auto first = decode(msg->batch.frames[0]);
  const auto second = decode(msg->batch.frames[1]);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->update.channelId, 5u);
  EXPECT_EQ(second->update.channelId, 6u);
  // The reliable copy is window-buffered for retransmission as usual.
  EXPECT_EQ(cb->stats().reliable.framesBuffered, 1u);
}

/// Receive interop: a container from a batching peer is unpacked and every
/// sub-message dispatched; bare frames from un-batched senders still work.
TEST_F(WireFixture, ReceivesBatchedAndBareFramesAlike) {
  LogicalProcess sub{"sub"};
  cb->attach(sub);
  const SubscriptionHandle s = cb->subscribeObjectClass(sub, "far.cls");
  // Bare ACKNOWLEDGE (un-batched sender), then a batch carrying the
  // CHANNEL_ACK and two updates (batched sender).
  transport->inject(sub1, encode(AcknowledgeMsg{s, 40, "far.cls"}));
  cb->tick(0.0);
  ASSERT_EQ(cb->sourceCount(s), 0u);  // connection sent, not yet acked
  UpdateMsg u1;
  u1.channelId = 1;  // first channel id this CB allocates
  u1.seq = 1;
  u1.timestamp = 0.5;
  u1.payload = sampleAttrs().encode();
  UpdateMsg u2 = u1;
  u2.seq = 2;
  u2.timestamp = 0.6;
  BatchMsg batch;
  batch.frames = {encode(ChannelAckMsg{1, 40}), encode(u1), encode(u2)};
  transport->inject(sub1, encode(batch));
  cb->tick(0.01);
  EXPECT_EQ(cb->sourceCount(s), 1u);
  EXPECT_EQ(cb->stats().updatesDelivered, 2u);
  ASSERT_NE(cb->latest(s), nullptr);
  EXPECT_EQ(cb->latest(s)->seq, 2u);
  EXPECT_EQ(cb->stats().batch.datagramsUnpacked, 1u);
  EXPECT_EQ(cb->stats().batch.framesUnpacked, 3u);
  EXPECT_EQ(cb->stats().malformedDrops, 0u);
}

/// Corrupt containers are dropped without crashing AND without side
/// effects: truncated mid-frame, lying counts, trailing garbage, nested
/// batches, zero-length sub-frames, empty containers. Sub-frames ahead of
/// the corruption must not have been dispatched — a half-applied datagram
/// is a state the un-batched protocol can never produce.
TEST_F(WireFixture, CorruptContainersDroppedAtomically) {
  UpdateMsg u;
  u.channelId = 1;
  u.seq = 1;
  u.payload = sampleAttrs().encode();
  BatchMsg batch;
  batch.frames = {encode(u), encode(HeartbeatMsg{1, 0.5, true})};
  const auto good = encode(batch);

  for (std::size_t cut = 1; cut + 1 < good.size(); ++cut)
    transport->inject(sub1,
                      std::vector<std::uint8_t>(good.begin(),
                                                good.begin() + cut));
  auto trailing = good;  // valid frames followed by a lying tail
  trailing.push_back(0x00);
  transport->inject(sub1, trailing);
  BatchMsg nested;
  nested.frames = {good};
  transport->inject(sub1, encode(nested));
  transport->inject(sub1, std::vector<std::uint8_t>{10, 1, 0, 0, 0, 0, 0});
  transport->inject(sub1, std::vector<std::uint8_t>{10, 0, 0});  // count=0
  cb->tick(0.0);
  EXPECT_GT(cb->stats().malformedDrops, 0u);
  // Atomic rejection: not one sub-frame of any corrupt container ran —
  // the leading valid UPDATE in `trailing` was not delivered or counted.
  EXPECT_EQ(cb->stats().batch.datagramsUnpacked, 0u);
  EXPECT_EQ(cb->stats().batch.framesUnpacked, 0u);
  EXPECT_EQ(cb->stats().unknownChannelDrops, 0u);
  // A well-formed bare heartbeat still gets through afterwards.
  transport->inject(sub1, encode(HeartbeatMsg{99, 0.5, true}));
  cb->tick(0.01);  // unknown channel: ignored, but parsed fine
  SUCCEED();
}

/// Seeded mutation fuzz of the kBatch decoder, in the xorshift idiom of
/// test_core_protocol.cpp: containers built by encode(BatchMsg) get their
/// bytes, counts or lengths mutated, are truncated or grow a tail.
/// decode() must accept exactly the containers validateBatchBody accepts,
/// and a CB fed each one must reject it atomically (malformedDrops + 1,
/// nothing dispatched) or route every sub-frame (framesUnpacked +
/// malformedDrops grow by the frame count).
TEST(BatchFuzz, MutatedContainersDecodeAndDispatchAtomically) {
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  UpdateMsg u;
  u.channelId = 3;
  u.seq = 9;
  u.timestamp = 0.5;
  u.payload = sampleAttrs().encode();
  BatchMsg inner;
  inner.frames = {encode(ByeMsg{4, false}), encode(ByeMsg{5, false})};
  // Well-formed messages, an undecodable one, and two sub-frames the
  // framing rules forbid (empty, nested container).
  const std::vector<std::vector<std::uint8_t>> pool = {
      encode(u),
      encode(HeartbeatMsg{3, 0.5, true}),
      encode(ByeMsg{4, false}),
      encode(NackMsg{4, {7, 8}}),
      encode(WindowAckMsg{4, 6, false}),
      encode(SubscriptionMsg{1, "fuzz.cls"}),
      encode(ChannelAckMsg{5, 6}),
      {0xEE, 1, 2},
      {},
      encode(inner)};

  // A CB with no tables: every sub-frame that routes is a no-op or an
  // unknown-channel drop, so nothing ever leaves.
  auto t = std::make_unique<ScriptedTransport>();
  ScriptedTransport* transport = t.get();
  CommunicationBackbone cb("fuzz", std::move(t));
  std::size_t accepted = 0, rejected = 0;
  double now = 0.0;
  for (int iter = 0; iter < 10000; ++iter) {
    BatchMsg m;
    const std::size_t n = 1 + next() % 6;
    std::vector<std::size_t> lenAt;  // offset of each u32 length prefix
    std::size_t off = kBatchHeaderBytes;
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly well-formed frames; the forbidden ones now and then.
      const std::size_t pick = next() % 64;
      m.frames.push_back(pool[pick < 60 ? pick % 8 : 8 + pick % 2]);
      lenAt.push_back(off);
      off += kBatchFramePrefixBytes + m.frames.back().size();
    }
    auto bytes = encode(m);
    ASSERT_EQ(bytes.size(), off);
    switch (next() % 6) {
      case 0:  // untouched
        break;
      case 1:  // flip bytes anywhere past the type byte
        for (std::uint64_t k = 1 + next() % 3; k > 0; --k)
          bytes[1 + next() % (bytes.size() - 1)] ^=
              static_cast<std::uint8_t>(1 + next() % 255);
        break;
      case 2: {  // a count off by a little, or anything
        const std::uint16_t c =
            next() % 2 == 0 ? static_cast<std::uint16_t>(n + next() % 3 - 1)
                            : static_cast<std::uint16_t>(next());
        bytes[1] = static_cast<std::uint8_t>(c & 0xFF);
        bytes[2] = static_cast<std::uint8_t>(c >> 8);
        break;
      }
      case 3: {  // one length off by a little, or anything
        const std::size_t i = next() % n;
        const std::size_t near = m.frames[i].size() + next() % 7 - 3;
        const std::uint32_t len = static_cast<std::uint32_t>(
            next() % 2 == 0 ? near : static_cast<std::size_t>(next()));
        for (std::size_t b = 0; b < kBatchFramePrefixBytes; ++b)
          bytes[lenAt[i] + b] = static_cast<std::uint8_t>(len >> (8 * b));
        break;
      }
      case 4:  // truncated, keeping the type byte
        bytes.resize(1 + next() % (bytes.size() - 1));
        break;
      case 5:  // a tail the count does not cover
        for (std::uint64_t k = 1 + next() % 4; k > 0; --k)
          bytes.push_back(static_cast<std::uint8_t>(next()));
        break;
    }

    const auto count =
        validateBatchBody(std::span<const std::uint8_t>(bytes).subspan(1));
    const auto msg = decode(bytes);
    ASSERT_EQ(msg.has_value(), count.has_value()) << "iter " << iter;
    if (msg) {
      ASSERT_EQ(msg->type, MsgType::kBatch) << "iter " << iter;
      ASSERT_EQ(msg->batch.frames.size(), *count) << "iter " << iter;
    }

    const CbStats before = cb.stats();
    transport->inject({10, 1}, bytes);
    cb.tick(now += 0.001);
    const CbStats& after = cb.stats();
    if (!count) {
      ++rejected;
      ASSERT_EQ(after.malformedDrops, before.malformedDrops + 1)
          << "iter " << iter;
      ASSERT_EQ(after.batch.datagramsUnpacked, before.batch.datagramsUnpacked);
      ASSERT_EQ(after.batch.framesUnpacked, before.batch.framesUnpacked);
      ASSERT_EQ(after.unknownChannelDrops, before.unknownChannelDrops);
    } else {
      ++accepted;
      ASSERT_EQ(after.batch.datagramsUnpacked,
                before.batch.datagramsUnpacked + 1);
      ASSERT_EQ(after.batch.framesUnpacked + after.malformedDrops,
                before.batch.framesUnpacked + before.malformedDrops + *count)
          << "iter " << iter;
    }
  }
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
  EXPECT_TRUE(transport->sent.empty());
}

/// Two publications of the same class on one CB acknowledge a discovery
/// broadcast in publication-id (creation) order, whatever the hash-table
/// layout — channel-id assignment downstream depends on this order.
TEST_F(WireFixture, SameClassPublicationsAcknowledgeInCreationOrder) {
  LogicalProcess lp2{"lp2"};
  cb->attach(lp);
  cb->attach(lp2);
  const PublicationHandle first = cb->publishObjectClass(lp, "dup.cls");
  const PublicationHandle second = cb->publishObjectClass(lp2, "dup.cls");
  ASSERT_LT(first, second);
  transport->inject(sub1, encode(SubscriptionMsg{500, "dup.cls"}));
  cb->tick(0.0);
  ASSERT_EQ(transport->sent.size(), 1u);  // both ACKs ride one container
  const auto msg = decode(transport->sent[0].second);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MsgType::kBatch);
  ASSERT_EQ(msg->batch.frames.size(), 2u);
  EXPECT_EQ(msg->batch.frames[0], encode(AcknowledgeMsg{500, first, "dup.cls"}));
  EXPECT_EQ(msg->batch.frames[1],
            encode(AcknowledgeMsg{500, second, "dup.cls"}));
}

/// A frame bigger than the byte budget bypasses the container and goes out
/// bare (wire-compatible; the transport may fragment, the CB never does).
TEST_F(WireFixture, OversizeFrameBypassesContainer) {
  const PublicationHandle h = publishWithTwoChannels();
  const auto soloBefore = cb->stats().batch.soloFlushes;
  AttributeSet big;
  big.set("blob", std::string(2000, 'x'));
  cb->updateAttributeValues(h, sampleAttrs(), 1.0);  // small, staged
  cb->updateAttributeValues(h, big, 2.0);            // oversize, bare
  cb->flushBatches();
  // Per peer: the oversize frame went out on its own, the small one in a
  // solo flush — so four datagrams, two of them bare oversize.
  ASSERT_EQ(transport->sent.size(), 4u);
  EXPECT_EQ(cb->stats().batch.oversizeSends, 2u);
  EXPECT_EQ(cb->stats().batch.soloFlushes, soloBefore + 2);
  int oversize = 0;
  for (const auto& [dst, bytes] : transport->sent) {
    const auto msg = decode(bytes);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::kUpdate);  // never boxed
    if (bytes.size() > kBatchByteBudget) ++oversize;
  }
  EXPECT_EQ(oversize, 2);
}

/// A frame staged by copy takes the same bypass: a NACK for a reliable
/// frame larger than the byte budget re-sends it bare, byte-identical to
/// its first trip.
TEST_F(WireFixture, OversizeRetransmitBypassesContainer) {
  cb->attach(lp);
  const PublicationHandle h = cb->publishObjectClass(lp, "wire.cls");
  transport->inject(sub1,
                    encode(ChannelConnectionMsg{77, h, 5, "wire.cls",
                                                net::QosClass::kReliableOrdered}));
  cb->tick(0.0);
  transport->sent.clear();
  AttributeSet big;
  big.set("blob", std::string(2000, 'x'));
  cb->updateAttributeValues(h, big, 1.0);
  ASSERT_EQ(transport->sent.size(), 1u);  // the fan-out's own bypass
  const auto original = transport->sent[0].second;
  ASSERT_GT(original.size(), kBatchByteBudget);
  transport->sent.clear();
  const CbBatchStats before = cb->stats().batch;

  transport->inject(sub1, encode(NackMsg{5, {1}}));
  cb->tick(0.01);
  ASSERT_EQ(transport->sent.size(), 1u);
  EXPECT_EQ(transport->sent[0].first, sub1);
  EXPECT_EQ(transport->sent[0].second, original);
  const auto msg = decode(transport->sent[0].second);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MsgType::kUpdate);  // never boxed
  EXPECT_EQ(msg->update.channelId, 5u);
  EXPECT_EQ(msg->update.seq, 1u);
  EXPECT_EQ(cb->stats().batch.oversizeSends, before.oversizeSends + 1);
  EXPECT_EQ(cb->stats().batch.soloFlushes, before.soloFlushes);
  EXPECT_EQ(cb->stats().batch.datagramsCoalesced, before.datagramsCoalesced);
  EXPECT_EQ(cb->stats().reliable.retransmitsSent, 1u);
}

/// The byte budget splits a long staging run into MTU-sized containers.
TEST(WireNoBatching, BudgetSplitsContainers) {
  auto t = std::make_unique<ScriptedTransport>();
  ScriptedTransport* transport = t.get();
  CommunicationBackbone cb("budget", std::move(t));
  LogicalProcess lp{"lp"};
  cb.attach(lp);
  const PublicationHandle h = cb.publishObjectClass(lp, "wire.cls");
  transport->inject({10, 1}, encode(ChannelConnectionMsg{77, h, 5, "wire.cls"}));
  cb.tick(0.0);
  transport->sent.clear();
  constexpr int kUpdates = 50;
  for (int i = 0; i < kUpdates; ++i)
    cb.updateAttributeValues(h, sampleAttrs(), 0.1 * i);
  cb.flushBatches();
  ASSERT_GT(transport->sent.size(), 1u);   // budget forced several flushes
  EXPECT_LT(transport->sent.size(), 10u);  // but far fewer than one-per-frame
  EXPECT_GT(cb.stats().batch.budgetFlushes, 0u);
  for (const auto& [dst, bytes] : transport->sent) {
    EXPECT_LE(bytes.size(), kBatchByteBudget);
    ASSERT_TRUE(decode(bytes).has_value());
  }
  // Sub-frames survive the split in order (a split that leaves one frame
  // sends it bare).
  std::uint64_t expectSeq = 1;
  for (const auto& [dst, bytes] : transport->sent) {
    const auto msg = decode(bytes);
    ASSERT_TRUE(msg.has_value());
    std::vector<std::vector<std::uint8_t>> frames{bytes};
    if (msg->type == MsgType::kBatch) frames = msg->batch.frames;
    for (const auto& frame : frames) {
      const auto sub = decode(frame);
      ASSERT_TRUE(sub.has_value());
      ASSERT_EQ(sub->type, MsgType::kUpdate);
      EXPECT_EQ(sub->update.seq, expectSeq++);
    }
  }
  EXPECT_EQ(expectSeq, static_cast<std::uint64_t>(kUpdates) + 1);
}

/// Same via detach (the destructor path every LP takes).
TEST_F(WireFixture, DetachedSubscriberLeavesNoStaleLocalLink) {
  cb->attach(lp);
  const PublicationHandle h = cb->publishObjectClass(lp, "local.cls");
  {
    LogicalProcess sub{"sub"};
    cb->attach(sub);
    cb->subscribeObjectClass(sub, "local.cls");
    EXPECT_EQ(cb->channelCount(h), 1u);
  }  // ~LogicalProcess detaches and must scrub the publication table
  EXPECT_EQ(cb->channelCount(h), 0u);
  cb->updateAttributeValues(h, sampleAttrs(), 0.1);
  EXPECT_EQ(cb->stats().updatesLocalFastPath, 0u);
}

/// Regression: peer staging slots must be reclaimed on channel teardown.
/// 64 subscribers joining and resigning one after another (ephemeral-
/// address dynamic join) must leave the staging table sized for the peak
/// concurrent peer count — one — not for lifetime peer churn.
TEST_F(WireFixture, PeerBatchSlotsReclaimedOnChurn) {
  cb->attach(lp);
  const PublicationHandle h = cb->publishObjectClass(lp, "wire.cls");
  double now = 0.0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const net::NodeAddr peer{100 + i, 1};
    transport->inject(
        peer, encode(ChannelConnectionMsg{1000 + i, h, 100 + i, "wire.cls"}));
    cb->tick(now += 0.001);
    ASSERT_EQ(cb->channelCount(h), 1u);
    // An update pins the channel's staging slot (lazy resolution).
    cb->updateAttributeValues(h, sampleAttrs(), now);
    cb->tick(now += 0.001);
    EXPECT_LE(cb->peerSlotCount(), 1u);
    transport->inject(peer,
                      encode(ByeMsg{100 + i, /*fromPublisher=*/false}));
    cb->tick(now += 0.001);
    ASSERT_EQ(cb->channelCount(h), 0u);
  }
  EXPECT_EQ(cb->peerSlotCount(), 0u);
  EXPECT_LE(cb->peerSlotCapacity(), 2u);
  EXPECT_GE(cb->stats().batch.peerSlotsReclaimed, 64u);
}

/// The slot cached by a surviving channel must never be handed to another
/// peer while churn reclaims its neighbours.
TEST_F(WireFixture, PinnedSlotSurvivesNeighbourChurn) {
  const PublicationHandle h = publishWithTwoChannels();
  const AttributeSet attrs = sampleAttrs();
  cb->updateAttributeValues(h, attrs, 0.01);  // pins sub1's and sub2's slots
  cb->tick(0.01);
  transport->sent.clear();
  // sub2 resigns; a new peer joins; sub1 keeps publishing throughout.
  transport->inject(sub2, encode(ByeMsg{9, /*fromPublisher=*/false}));
  cb->tick(0.02);
  transport->inject({30, 1},
                    encode(ChannelConnectionMsg{79, h, 11, "wire.cls"}));
  cb->tick(0.03);
  transport->sent.clear();
  cb->updateAttributeValues(h, attrs, 0.04);
  cb->flushBatches();
  ASSERT_EQ(transport->sent.size(), 2u);
  // Both frames reach the right peers with the right channel ids.
  for (const auto& [dst, bytes] : transport->sent) {
    const auto msg = decode(bytes);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::kUpdate);
    if (dst == sub1) {
      EXPECT_EQ(msg->update.channelId, 5u);
    } else {
      EXPECT_EQ(dst, (net::NodeAddr{30, 1}));
      EXPECT_EQ(msg->update.channelId, 11u);
    }
  }
  EXPECT_EQ(cb->peerSlotCount(), 2u);
}

// ---- the timer paths, pinned on the wire ---------------------------------

/// Transport decorator that journals every outbound datagram (kind, dst,
/// bytes) so a run can be digested datagram-for-datagram.
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

/// Publisher LP of one class.
class Pub : public LogicalProcess {
 public:
  explicit Pub(std::string cls,
               net::QosClass qos = net::QosClass::kBestEffort)
      : LogicalProcess("pub"), cls_(std::move(cls)), qos_(qos) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    handle_ = cb.publishObjectClass(*this, cls_, qos_);
  }
  void send(double value, double ts) {
    AttributeSet a;
    a.set("v", value);
    backbone()->updateAttributeValues(handle_, a, ts);
  }

 private:
  std::string cls_;
  net::QosClass qos_;
  PublicationHandle handle_ = kInvalidHandle;
};

/// Subscriber LP of one class; it ignores what it reflects.
class Sub : public LogicalProcess {
 public:
  explicit Sub(std::string cls,
               net::QosClass qos = net::QosClass::kBestEffort)
      : LogicalProcess("sub"), cls_(std::move(cls)), qos_(qos) {}
  void bind(CommunicationBackbone& cb) {
    cb.attach(*this);
    cb.subscribeObjectClass(*this, cls_, qos_);
  }

 private:
  std::string cls_;
  net::QosClass qos_;
};

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
/// sweep skips charlie's stalled channel; then alpha-bravo for 4 s, longer
/// than the timeout, so channels time out on both sides and rediscovery
/// rebuilds them after the heal. Keep-alives run throughout. The reliable
/// streams publish every 7th tick, a period that divides none of the
/// protocol intervals, so a deadline the timers miss is not masked by
/// the wake an update causes anyway. Appends to `run`.
void runTimerPathsTapped(std::uint64_t seed, TimerPathsRun& run) {
  net::SimNetwork net(seed);
  net::LinkModel link = net.defaultLink();
  link.lossRate = 0.2;
  link.jitterSec = 0.002;
  net.setDefaultLink(link);
  const net::HostId ha = net.addHost("alpha");
  const net::HostId hb = net.addHost("bravo");
  const net::HostId hc = net.addHost("charlie");
  CommunicationBackbone cbA(
      "alpha", std::make_unique<TapTransport>(net.bind(ha, 1), &run.log));
  CommunicationBackbone cbB(
      "bravo", std::make_unique<TapTransport>(net.bind(hb, 1), &run.log));
  CommunicationBackbone cbC(
      "charlie", std::make_unique<TapTransport>(net.bind(hc, 1), &run.log));

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
TEST(WireDigest, TimerPathsWireDigestIsPinned) {
  TimerPathsRun run;
  for (const std::uint64_t seed : {11u, 12u, 20u})
    runTimerPathsTapped(seed, run);
  // Every timer path fired at least once.
  EXPECT_GT(run.stats.broadcastsSent, 0u);
  EXPECT_GT(run.stats.reliable.nacksSent, 0u);
  EXPECT_GT(run.stats.reliable.windowAcksSent, 0u);
  EXPECT_GT(run.stats.reliable.retransmitsSent, 0u);
  EXPECT_GT(run.stats.channelsTimedOut, 0u);
  // Rediscovery rebuilt the timed-out channels: more establishments than
  // the five subscriptions of each run need once.
  EXPECT_GT(run.stats.channelsEstablishedIn, 15u);
  EXPECT_EQ(run.log.size(), 16095u);
  EXPECT_EQ(journalDigest(run.log), 12117349218154948365ull);
}

}  // namespace
}  // namespace cod::core
