#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "net/transport.hpp"
#include "telemetry/node_telemetry.hpp"

namespace cod::core {
namespace {

TEST(Protocol, SubscriptionRoundTrip) {
  const SubscriptionMsg m{42, "crane.state"};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kSubscription);
  EXPECT_EQ(decoded->subscription.subscriptionId, 42u);
  EXPECT_EQ(decoded->subscription.className, "crane.state");
}

TEST(Protocol, AcknowledgeRoundTrip) {
  const AcknowledgeMsg m{7, 13, "audio.events"};
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kAcknowledge);
  EXPECT_EQ(d->acknowledge.subscriptionId, 7u);
  EXPECT_EQ(d->acknowledge.publicationId, 13u);
  EXPECT_EQ(d->acknowledge.className, "audio.events");
}

TEST(Protocol, ChannelConnectionRoundTrip) {
  const ChannelConnectionMsg m{1, 2, 3, "x",
                               net::QosClass::kReliableOrdered};
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kChannelConnection);
  EXPECT_EQ(d->channelConnection.subscriptionId, 1u);
  EXPECT_EQ(d->channelConnection.publicationId, 2u);
  EXPECT_EQ(d->channelConnection.channelId, 3u);
  EXPECT_EQ(d->channelConnection.qos, net::QosClass::kReliableOrdered);
  // The default-constructed message still speaks best effort.
  const auto d2 = decode(encode(ChannelConnectionMsg{1, 2, 3, "x"}));
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->channelConnection.qos, net::QosClass::kBestEffort);
}

TEST(Protocol, ChannelAckRoundTrip) {
  const ChannelAckMsg m{5, 6, net::QosClass::kReliableOrdered, 12345u};
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kChannelAck);
  EXPECT_EQ(d->channelAck.channelId, 5u);
  EXPECT_EQ(d->channelAck.publicationId, 6u);
  EXPECT_EQ(d->channelAck.qos, net::QosClass::kReliableOrdered);
  EXPECT_EQ(d->channelAck.firstSeq, 12345u);
}

TEST(Protocol, InvalidQosRejected) {
  auto bytes = encode(ChannelConnectionMsg{1, 2, 3, "x"});
  bytes.back() = 7;  // not a QosClass
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Protocol, NackRoundTrip) {
  NackMsg m;
  m.channelId = 77;
  m.missingSeqs = {4, 5, 9, 1000000007ull};
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kNack);
  EXPECT_EQ(d->nack.channelId, 77u);
  EXPECT_EQ(d->nack.missingSeqs, m.missingSeqs);
}

TEST(Protocol, EmptyNackRoundTrips) {
  const auto d = decode(encode(NackMsg{3, {}}));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->nack.missingSeqs.empty());
}

TEST(Protocol, WindowAckRoundTripBothDirections) {
  const auto fromSub = decode(encode(WindowAckMsg{8, 42, false}));
  ASSERT_TRUE(fromSub.has_value());
  EXPECT_EQ(fromSub->type, MsgType::kWindowAck);
  EXPECT_EQ(fromSub->windowAck.channelId, 8u);
  EXPECT_EQ(fromSub->windowAck.cumulativeSeq, 42u);
  EXPECT_FALSE(fromSub->windowAck.fromPublisher);
  const auto fromPub = decode(encode(WindowAckMsg{8, 42, true}));
  ASSERT_TRUE(fromPub.has_value());
  EXPECT_TRUE(fromPub->windowAck.fromPublisher);
}

TEST(Protocol, NackAndWindowAckStartWithPatchableChannelId) {
  // The retransmit fast path may re-target these frames like UPDATEs.
  auto nack = encode(NackMsg{0, {1, 2}});
  patchChannelId(nack, 31u);
  EXPECT_EQ(nack, encode(NackMsg{31u, {1, 2}}));
  auto ack = encode(WindowAckMsg{0, 9, false});
  patchChannelId(ack, 31u);
  EXPECT_EQ(ack, encode(WindowAckMsg{31u, 9, false}));
}

TEST(Protocol, TruncatedNackRejected) {
  const auto bytes = encode(NackMsg{1, {10, 20, 30}});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Protocol, UpdateRoundTrip) {
  UpdateMsg m;
  m.channelId = 9;
  m.seq = 123456789ull;
  m.timestamp = 1.25;
  m.payload = {10, 20, 30};
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kUpdate);
  EXPECT_EQ(d->update.channelId, 9u);
  EXPECT_EQ(d->update.seq, 123456789ull);
  EXPECT_DOUBLE_EQ(d->update.timestamp, 1.25);
  EXPECT_EQ(d->update.payload, (std::vector<std::uint8_t>{10, 20, 30}));
}

TEST(Protocol, UpdateTraceTagRoundTrips) {
  UpdateMsg m;
  m.channelId = 9;
  m.seq = 77;
  m.timestamp = 1.5;
  m.payload = {1, 2, 3};
  m.traced = true;
  m.pubWallSec = 12.625;
  const auto bytes = encode(m);
  // The tag is exactly [marker][f64] after the untagged frame.
  auto plain = m;
  plain.traced = false;
  EXPECT_EQ(bytes.size(), encode(plain).size() + 9);
  const auto d = decode(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->update.traced);
  EXPECT_DOUBLE_EQ(d->update.pubWallSec, 12.625);
  EXPECT_EQ(d->update.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Protocol, SamplingOffUpdateHasNoTraceBytes) {
  // traced=false must be byte-identical to the pre-trace encoding — the
  // interop guarantee the 1-in-N sampler rests on.
  UpdateMsg m;
  m.channelId = 9;
  m.seq = 77;
  m.timestamp = 1.5;
  m.payload = {1, 2, 3};
  const auto bytes = encode(m);
  net::WireWriter w;
  const std::size_t blob = beginUpdateFrame(w, m.seq, m.timestamp);
  for (std::uint8_t b : m.payload) w.u8(b);
  w.endBlob(blob);
  auto streamed = w.take();
  patchChannelId(streamed, m.channelId);
  EXPECT_EQ(bytes, streamed);
}

TEST(Protocol, UpdateForeignTailIgnoredNotTraced) {
  UpdateMsg m;
  m.channelId = 9;
  m.seq = 77;
  m.timestamp = 1.5;
  m.payload = {1, 2, 3};
  // A tail of the wrong length is ignored wholesale (pre-trace behavior).
  auto shortTail = encode(m);
  shortTail.insert(shortTail.end(), {0x54, 1, 2, 3});
  const auto d1 = decode(shortTail);
  ASSERT_TRUE(d1.has_value());
  EXPECT_FALSE(d1->update.traced);
  EXPECT_EQ(d1->update.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  // A 9-byte tail without the marker is ignored too.
  auto wrongMarker = encode(m);
  wrongMarker.insert(wrongMarker.end(), {0x55, 0, 0, 0, 0, 0, 0, 0, 0});
  const auto d2 = decode(wrongMarker);
  ASSERT_TRUE(d2.has_value());
  EXPECT_FALSE(d2->update.traced);
}

TEST(Protocol, WindowAckEchoRoundTrips) {
  WindowAckMsg a{5, 42, false};
  a.echoed = true;
  a.echoSeq = 7;
  a.echoTagSec = 3.25;
  a.echoHoldSec = 0.125;
  const auto bytes = encode(a);
  EXPECT_EQ(bytes.size(), encode(WindowAckMsg{5, 42, false}).size() + 25);
  const auto d = decode(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->windowAck.channelId, 5u);
  EXPECT_EQ(d->windowAck.cumulativeSeq, 42u);
  ASSERT_TRUE(d->windowAck.echoed);
  EXPECT_EQ(d->windowAck.echoSeq, 7u);
  EXPECT_DOUBLE_EQ(d->windowAck.echoTagSec, 3.25);
  EXPECT_DOUBLE_EQ(d->windowAck.echoHoldSec, 0.125);
  // The echoed ack still starts with the patchable channel id.
  auto patched = bytes;
  patchChannelId(patched, 31u);
  const auto dp = decode(patched);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->windowAck.channelId, 31u);
  EXPECT_TRUE(dp->windowAck.echoed);
  EXPECT_EQ(dp->windowAck.echoSeq, 7u);
}

TEST(Protocol, WindowAckForeignTailIgnoredNotEchoed) {
  auto bytes = encode(WindowAckMsg{5, 42, false});
  bytes.insert(bytes.end(), {0x54, 1, 2});  // wrong length
  const auto d = decode(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->windowAck.echoed);
  auto wrongMarker = encode(WindowAckMsg{5, 42, false});
  wrongMarker.insert(wrongMarker.end(), 25, 0);  // right length, no marker
  const auto d2 = decode(wrongMarker);
  ASSERT_TRUE(d2.has_value());
  EXPECT_FALSE(d2->windowAck.echoed);
}

TEST(Protocol, WindowAckDupReportRoundTrips) {
  WindowAckMsg a{5, 42, false};
  a.dupReported = true;
  a.dupCount = 17;
  const auto bytes = encode(a);
  // Exactly [marker][u64] after the plain frame — no other bytes move.
  EXPECT_EQ(bytes.size(), encode(WindowAckMsg{5, 42, false}).size() + 9);
  const auto d = decode(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->windowAck.channelId, 5u);
  EXPECT_EQ(d->windowAck.cumulativeSeq, 42u);
  ASSERT_TRUE(d->windowAck.dupReported);
  EXPECT_EQ(d->windowAck.dupCount, 17u);
  EXPECT_FALSE(d->windowAck.echoed);
  // The dup-reporting ack still starts with the patchable channel id.
  auto patched = bytes;
  patchChannelId(patched, 31u);
  const auto dp = decode(patched);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->windowAck.channelId, 31u);
  ASSERT_TRUE(dp->windowAck.dupReported);
  EXPECT_EQ(dp->windowAck.dupCount, 17u);
}

TEST(Protocol, WindowAckEchoAndDupReportStack) {
  // Both optional tails ride one ack: echo first, dup report after.
  WindowAckMsg a{9, 100, false};
  a.echoed = true;
  a.echoSeq = 55;
  a.echoTagSec = 1.5;
  a.echoHoldSec = 0.25;
  a.dupReported = true;
  a.dupCount = 3;
  const auto bytes = encode(a);
  EXPECT_EQ(bytes.size(), encode(WindowAckMsg{9, 100, false}).size() + 25 + 9);
  const auto d = decode(bytes);
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->windowAck.echoed);
  EXPECT_EQ(d->windowAck.echoSeq, 55u);
  EXPECT_DOUBLE_EQ(d->windowAck.echoTagSec, 1.5);
  EXPECT_DOUBLE_EQ(d->windowAck.echoHoldSec, 0.25);
  ASSERT_TRUE(d->windowAck.dupReported);
  EXPECT_EQ(d->windowAck.dupCount, 3u);
}

TEST(Protocol, WindowAckForeignTailIgnoredNotDupReported) {
  // A 9-byte tail without the dup marker is ignored wholesale.
  auto wrongMarker = encode(WindowAckMsg{5, 42, false});
  wrongMarker.insert(wrongMarker.end(), {0x45, 0, 0, 0, 0, 0, 0, 0, 0});
  const auto d = decode(wrongMarker);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->windowAck.dupReported);
  EXPECT_EQ(d->windowAck.cumulativeSeq, 42u);
  // The echo marker at dup-block length must not be taken for a dup block.
  auto echoMarker = encode(WindowAckMsg{5, 42, false});
  echoMarker.insert(echoMarker.end(), {0x54, 0, 0, 0, 0, 0, 0, 0, 1});
  const auto d2 = decode(echoMarker);
  ASSERT_TRUE(d2.has_value());
  EXPECT_FALSE(d2->windowAck.dupReported);
  EXPECT_FALSE(d2->windowAck.echoed);
}

TEST(Protocol, WindowAckArbitraryTailsNeverCorruptBaseFields) {
  // Fuzz the optional-tail parser: any appended tail of any length must
  // leave the mandatory fields intact and either parse a well-formed
  // block or ignore the tail — never reject the frame or misparse.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto plain = encode(WindowAckMsg{12, 777, false});
  for (int iter = 0; iter < 2000; ++iter) {
    auto bytes = plain;
    const std::size_t len = next() % 40;
    for (std::size_t i = 0; i < len; ++i)
      bytes.push_back(static_cast<std::uint8_t>(next() & 0xFF));
    const auto d = decode(bytes);
    ASSERT_TRUE(d.has_value()) << "iter=" << iter << " len=" << len;
    EXPECT_EQ(d->windowAck.channelId, 12u);
    EXPECT_EQ(d->windowAck.cumulativeSeq, 777u);
    EXPECT_FALSE(d->windowAck.fromPublisher);
    // A parsed block implies its exact wire shape was present.
    if (d->windowAck.dupReported) {
      EXPECT_TRUE(len == 9 || (len == 34 && d->windowAck.echoed));
    }
    if (d->windowAck.echoed) {
      EXPECT_TRUE(len == 25 || len == 34);
    }
  }
}

TEST(Protocol, HeartbeatCarriesDirection) {
  const auto pub = decode(encode(HeartbeatMsg{4, 2.0, true}));
  ASSERT_TRUE(pub.has_value());
  EXPECT_TRUE(pub->heartbeat.fromPublisher);
  const auto sub = decode(encode(HeartbeatMsg{4, 2.0, false}));
  ASSERT_TRUE(sub.has_value());
  EXPECT_FALSE(sub->heartbeat.fromPublisher);
}

TEST(Protocol, ByeCarriesDirection) {
  const auto d = decode(encode(ByeMsg{11, true}));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kBye);
  EXPECT_EQ(d->bye.channelId, 11u);
  EXPECT_TRUE(d->bye.fromPublisher);
}

TEST(Protocol, EmptyDatagramRejected) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}).has_value());
}

TEST(Protocol, UnknownTypeRejected) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{99, 0, 0}).has_value());
}

TEST(Protocol, TruncatedMessagesRejected) {
  auto bytes = encode(SubscriptionMsg{1, "some.class"});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Protocol, MsgTypeNames) {
  EXPECT_STREQ(msgTypeName(MsgType::kSubscription), "SUBSCRIPTION");
  EXPECT_STREQ(msgTypeName(MsgType::kAcknowledge), "ACKNOWLEDGE");
  EXPECT_STREQ(msgTypeName(MsgType::kChannelConnection), "CHANNEL_CONNECTION");
  EXPECT_STREQ(msgTypeName(MsgType::kChannelAck), "CHANNEL_ACK");
  EXPECT_STREQ(msgTypeName(MsgType::kUpdate), "UPDATE");
  EXPECT_STREQ(msgTypeName(MsgType::kHeartbeat), "HEARTBEAT");
  EXPECT_STREQ(msgTypeName(MsgType::kBye), "BYE");
  EXPECT_STREQ(msgTypeName(MsgType::kNack), "NACK");
  EXPECT_STREQ(msgTypeName(MsgType::kWindowAck), "WINDOW_ACK");
  EXPECT_STREQ(msgTypeName(MsgType::kBatch), "BATCH");
}

TEST(Protocol, EmptyClassNameAllowed) {
  const auto d = decode(encode(SubscriptionMsg{1, ""}));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->subscription.className.empty());
}

TEST(Protocol, BatchRoundTripMixedSubFrames) {
  // A container carrying one frame of each plane: data (UPDATE), liveness
  // (HEARTBEAT) and reliable control (NACK, WINDOW_ACK) — the mix a real
  // per-peer flush produces.
  UpdateMsg u;
  u.channelId = 3;
  u.seq = 9;
  u.timestamp = 0.5;
  u.payload = {1, 2, 3};
  BatchMsg m;
  m.frames.push_back(encode(u));
  m.frames.push_back(encode(HeartbeatMsg{3, 0.5, true}));
  m.frames.push_back(encode(NackMsg{4, {7, 8}}));
  m.frames.push_back(encode(WindowAckMsg{4, 6, false}));
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kBatch);
  ASSERT_EQ(d->batch.frames.size(), 4u);
  // Sub-frames are byte-identical to their un-batched encodes…
  EXPECT_EQ(d->batch.frames[0], encode(u));
  EXPECT_EQ(d->batch.frames[1], encode(HeartbeatMsg{3, 0.5, true}));
  // …and each decodes on its own.
  for (const auto& frame : d->batch.frames)
    EXPECT_TRUE(decode(frame).has_value());
}

TEST(Protocol, BatchBytesOnWireLayout) {
  // [u8 10][u16 count][(u32 len)(frame) × count], all little-endian.
  const std::vector<std::uint8_t> sub = encode(ByeMsg{7, true});
  BatchMsg m;
  m.frames = {sub, sub};
  const auto bytes = encode(m);
  ASSERT_EQ(bytes.size(), kBatchHeaderBytes +
                              2 * (kBatchFramePrefixBytes + sub.size()));
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(MsgType::kBatch));
  EXPECT_EQ(bytes[1], 2u);  // count lo
  EXPECT_EQ(bytes[2], 0u);  // count hi
  EXPECT_EQ(bytes[3], static_cast<std::uint8_t>(sub.size()));  // len lo
  EXPECT_EQ(bytes[4], 0u);
  EXPECT_EQ(bytes[5], 0u);
  EXPECT_EQ(bytes[6], 0u);
  EXPECT_TRUE(std::equal(sub.begin(), sub.end(), bytes.begin() + 7));
}

TEST(Protocol, TruncatedBatchRejected) {
  BatchMsg m;
  m.frames = {encode(HeartbeatMsg{1, 2.0, false}), encode(ByeMsg{2, true})};
  const auto bytes = encode(m);
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(Protocol, BatchWithTrailingGarbageRejected) {
  BatchMsg m;
  m.frames = {encode(ByeMsg{2, true})};
  auto bytes = encode(m);
  bytes.push_back(0xAA);  // count says 1 frame; datagram says otherwise
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Protocol, NestedBatchRejected) {
  BatchMsg inner;
  inner.frames = {encode(ByeMsg{1, false})};
  BatchMsg outer;
  outer.frames = {encode(inner)};
  EXPECT_FALSE(decode(encode(outer)).has_value());
}

TEST(Protocol, EmptyBatchRejected) {
  // count == 0 never leaves the coalescer (a flush with nothing staged
  // sends nothing), so an empty container on the wire is malformed.
  EXPECT_FALSE(decode(encode(BatchMsg{})).has_value());
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{10, 0, 0}).has_value());
}

TEST(Protocol, BatchWithEmptySubFrameRejected) {
  // Hand-build [kBatch][count=1][len=0]: a zero-length sub-frame can never
  // be a CB message.
  const std::vector<std::uint8_t> bytes{10, 1, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Protocol, BatchSubFrameLengthBeyondDatagramRejected) {
  BatchMsg m;
  m.frames = {encode(ByeMsg{2, true})};
  auto bytes = encode(m);
  bytes[3] = 0xFF;  // sub-frame length now reaches past the datagram end
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Protocol, LargePayloadRoundTrips) {
  UpdateMsg m;
  m.channelId = 1;
  m.seq = 1;
  m.payload.assign(60000, 0x5A);
  const auto d = decode(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->update.payload.size(), 60000u);
}

/// net::framesInDatagram duplicates the three kBatch header bytes (net
/// cannot include core); this pin breaks if either side drifts.
TEST(Protocol, FramesInDatagramMatchesBatchEncoder) {
  BatchMsg batch;
  for (int i = 0; i < 7; ++i)
    batch.frames.push_back(encode(HeartbeatMsg{static_cast<std::uint32_t>(i),
                                               0.5, false}));
  EXPECT_EQ(net::framesInDatagram(encode(batch)), 7u);
  EXPECT_EQ(net::framesInDatagram(encode(HeartbeatMsg{1, 0.5, false})), 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(MsgType::kBatch), 10u);
}

// ---- NodeTelemetry wire format ------------------------------------------

telemetry::NodeTelemetry sampleTelemetry() {
  telemetry::NodeTelemetry t;
  t.seq = 17;
  t.node = "dynamics";
  t.addr = {6, 1};
  t.nodeTimeSec = 123.25;
  // Give every counter a distinct nonzero value so a shifted field table
  // cannot round-trip by accident.
  for (std::size_t i = 0; i < telemetry::counterCount(); ++i)
    telemetry::setCounterValue(t, i, 1000 + 7 * i);
  CbChannelHealth out;
  out.channelId = 42;
  out.className = "crane.state";
  out.outbound = true;
  out.qos = net::QosClass::kReliableOrdered;
  out.live = true;
  out.ageSec = 0.25;
  out.windowFrames = 12;
  out.retransmits = 3;
  out.cumAcked = 900;
  t.channels.push_back(out);
  CbChannelHealth in;
  in.channelId = 43;
  in.className = "scenario.status";
  in.live = false;
  in.ageSec = 1.5;
  t.channels.push_back(in);
  // Distinct nonzero content in every v3 histogram, with sparse buckets
  // at different indices per histogram.
  for (std::size_t h = 0; h < telemetry::CbHistograms::kCount; ++h) {
    telemetry::HistogramSnapshot& s = t.hists[h];
    s.count = 50 + h;
    s.sum = 1.5 * static_cast<double>(h + 1);
    s.min = 1e-4;
    s.max = 0.5 + static_cast<double>(h);
    s.buckets[3] = 20 + h;
    s.buckets[40 + h] = 30 + h;
  }
  t.tableLoad.push_back(core::CbTableLoad{3, 4, 5, 6});
  t.tableLoad.push_back(core::CbTableLoad{1, 0, 2, 0});
  return t;
}

void expectTelemetryEq(const telemetry::NodeTelemetry& a,
                       const telemetry::NodeTelemetry& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.nodeTimeSec, b.nodeTimeSec);
  for (std::size_t i = 0; i < telemetry::counterCount(); ++i)
    EXPECT_EQ(telemetry::counterValue(a, i), telemetry::counterValue(b, i))
        << telemetry::counterName(i);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].channelId, b.channels[i].channelId);
    EXPECT_EQ(a.channels[i].className, b.channels[i].className);
    EXPECT_EQ(a.channels[i].outbound, b.channels[i].outbound);
    EXPECT_EQ(a.channels[i].qos, b.channels[i].qos);
    EXPECT_EQ(a.channels[i].live, b.channels[i].live);
    EXPECT_EQ(a.channels[i].ageSec, b.channels[i].ageSec);
    EXPECT_EQ(a.channels[i].windowFrames, b.channels[i].windowFrames);
    EXPECT_EQ(a.channels[i].retransmits, b.channels[i].retransmits);
    EXPECT_EQ(a.channels[i].cumAcked, b.channels[i].cumAcked);
  }
  for (std::size_t i = 0; i < telemetry::CbHistograms::kCount; ++i)
    EXPECT_EQ(a.hists[i], b.hists[i]) << telemetry::CbHistograms::name(i);
  ASSERT_EQ(a.tableLoad.size(), b.tableLoad.size());
  for (std::size_t i = 0; i < a.tableLoad.size(); ++i) {
    EXPECT_EQ(a.tableLoad[i].publications, b.tableLoad[i].publications);
    EXPECT_EQ(a.tableLoad[i].subscriptions, b.tableLoad[i].subscriptions);
    EXPECT_EQ(a.tableLoad[i].inChannels, b.tableLoad[i].inChannels);
    EXPECT_EQ(a.tableLoad[i].outChannels, b.tableLoad[i].outChannels);
  }
}

TEST(TelemetryWire, KeyframeRoundTrips) {
  const auto t = sampleTelemetry();
  const auto bytes = telemetry::encodeTelemetry(t);
  const auto d = telemetry::decodeTelemetry(bytes);
  ASSERT_TRUE(d.has_value());
  expectTelemetryEq(*d, t);
  // A keyframe identifies itself: no base sequence in the header.
  const auto header = telemetry::peekTelemetryHeader(bytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->seq, 17u);
  EXPECT_EQ(header->node, "dynamics");
  EXPECT_FALSE(header->baseSeq.has_value());
}

TEST(TelemetryWire, DeltaRoundTripsAgainstKeyframe) {
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  next.nodeTimeSec = 124.25;
  telemetry::setCounterValue(next, 4, 99999);   // cb.updatesSent
  telemetry::setCounterValue(next, 35, 55555);  // a transport counter
  next.channels[1].live = true;
  // One histogram grows a bucket; a delta lists only that bucket, and the
  // decode seeds the rest from the keyframe.
  next.hists[0].count += 4;
  next.hists[0].sum += 0.25;
  next.hists[0].buckets[3] += 4;
  next.tableLoad[1].inChannels = 9;
  const auto bytes = telemetry::encodeTelemetryDelta(next, base);
  // Deltas only carry changed counters: much smaller than a keyframe.
  EXPECT_LT(bytes.size(), telemetry::encodeTelemetry(next).size() / 2);
  const auto header = telemetry::peekTelemetryHeader(bytes);
  ASSERT_TRUE(header.has_value());
  ASSERT_TRUE(header->baseSeq.has_value());
  EXPECT_EQ(*header->baseSeq, base.seq);
  const auto d = telemetry::decodeTelemetry(bytes, &base);
  ASSERT_TRUE(d.has_value());
  expectTelemetryEq(*d, next);
}

TEST(TelemetryWire, DeltaWithoutMatchingBaseRejected) {
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  telemetry::setCounterValue(next, 0, 1);
  const auto bytes = telemetry::encodeTelemetryDelta(next, base);
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
  auto wrongBase = base;
  wrongBase.seq = 16;  // stale keyframe: counters could be anything
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes, &wrongBase).has_value());
}

TEST(TelemetryWire, TruncatedRecordsRejectedAtEveryLength) {
  const auto t = sampleTelemetry();
  const auto full = telemetry::encodeTelemetry(t);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto prefix = std::span<const std::uint8_t>(full).first(len);
    EXPECT_FALSE(telemetry::decodeTelemetry(prefix).has_value())
        << "prefix length " << len;
  }
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  telemetry::setCounterValue(next, 10, 424242);
  const auto delta = telemetry::encodeTelemetryDelta(next, base);
  for (std::size_t len = 0; len < delta.size(); ++len) {
    const auto prefix = std::span<const std::uint8_t>(delta).first(len);
    EXPECT_FALSE(telemetry::decodeTelemetry(prefix, &base).has_value())
        << "delta prefix length " << len;
  }
}

TEST(TelemetryWire, CorruptRecordsRejected) {
  const auto t = sampleTelemetry();
  auto bytes = telemetry::encodeTelemetry(t);
  // Trailing garbage.
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(telemetry::decodeTelemetry(trailing).has_value());
  // Wrong version byte.
  auto wrongVersion = bytes;
  wrongVersion[0] = telemetry::kTelemetryVersion + 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(wrongVersion).has_value());
  // Undefined flag bits.
  auto wrongFlags = bytes;
  wrongFlags[1] = 0x80;
  EXPECT_FALSE(telemetry::decodeTelemetry(wrongFlags).has_value());
  // A delta naming a counter index beyond the table.
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  telemetry::setCounterValue(next, 0, base.cb.broadcastsSent + 1);
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  // Locate the (single) changed-field index right after the u16 count that
  // follows the header; corrupt it to an out-of-range value.
  const std::size_t headerSize = 1 + 1 + 8 + (2 + next.node.size()) + 4 + 2 +
                                 8 + 8;  // ver,flags,seq,str,host,port,time,baseSeq
  ASSERT_LT(headerSize + 3, delta.size());
  delta[headerSize + 2] = 0xFF;  // field index low byte
  delta[headerSize + 3] = 0xFF;  // field index high byte
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

// Locate a unique little-endian byte pattern inside an encoded record —
// how the histogram-fuzz tests find a bucket entry to corrupt without
// hard-coding block offsets.
std::size_t findPattern(const std::vector<std::uint8_t>& bytes,
                        const std::vector<std::uint8_t>& pattern) {
  const auto it =
      std::search(bytes.begin(), bytes.end(), pattern.begin(), pattern.end());
  EXPECT_NE(it, bytes.end()) << "pattern not found in encoded record";
  return static_cast<std::size_t>(it - bytes.begin());
}

TEST(TelemetryWire, CounterDeltaNonAscendingIndexRejected) {
  // Counter indices in a delta ascend strictly, like histogram buckets: a
  // delta naming one counter twice, or out of order, is corrupt.
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  telemetry::setCounterValue(next, 3, 0x1111);
  telemetry::setCounterValue(next, 10, 0x2222);
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  // The two entries ride as [u16 3][u64 0x1111][u16 10][u64 0x2222].
  const std::size_t at =
      findPattern(delta, {10, 0, 0x22, 0x22, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(delta[at - 10], 3);
  delta[at] = 3;  // the second entry repeats the first index
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[at] = 2;  // the second entry indexes below the first
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, HistogramBucketIndexOutOfRangeRejected) {
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  next.hists[0].count += 1;
  next.hists[0].buckets[7] = 0xDEADBEEFull;
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  // The lone changed bucket rides as [u16 idx=7][u64 0xDEADBEEF].
  const std::size_t at = findPattern(
      delta, {7, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0});
  delta[at] = telemetry::kHistBuckets;  // idx beyond the bucket array
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, HistogramNonAscendingBucketIndexRejected) {
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  next.hists[0].count += 2;
  next.hists[0].buckets[7] = 0x11223344ull;
  next.hists[0].buckets[9] = 0x55667788ull;
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  const std::size_t at = findPattern(
      delta, {9, 0, 0x88, 0x77, 0x66, 0x55, 0, 0, 0, 0});
  delta[at] = 5;  // second entry now indexes below the first (7)
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[at] = 7;  // duplicate index: "strictly ascending" rejects too
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, HistogramSetSizeMismatchRejected) {
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  next.hists[0].count = 0xABCD1234ull;  // distinctive scalar to anchor on
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  // The hist block opens [u16 kCount] immediately before hist 0's count.
  const std::size_t at = findPattern(
      delta, {telemetry::CbHistograms::kCount, 0, 0x34, 0x12, 0xCD, 0xAB, 0, 0,
              0, 0});
  delta[at] = telemetry::CbHistograms::kCount + 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[at] = telemetry::CbHistograms::kCount - 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, HistogramDeltaAgainstWrongBaseDiverges) {
  // A delta's sparse bucket list is only meaningful over its own keyframe;
  // the seq check is what rejects a stale base outright (covered above).
  // Here: decoding against the *right* base reproduces the buckets the
  // encoder saw, bucket-exact.
  const auto base = sampleTelemetry();
  auto next = base;
  next.seq = 18;
  next.hists[2].buckets[42] += 11;
  next.hists[2].count += 11;
  const auto delta = telemetry::encodeTelemetryDelta(next, base);
  const auto d = telemetry::decodeTelemetry(delta, &base);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->hists[2].buckets[42], base.hists[2].buckets[42] + 11);
  EXPECT_EQ(d->hists[2].buckets[3], base.hists[2].buckets[3]);  // seeded
}

// ---- The tick-phase block ------------------------------------------------

// sampleTelemetry() with the phase profiler on and distinct nonzero
// content in every phase histogram.
telemetry::NodeTelemetry samplePhasedTelemetry() {
  auto t = sampleTelemetry();
  t.phaseProfiling = true;
  for (std::size_t p = 0; p < telemetry::kTickPhaseCount; ++p) {
    telemetry::HistogramSnapshot& s = t.phases[p];
    s.count = 400 + p;
    s.sum = 0.25 * static_cast<double>(p + 1);
    s.min = 1e-6;
    s.max = 0.01 + static_cast<double>(p) * 1e-3;
    s.buckets[5] = 100 + p;
    s.buckets[60 + p] = 200 + p;
  }
  return t;
}

TEST(TelemetryWire, PhaseBlockRoundTripsKeyframeAndDelta) {
  const auto base = samplePhasedTelemetry();
  const auto bytes = telemetry::encodeTelemetry(base);
  const auto k = telemetry::decodeTelemetry(bytes);
  ASSERT_TRUE(k.has_value());
  EXPECT_TRUE(k->phaseProfiling);
  expectTelemetryEq(*k, base);
  for (std::size_t p = 0; p < telemetry::kTickPhaseCount; ++p)
    EXPECT_EQ(k->phases[p], base.phases[p])
        << telemetry::TickPhaseHistograms::name(p);
  // Peek reads a record that carries the phase flag.
  const auto header = telemetry::peekTelemetryHeader(bytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->node, base.node);

  auto next = base;
  next.seq = 18;
  next.phases[1].count += 6;
  next.phases[1].sum += 0.125;
  next.phases[1].buckets[5] += 6;
  const auto delta = telemetry::encodeTelemetryDelta(next, base);
  const auto d = telemetry::decodeTelemetry(delta, &base);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->phaseProfiling);
  for (std::size_t p = 0; p < telemetry::kTickPhaseCount; ++p)
    EXPECT_EQ(d->phases[p], next.phases[p])
        << telemetry::TickPhaseHistograms::name(p);
}

TEST(TelemetryWire, PhaseFlagMustMatchPhaseBlock) {
  // The phase block is the record's last block and flags bit 0x02 alone
  // announces it: a phased record is the plain one with the bit set and
  // the block appended.
  const auto plain = telemetry::encodeTelemetry(sampleTelemetry());
  const auto phased = telemetry::encodeTelemetry(samplePhasedTelemetry());
  ASSERT_EQ(plain[1], 0x00);
  ASSERT_EQ(phased[1], 0x02);
  ASSERT_GT(phased.size(), plain.size());
  EXPECT_TRUE(std::equal(plain.begin() + 2, plain.end(), phased.begin() + 2));
  // 0x02 without a phase block is truncated input...
  auto flagOnly = plain;
  flagOnly[1] |= 0x02;
  EXPECT_FALSE(telemetry::decodeTelemetry(flagOnly).has_value());
  // ...and a phase block without 0x02 is trailing bytes.
  auto blockOnly = phased;
  blockOnly[1] &= ~0x02;
  EXPECT_FALSE(telemetry::decodeTelemetry(blockOnly).has_value());
  // Deltas carry the same flag beside the delta bit.
  const auto base = samplePhasedTelemetry();
  auto next = base;
  next.seq = 18;
  next.phases[1].count += 6;
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_EQ(delta[1], 0x03);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[1] = 0x01;
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, PhaseBucketIndexOutOfRangeRejected) {
  const auto base = samplePhasedTelemetry();
  auto next = base;
  next.seq = 18;
  next.phases[0].count += 1;
  next.phases[0].buckets[11] = 0xFACEB00Cull;
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  const std::size_t at = findPattern(
      delta, {11, 0, 0x0C, 0xB0, 0xCE, 0xFA, 0, 0, 0, 0});
  delta[at] = telemetry::kHistBuckets;  // idx beyond the bucket array
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, PhaseNonAscendingBucketIndexRejected) {
  const auto base = samplePhasedTelemetry();
  auto next = base;
  next.seq = 18;
  next.phases[2].count += 2;
  next.phases[2].buckets[11] = 0x31415926ull;
  next.phases[2].buckets[13] = 0x27182818ull;
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  const std::size_t at = findPattern(
      delta, {13, 0, 0x18, 0x28, 0x18, 0x27, 0, 0, 0, 0});
  delta[at] = 9;  // second entry now indexes below the first (11)
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[at] = 11;  // duplicate index: "strictly ascending" rejects too
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, PhaseSetSizeMismatchRejected) {
  const auto base = samplePhasedTelemetry();
  auto next = base;
  next.seq = 18;
  next.phases[0].count = 0x1234DCBAull;  // distinctive scalar to anchor on
  auto delta = telemetry::encodeTelemetryDelta(next, base);
  ASSERT_TRUE(telemetry::decodeTelemetry(delta, &base).has_value());
  // The phase block opens [u16 kTickPhaseCount] right before phase 0's
  // count scalar.
  const std::size_t at = findPattern(
      delta, {telemetry::kTickPhaseCount, 0, 0xBA, 0xDC, 0x34, 0x12, 0, 0,
              0, 0});
  delta[at] = telemetry::kTickPhaseCount + 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
  delta[at] = telemetry::kTickPhaseCount - 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(delta, &base).has_value());
}

TEST(TelemetryWire, RetiredVersionsRejected) {
  // Only version 8 decodes. Versions 4 and 5 (phase block implied by the
  // version byte), 6 (a threaded network engine's counters) and 7 (four
  // flow-control counters) are retired: neither the decoder nor the
  // header peek accepts them, with or without the phase flag, whatever
  // body follows.
  EXPECT_EQ(telemetry::kTelemetryVersion, 8);
  const auto plain = telemetry::encodeTelemetry(sampleTelemetry());
  const auto phased = telemetry::encodeTelemetry(samplePhasedTelemetry());
  for (auto rec : {plain, phased}) {
    ASSERT_EQ(rec[0], telemetry::kTelemetryVersion);
    EXPECT_TRUE(telemetry::decodeTelemetry(rec).has_value()) << +rec[1];
    EXPECT_TRUE(telemetry::peekTelemetryHeader(rec).has_value()) << +rec[1];
    for (const std::uint8_t version : {4, 5, 6, 7}) {
      for (const std::uint8_t flags : {0x00, 0x02}) {
        rec[0] = version;
        rec[1] = flags;
        EXPECT_FALSE(telemetry::decodeTelemetry(rec).has_value())
            << +version << " " << +flags;
        EXPECT_FALSE(telemetry::peekTelemetryHeader(rec).has_value())
            << +version << " " << +flags;
      }
    }
  }
}

TEST(TelemetryWire, CounterTableIsStable) {
  // The flattened counter order is the wire format; renaming or
  // reordering must bump kTelemetryVersion. Spot-check the anchors.
  ASSERT_EQ(telemetry::counterCount(), 44u);
  EXPECT_STREQ(telemetry::counterName(0), "cb.broadcastsSent");
  EXPECT_STREQ(telemetry::counterName(4), "cb.updatesSent");
  // The reliable block follows the twelve cb.* counters, and the table
  // ends on the transport block.
  EXPECT_STREQ(telemetry::counterName(12), "reliable.framesBuffered");
  EXPECT_STREQ(telemetry::counterName(telemetry::counterCount() - 1),
               "transport.framesDropped");
}

}  // namespace
}  // namespace cod::core
