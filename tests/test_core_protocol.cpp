#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "net/transport.hpp"
#include "telemetry/monitor.hpp"
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
}

TEST(TelemetryWire, TruncatedRecordsRejectedAtEveryLength) {
  const auto t = sampleTelemetry();
  const auto full = telemetry::encodeTelemetry(t);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto prefix = std::span<const std::uint8_t>(full).first(len);
    EXPECT_FALSE(telemetry::decodeTelemetry(prefix).has_value())
        << "prefix length " << len;
  }
  // The phase block is the last block: every prefix of a phased record
  // that stops inside it must reject too, although the phase flag is set.
  const auto phased = telemetry::encodeTelemetry(samplePhasedTelemetry());
  for (std::size_t len = 0; len < phased.size(); ++len) {
    const auto prefix = std::span<const std::uint8_t>(phased).first(len);
    EXPECT_FALSE(telemetry::decodeTelemetry(prefix).has_value())
        << "phased prefix length " << len;
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
  // A counter table of another size. The u16 count follows the header
  // (version, flags, seq, node, host, port, time); the counters after it
  // are well formed, so only the count check can reject the record.
  const std::size_t headerSize = 1 + 1 + 8 + (2 + t.node.size()) + 4 + 2 + 8;
  ASSERT_EQ(bytes[headerSize], telemetry::counterCount());
  ASSERT_EQ(bytes[headerSize + 1], 0);
  for (const std::size_t claimed :
       {telemetry::counterCount() - 1, telemetry::counterCount() + 1}) {
    auto wrongCount = bytes;
    wrongCount[headerSize] = static_cast<std::uint8_t>(claimed);
    EXPECT_FALSE(telemetry::decodeTelemetry(wrongCount).has_value())
        << claimed;
  }
}

// Locate a unique little-endian byte pattern inside an encoded record —
// how the histogram tests find a bucket entry to corrupt without
// hard-coding block offsets. A keyframe lists every non-zero bucket, so a
// distinctive count planted in the sample is found as [u16 idx][u64 n].
std::size_t findPattern(const std::vector<std::uint8_t>& bytes,
                        const std::vector<std::uint8_t>& pattern) {
  const auto it =
      std::search(bytes.begin(), bytes.end(), pattern.begin(), pattern.end());
  EXPECT_NE(it, bytes.end()) << "pattern not found in encoded record";
  return static_cast<std::size_t>(it - bytes.begin());
}

TEST(TelemetryWire, HistogramBucketIndexOutOfRangeRejected) {
  auto t = sampleTelemetry();
  // Hist 0 lists buckets 3 and 40; the planted one is its last entry, so
  // an index beyond the array still ascends and only the range check can
  // reject it.
  t.hists[0].buckets[77] = 0xDEADBEEFull;
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  const std::size_t at = findPattern(
      bytes, {77, 0, 0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0});
  bytes[at] = telemetry::kHistBuckets;  // idx beyond the bucket array
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

TEST(TelemetryWire, HistogramNonAscendingBucketIndexRejected) {
  auto t = sampleTelemetry();
  // Hist 0 lists buckets 3, 7, 9 and 40.
  t.hists[0].buckets[7] = 0x11223344ull;
  t.hists[0].buckets[9] = 0x55667788ull;
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  const std::size_t at = findPattern(
      bytes, {9, 0, 0x88, 0x77, 0x66, 0x55, 0, 0, 0, 0});
  bytes[at] = 5;  // the entry now indexes below the one before it (7)
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
  bytes[at] = 7;  // duplicate index: "strictly ascending" rejects too
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

TEST(TelemetryWire, HistogramSetSizeMismatchRejected) {
  auto t = sampleTelemetry();
  t.hists[0].count = 0xABCD1234ull;  // distinctive scalar to anchor on
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  // The hist block opens [u16 kCount] immediately before hist 0's count.
  const std::size_t at = findPattern(
      bytes, {telemetry::CbHistograms::kCount, 0, 0x34, 0x12, 0xCD, 0xAB, 0, 0,
              0, 0});
  bytes[at] = telemetry::CbHistograms::kCount + 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
  bytes[at] = telemetry::CbHistograms::kCount - 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

// ---- The tick-phase block ------------------------------------------------

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
  // Bit 0x01 marked the retired delta encoding and is undefined now: a
  // delta from an older publisher is rejected, with or without the phase
  // flag, though the body after the header is a well-formed keyframe.
  auto retiredDelta = plain;
  retiredDelta[1] = 0x01;
  EXPECT_FALSE(telemetry::decodeTelemetry(retiredDelta).has_value());
  auto retiredPhasedDelta = phased;
  retiredPhasedDelta[1] = 0x03;
  EXPECT_FALSE(telemetry::decodeTelemetry(retiredPhasedDelta).has_value());
}

TEST(TelemetryWire, PhaseBucketIndexOutOfRangeRejected) {
  auto t = samplePhasedTelemetry();
  // Phase 0 lists buckets 5 and 60; the planted one is its last entry.
  t.phases[0].buckets[81] = 0xFACEB00Cull;
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  const std::size_t at = findPattern(
      bytes, {81, 0, 0x0C, 0xB0, 0xCE, 0xFA, 0, 0, 0, 0});
  bytes[at] = telemetry::kHistBuckets;  // idx beyond the bucket array
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

TEST(TelemetryWire, PhaseNonAscendingBucketIndexRejected) {
  auto t = samplePhasedTelemetry();
  // Phase 2 lists buckets 5, 11, 13 and 62.
  t.phases[2].buckets[11] = 0x31415926ull;
  t.phases[2].buckets[13] = 0x27182818ull;
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  const std::size_t at = findPattern(
      bytes, {13, 0, 0x18, 0x28, 0x18, 0x27, 0, 0, 0, 0});
  bytes[at] = 9;  // the entry now indexes below the one before it (11)
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
  bytes[at] = 11;  // duplicate index: "strictly ascending" rejects too
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

TEST(TelemetryWire, PhaseSetSizeMismatchRejected) {
  auto t = samplePhasedTelemetry();
  t.phases[0].count = 0x1234DCBAull;  // distinctive scalar to anchor on
  auto bytes = telemetry::encodeTelemetry(t);
  ASSERT_TRUE(telemetry::decodeTelemetry(bytes).has_value());
  // The phase block opens [u16 kTickPhaseCount] right before phase 0's
  // count scalar.
  const std::size_t at = findPattern(
      bytes, {telemetry::kTickPhaseCount, 0, 0xBA, 0xDC, 0x34, 0x12, 0, 0,
              0, 0});
  bytes[at] = telemetry::kTickPhaseCount + 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
  bytes[at] = telemetry::kTickPhaseCount - 1;
  EXPECT_FALSE(telemetry::decodeTelemetry(bytes).has_value());
}

TEST(TelemetryWire, RetiredVersionsRejected) {
  // Only version 8 decodes. Versions 4 and 5 (phase block implied by the
  // version byte), 6 (a threaded network engine's counters) and 7 (four
  // flow-control counters) are retired: the decoder accepts none of them,
  // with or without the phase flag, whatever body follows.
  EXPECT_EQ(telemetry::kTelemetryVersion, 8);
  const auto plain = telemetry::encodeTelemetry(sampleTelemetry());
  const auto phased = telemetry::encodeTelemetry(samplePhasedTelemetry());
  for (auto rec : {plain, phased}) {
    ASSERT_EQ(rec[0], telemetry::kTelemetryVersion);
    EXPECT_TRUE(telemetry::decodeTelemetry(rec).has_value()) << +rec[1];
    for (const std::uint8_t version : {4, 5, 6, 7}) {
      for (const std::uint8_t flags : {0x00, 0x02}) {
        rec[0] = version;
        rec[1] = flags;
        EXPECT_FALSE(telemetry::decodeTelemetry(rec).has_value())
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

/// 64-bit FNV-1a over one encoded record.
std::uint64_t recordDigest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TelemetryWire, KeyframeBytesArePinned) {
  // Digests of the two samples as the delta-capable encoder wrote them,
  // before the delta encoding was retired: a keyframe's bytes did not
  // change, so monitors and archives on either side of that change read
  // each other's records.
  const auto plain = telemetry::encodeTelemetry(sampleTelemetry());
  const auto phased = telemetry::encodeTelemetry(samplePhasedTelemetry());
  EXPECT_EQ(plain.size(), 746u);
  EXPECT_EQ(recordDigest(plain), 11950171880428853045ull);
  EXPECT_EQ(phased.size(), 1018u);
  EXPECT_EQ(recordDigest(phased), 15798221100679773611ull);
}

TEST(TelemetryFuzz, MutatedKeyframesDecodeOrRejectCleanly) {
  // Seeded mutations of the plain and phased samples: flipped bytes,
  // overwritten u16 counts, truncations and appended tails. A mutant
  // that decodes must re-encode canonically; one that does not must be
  // dropped by a monitor whole, counted once and naming no node.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::array<std::vector<std::uint8_t>, 2> samples{
      telemetry::encodeTelemetry(sampleTelemetry()),
      telemetry::encodeTelemetry(samplePhasedTelemetry())};
  // Every u16 that reads like a count (1–255): each block's count and
  // each histogram's bucket-list length among them.
  std::array<std::vector<std::size_t>, 2> countAt;
  for (std::size_t k = 0; k < samples.size(); ++k)
    for (std::size_t i = 0; i + 1 < samples[k].size(); ++i)
      if (samples[k][i] != 0 && samples[k][i + 1] == 0)
        countAt[k].push_back(i);

  telemetry::HealthMonitor monitor;
  AttributeSet seed;
  seed.set(telemetry::kTelemetryAttr, samples[0]);
  monitor.reflectAttributeValues(telemetry::kTelemetryClass, seed, 0.0);
  ASSERT_EQ(monitor.nodeCount(), 1u);

  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const std::size_t k = static_cast<std::size_t>(iter) % samples.size();
    auto bytes = samples[k];
    switch (next() % 4) {
      case 0: {
        const std::size_t flips = 1 + next() % 4;
        for (std::size_t i = 0; i < flips; ++i)
          bytes[next() % bytes.size()] ^=
              static_cast<std::uint8_t>(1 + next() % 255);
        break;
      }
      case 1: {
        const std::size_t at = countAt[k][next() % countAt[k].size()];
        const std::uint16_t was = bytes[at];
        const std::array<std::uint16_t, 6> values{
            0, 1, static_cast<std::uint16_t>(was - 1),
            static_cast<std::uint16_t>(was + 1), 0xFFFF,
            static_cast<std::uint16_t>(next())};
        const std::uint16_t v = values[next() % values.size()];
        bytes[at] = static_cast<std::uint8_t>(v & 0xFF);
        bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
        break;
      }
      case 2:
        bytes.resize(next() % bytes.size());
        break;
      default: {
        const std::size_t len = 1 + next() % 16;
        for (std::size_t i = 0; i < len; ++i)
          bytes.push_back(static_cast<std::uint8_t>(next() & 0xFF));
        break;
      }
    }
    if (const auto d = telemetry::decodeTelemetry(bytes)) {
      ++decoded;
      const auto e = telemetry::encodeTelemetry(*d);
      const auto again = telemetry::decodeTelemetry(e);
      ASSERT_TRUE(again.has_value()) << "iter=" << iter;
      ASSERT_EQ(telemetry::encodeTelemetry(*again), e) << "iter=" << iter;
      continue;
    }
    ++rejected;
    const std::uint64_t dropped = monitor.undecodableDropped();
    AttributeSet attrs;
    attrs.set(telemetry::kTelemetryAttr, bytes);
    monitor.reflectAttributeValues(telemetry::kTelemetryClass, attrs, 1.0);
    ASSERT_EQ(monitor.undecodableDropped(), dropped + 1) << "iter=" << iter;
    ASSERT_EQ(monitor.nodeCount(), 1u) << "iter=" << iter;
  }
  // Both outcomes were exercised, and no rejected mutant touched the row.
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_EQ(monitor.node("dynamics")->snapshotsApplied, 1u);
  EXPECT_TRUE(monitor.alarms().empty());
}

}  // namespace
}  // namespace cod::core
