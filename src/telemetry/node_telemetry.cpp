#include "telemetry/node_telemetry.hpp"

#include <algorithm>
#include <array>

#include "net/wire.hpp"

namespace cod::telemetry {

namespace {

/// One row of the flattened counter table. The accessor returns a
/// reference into the record, so the same table serves get, set and name.
struct CounterField {
  const char* name;
  std::uint64_t& (*ref)(NodeTelemetry&);
};

#define COD_COUNTER(label, expr)                              \
  CounterField {                                              \
    label, +[](NodeTelemetry& t) -> std::uint64_t& { return t.expr; } \
  }

/// The wire order. Append-only within a version: inserting or reordering
/// rows silently re-labels every counter on the wire, so any change here
/// must bump kTelemetryVersion.
constexpr std::array kCounterFields{
    COD_COUNTER("cb.broadcastsSent", cb.broadcastsSent),
    COD_COUNTER("cb.acknowledgesSent", cb.acknowledgesSent),
    COD_COUNTER("cb.channelsEstablishedOut", cb.channelsEstablishedOut),
    COD_COUNTER("cb.channelsEstablishedIn", cb.channelsEstablishedIn),
    COD_COUNTER("cb.updatesSent", cb.updatesSent),
    COD_COUNTER("cb.updatesDelivered", cb.updatesDelivered),
    COD_COUNTER("cb.updatesLocalFastPath", cb.updatesLocalFastPath),
    COD_COUNTER("cb.duplicatesDropped", cb.duplicatesDropped),
    COD_COUNTER("cb.unknownChannelDrops", cb.unknownChannelDrops),
    COD_COUNTER("cb.malformedDrops", cb.malformedDrops),
    COD_COUNTER("cb.channelsTimedOut", cb.channelsTimedOut),
    COD_COUNTER("cb.mailboxOverflows", cb.mailboxOverflows),
    COD_COUNTER("reliable.framesBuffered", cb.reliable.framesBuffered),
    COD_COUNTER("reliable.framesPruned", cb.reliable.framesPruned),
    COD_COUNTER("reliable.sendWindowEvictions",
                cb.reliable.sendWindowEvictions),
    COD_COUNTER("reliable.retransmitsSent", cb.reliable.retransmitsSent),
    COD_COUNTER("reliable.dataFramesSent", cb.reliable.dataFramesSent),
    COD_COUNTER("reliable.nacksReceived", cb.reliable.nacksReceived),
    COD_COUNTER("reliable.windowAcksReceived",
                cb.reliable.windowAcksReceived),
    COD_COUNTER("reliable.nacksSent", cb.reliable.nacksSent),
    COD_COUNTER("reliable.windowAcksSent", cb.reliable.windowAcksSent),
    COD_COUNTER("reliable.outOfOrderBuffered",
                cb.reliable.outOfOrderBuffered),
    COD_COUNTER("reliable.gapsHealed", cb.reliable.gapsHealed),
    COD_COUNTER("reliable.duplicatesDropped", cb.reliable.duplicatesDropped),
    COD_COUNTER("reliable.reorderOverflows", cb.reliable.reorderOverflows),
    COD_COUNTER("reliable.gapsAbandoned", cb.reliable.gapsAbandoned),
    COD_COUNTER("reliable.peerDuplicatesReported",
                cb.reliable.peerDuplicatesReported),
    COD_COUNTER("batch.datagramsCoalesced", cb.batch.datagramsCoalesced),
    COD_COUNTER("batch.framesCoalesced", cb.batch.framesCoalesced),
    COD_COUNTER("batch.soloFlushes", cb.batch.soloFlushes),
    COD_COUNTER("batch.oversizeSends", cb.batch.oversizeSends),
    COD_COUNTER("batch.budgetFlushes", cb.batch.budgetFlushes),
    COD_COUNTER("batch.containerBytesSent", cb.batch.containerBytesSent),
    COD_COUNTER("batch.datagramsUnpacked", cb.batch.datagramsUnpacked),
    COD_COUNTER("batch.framesUnpacked", cb.batch.framesUnpacked),
    COD_COUNTER("batch.peerSlotsReclaimed", cb.batch.peerSlotsReclaimed),
    COD_COUNTER("transport.packetsSent", transport.packetsSent),
    COD_COUNTER("transport.bytesSent", transport.bytesSent),
    COD_COUNTER("transport.packetsReceived", transport.packetsReceived),
    COD_COUNTER("transport.bytesReceived", transport.bytesReceived),
    COD_COUNTER("transport.packetsDropped", transport.packetsDropped),
    COD_COUNTER("transport.framesSent", transport.framesSent),
    COD_COUNTER("transport.framesReceived", transport.framesReceived),
    COD_COUNTER("transport.framesDropped", transport.framesDropped),
};

#undef COD_COUNTER

/// Header flags. Bit 0x01 marked the retired delta encoding; it stays
/// undefined and is never reused.
constexpr std::uint8_t kFlagPhases = 0x02;

/// Channel flags byte: direction, QoS and liveness packed together.
constexpr std::uint8_t kChanOutbound = 0x01;
constexpr std::uint8_t kChanReliable = 0x02;
constexpr std::uint8_t kChanLive = 0x04;

void encodeHeader(net::WireWriter& w, const NodeTelemetry& t) {
  w.u8(kTelemetryVersion);
  w.u8(t.phaseProfiling ? kFlagPhases : 0);
  w.u64(t.seq);
  w.str(t.node);
  w.u32(t.addr.host);
  w.u16(t.addr.port);
  w.f64(t.nodeTimeSec);
}

void encodeChannels(net::WireWriter& w, const NodeTelemetry& t) {
  w.u16(static_cast<std::uint16_t>(
      std::min<std::size_t>(t.channels.size(), 0xFFFF)));
  std::size_t n = 0;
  for (const core::CbChannelHealth& ch : t.channels) {
    if (n++ == 0xFFFF) break;
    w.u32(ch.channelId);
    w.str(ch.className);
    std::uint8_t flags = 0;
    if (ch.outbound) flags |= kChanOutbound;
    if (ch.qos == net::QosClass::kReliableOrdered) flags |= kChanReliable;
    if (ch.live) flags |= kChanLive;
    w.u8(flags);
    w.f64(ch.ageSec);
    w.u64(ch.windowFrames);
    w.u64(ch.retransmits);
    w.u64(ch.cumAcked);
  }
}

// ---- v3 histogram block --------------------------------------------------
//
// Per histogram: the scalar summary in full, then the bucket array as a
// sparse (index, count) list of the non-zero buckets — most of the 96
// buckets of a log histogram are empty. Indices are strictly ascending on
// the wire so a decoder can reject duplicates and garbage in one pass.

void encodeHistogram(net::WireWriter& w, const HistogramSnapshot& s) {
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
  std::uint16_t listed = 0;
  for (const std::uint64_t b : s.buckets)
    if (b != 0) ++listed;
  w.u16(listed);
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    w.u16(static_cast<std::uint16_t>(i));
    w.u64(s.buckets[i]);
  }
}

bool decodeHistogram(net::WireReader& r, HistogramSnapshot& s) {
  const auto count = r.u64();
  const auto sum = r.f64();
  const auto min = r.f64();
  const auto max = r.f64();
  const auto listed = r.u16();
  if (!count || !sum || !min || !max || !listed) return false;
  s = HistogramSnapshot{};
  s.count = *count;
  s.sum = *sum;
  s.min = *min;
  s.max = *max;
  std::uint32_t lastIdx = 0;
  bool first = true;
  for (std::uint16_t i = 0; i < *listed; ++i) {
    const auto idx = r.u16();
    const auto cnt = r.u64();
    if (!idx || !cnt) return false;
    if (*idx >= kHistBuckets) return false;
    if (!first && *idx <= lastIdx) return false;  // must ascend strictly
    first = false;
    lastIdx = *idx;
    s.buckets[*idx] = *cnt;
  }
  return true;
}

void encodeHistograms(net::WireWriter& w, const NodeTelemetry& t) {
  w.u16(static_cast<std::uint16_t>(CbHistograms::kCount));
  for (const HistogramSnapshot& s : t.hists) encodeHistogram(w, s);
}

bool decodeHistograms(net::WireReader& r, NodeTelemetry& t) {
  const auto count = r.u16();
  // This version defines the histogram set exactly, like the counter table.
  if (!count || *count != CbHistograms::kCount) return false;
  for (HistogramSnapshot& s : t.hists)
    if (!decodeHistogram(r, s)) return false;
  return true;
}

// ---- Tick-phase block ----------------------------------------------------
//
// Same sparse layout as the v3 histogram block, kTickPhaseCount entries
// in TickPhase order. Present iff the header's kFlagPhases bit is set.

void encodePhases(net::WireWriter& w, const NodeTelemetry& t) {
  w.u16(static_cast<std::uint16_t>(kTickPhaseCount));
  for (const HistogramSnapshot& s : t.phases) encodeHistogram(w, s);
}

bool decodePhases(net::WireReader& r, NodeTelemetry& t) {
  const auto count = r.u16();
  // The version defines the phase set exactly, like the histogram set.
  if (!count || *count != kTickPhaseCount) return false;
  for (HistogramSnapshot& s : t.phases)
    if (!decodeHistogram(r, s)) return false;
  return true;
}

// ---- v3 table-load block -------------------------------------------------

void encodeTableLoad(net::WireWriter& w, const NodeTelemetry& t) {
  w.u16(static_cast<std::uint16_t>(
      std::min<std::size_t>(t.tableLoad.size(), 0xFFFF)));
  std::size_t n = 0;
  for (const core::CbTableLoad& l : t.tableLoad) {
    if (n++ == 0xFFFF) break;
    w.u32(static_cast<std::uint32_t>(l.publications));
    w.u32(static_cast<std::uint32_t>(l.subscriptions));
    w.u32(static_cast<std::uint32_t>(l.inChannels));
    w.u32(static_cast<std::uint32_t>(l.outChannels));
  }
}

bool decodeTableLoad(net::WireReader& r, NodeTelemetry& t) {
  const auto count = r.u16();
  if (!count) return false;
  t.tableLoad.clear();
  t.tableLoad.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto pubs = r.u32();
    const auto subs = r.u32();
    const auto inCh = r.u32();
    const auto outCh = r.u32();
    if (!pubs || !subs || !inCh || !outCh) return false;
    t.tableLoad.push_back(core::CbTableLoad{*pubs, *subs, *inCh, *outCh});
  }
  return true;
}

bool decodeChannels(net::WireReader& r, NodeTelemetry& t) {
  const auto count = r.u16();
  if (!count) return false;
  t.channels.clear();
  t.channels.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    core::CbChannelHealth ch;
    const auto id = r.u32();
    auto cls = r.str();
    const auto flags = r.u8();
    const auto age = r.f64();
    const auto window = r.u64();
    const auto retx = r.u64();
    const auto acked = r.u64();
    if (!id || !cls || !flags || !age || !window || !retx || !acked)
      return false;
    ch.channelId = *id;
    ch.className = std::move(*cls);
    ch.outbound = (*flags & kChanOutbound) != 0;
    ch.qos = (*flags & kChanReliable) != 0 ? net::QosClass::kReliableOrdered
                                           : net::QosClass::kBestEffort;
    ch.live = (*flags & kChanLive) != 0;
    ch.ageSec = *age;
    ch.windowFrames = *window;
    ch.retransmits = *retx;
    ch.cumAcked = *acked;
    t.channels.push_back(std::move(ch));
  }
  return true;
}

}  // namespace

std::size_t counterCount() { return kCounterFields.size(); }

const char* counterName(std::size_t i) {
  return i < kCounterFields.size() ? kCounterFields[i].name : nullptr;
}

std::uint64_t counterValue(const NodeTelemetry& t, std::size_t i) {
  // The table stores mutable accessors; reading through them is safe.
  return kCounterFields[i].ref(const_cast<NodeTelemetry&>(t));
}

void setCounterValue(NodeTelemetry& t, std::size_t i, std::uint64_t v) {
  kCounterFields[i].ref(t) = v;
}

std::vector<std::uint8_t> encodeTelemetry(const NodeTelemetry& t) {
  net::WireWriter w;
  encodeHeader(w, t);
  w.u16(static_cast<std::uint16_t>(kCounterFields.size()));
  for (std::size_t i = 0; i < kCounterFields.size(); ++i)
    w.u64(counterValue(t, i));
  encodeChannels(w, t);
  encodeHistograms(w, t);
  encodeTableLoad(w, t);
  if (t.phaseProfiling) encodePhases(w, t);
  return w.take();
}

std::optional<NodeTelemetry> decodeTelemetry(
    std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  const auto version = r.u8();
  const auto flags = r.u8();
  if (!version || !flags) return std::nullopt;
  if (*version != kTelemetryVersion) return std::nullopt;
  if ((*flags & ~kFlagPhases) != 0) return std::nullopt;

  NodeTelemetry t;
  const auto seq = r.u64();
  auto node = r.str();
  const auto host = r.u32();
  const auto port = r.u16();
  const auto time = r.f64();
  if (!seq || !node || !host || !port || !time) return std::nullopt;
  t.seq = *seq;
  t.node = std::move(*node);
  t.addr = {*host, *port};
  t.nodeTimeSec = *time;

  const auto count = r.u16();
  // The version defines the counter table exactly; a record claiming a
  // different size is from no encoder of this version.
  if (!count || *count != kCounterFields.size()) return std::nullopt;
  for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
    const auto value = r.u64();
    if (!value) return std::nullopt;
    setCounterValue(t, i, *value);
  }

  if (!decodeChannels(r, t)) return std::nullopt;
  if (!decodeHistograms(r, t)) return std::nullopt;
  if (!decodeTableLoad(r, t)) return std::nullopt;
  if ((*flags & kFlagPhases) != 0) {
    t.phaseProfiling = true;
    if (!decodePhases(r, t)) return std::nullopt;
  }
  // Trailing bytes mean corruption (or a newer, larger format lying about
  // its version): reject wholesale.
  if (!r.atEnd()) return std::nullopt;
  return t;
}

}  // namespace cod::telemetry
