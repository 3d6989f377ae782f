#include "core/protocol.hpp"

#include <cassert>

namespace cod::core {

namespace {

net::WireWriter header(MsgType t) {
  net::WireWriter w;
  w.u8(static_cast<std::uint8_t>(t));
  return w;
}

}  // namespace

std::vector<std::uint8_t> encode(const SubscriptionMsg& m) {
  net::WireWriter w = header(MsgType::kSubscription);
  w.u32(m.subscriptionId);
  w.str(m.className);
  return w.take();
}

std::vector<std::uint8_t> encode(const AcknowledgeMsg& m) {
  net::WireWriter w = header(MsgType::kAcknowledge);
  w.u32(m.subscriptionId);
  w.u32(m.publicationId);
  w.str(m.className);
  return w.take();
}

std::vector<std::uint8_t> encode(const ChannelConnectionMsg& m) {
  net::WireWriter w = header(MsgType::kChannelConnection);
  w.u32(m.subscriptionId);
  w.u32(m.publicationId);
  w.u32(m.channelId);
  w.str(m.className);
  w.u8(static_cast<std::uint8_t>(m.qos));
  return w.take();
}

std::vector<std::uint8_t> encode(const ChannelAckMsg& m) {
  net::WireWriter w = header(MsgType::kChannelAck);
  w.u32(m.channelId);
  w.u32(m.publicationId);
  w.u8(static_cast<std::uint8_t>(m.qos));
  w.u64(m.firstSeq);
  return w.take();
}

std::vector<std::uint8_t> encode(const UpdateMsg& m) {
  std::vector<std::uint8_t> out;
  encodeInto(m, out);
  return out;
}

void encodeInto(const UpdateMsg& m, std::vector<std::uint8_t>& out) {
  net::WireWriter w(std::move(out));
  const std::size_t blobStart = beginUpdateFrame(w, m.seq, m.timestamp);
  w.raw(m.payload);
  w.endBlob(blobStart);
  if (m.traced) appendUpdateTraceTag(w, m.pubWallSec);
  out = w.take();
  patchChannelId(out, m.channelId);
}

void appendUpdateTraceTag(net::WireWriter& w, double pubWallSec) {
  w.u8(kTraceTagMarker);
  w.f64(pubWallSec);
}

std::size_t beginUpdateFrame(net::WireWriter& w, std::uint64_t seq,
                             double timestamp) {
  w.u8(static_cast<std::uint8_t>(MsgType::kUpdate));
  w.u32(0);  // channel id, patched per channel
  w.u64(seq);
  w.f64(timestamp);
  return w.beginBlob();
}

void patchChannelId(std::span<std::uint8_t> frame, std::uint32_t channelId) {
  assert(frame.size() >= kChannelIdOffset + sizeof(std::uint32_t));
  for (std::size_t i = 0; i < sizeof(std::uint32_t); ++i)
    frame[kChannelIdOffset + i] =
        static_cast<std::uint8_t>((channelId >> (8 * i)) & 0xFF);
}

std::vector<std::uint8_t> encode(const HeartbeatMsg& m) {
  net::WireWriter w = header(MsgType::kHeartbeat);
  w.u32(m.channelId);
  w.f64(m.timestamp);
  w.boolean(m.fromPublisher);
  return w.take();
}

std::vector<std::uint8_t> encode(const ByeMsg& m) {
  net::WireWriter w = header(MsgType::kBye);
  w.u32(m.channelId);
  w.boolean(m.fromPublisher);
  return w.take();
}

std::vector<std::uint8_t> encode(const NackMsg& m) {
  net::WireWriter w = header(MsgType::kNack);
  w.u32(m.channelId);
  w.u16(static_cast<std::uint16_t>(
      std::min<std::size_t>(m.missingSeqs.size(), 0xFFFF)));
  for (std::size_t i = 0; i < m.missingSeqs.size() && i < 0xFFFF; ++i)
    w.u64(m.missingSeqs[i]);
  return w.take();
}

std::vector<std::uint8_t> encode(const WindowAckMsg& m) {
  net::WireWriter w = header(MsgType::kWindowAck);
  w.u32(m.channelId);
  w.u64(m.cumulativeSeq);
  w.boolean(m.fromPublisher);
  if (m.echoed) {
    // Trailing delivery-timing echo; absent (byte-identical to the
    // pre-trace message) unless a sampled update is being reported.
    w.u8(kTraceTagMarker);
    w.u64(m.echoSeq);
    w.f64(m.echoTagSec);
    w.f64(m.echoHoldSec);
  }
  if (m.dupReported) {
    // Trailing duplicate report, always after the echo when both ride;
    // absent (byte-identical) while the channel has dropped no duplicate.
    w.u8(kDupReportMarker);
    w.u64(m.dupCount);
  }
  return w.take();
}

std::optional<std::uint16_t> validateBatchBody(
    std::span<const std::uint8_t> body) {
  net::WireReader r(body);
  const auto count = r.u16();
  // The coalescer never emits an empty container, so count == 0 is as
  // malformed as a truncated header.
  if (!count || *count == 0) return std::nullopt;
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto frame = r.blobSpan();
    // A sub-frame must be a plausible CB message: non-empty and never a
    // nested container (the coalescer flattens; a nested batch on the
    // wire is corruption or an amplification attempt).
    if (!frame || frame->empty() ||
        frame->front() == static_cast<std::uint8_t>(MsgType::kBatch))
      return std::nullopt;
  }
  // The count must account for the whole datagram; trailing bytes mean
  // the container was corrupted in flight.
  if (!r.atEnd()) return std::nullopt;
  return count;
}

std::vector<std::uint8_t> encode(const BatchMsg& m) {
  // The generic encoder frames whatever it is given — an empty container
  // or an empty sub-frame too, so tests can probe decode()'s rejections.
  // The coalescer writes the same framing straight into each peer's
  // staging container as frames are staged (cb.cpp) and never calls this.
  assert(m.frames.size() <= kBatchMaxFrames);
  net::WireWriter w = header(MsgType::kBatch);
  w.u16(static_cast<std::uint16_t>(m.frames.size()));
  for (const auto& frame : m.frames) w.blob(frame);
  return w.take();
}

std::optional<UpdateView> decodeUpdate(std::span<const std::uint8_t> frame) {
  net::WireReader r(frame);
  const auto t = r.u8();
  const auto ch = r.u32();
  const auto seq = r.u64();
  const auto ts = r.f64();
  const auto payload = r.blobSpan();
  if (!t || *t != static_cast<std::uint8_t>(MsgType::kUpdate) || !ch || !seq ||
      !ts || !payload)
    return std::nullopt;
  UpdateView u{*ch, *seq, *ts, *payload};
  // Optional trailing trace tag: [marker][f64 pubWallSec]. Anything else
  // trailing is ignored, exactly as it was pre-trace (forward
  // compatibility relies on it).
  if (r.remaining() == 1 + sizeof(double)) {
    const auto marker = r.u8();
    const auto tag = r.f64();
    if (marker && *marker == kTraceTagMarker && tag) {
      u.traced = true;
      u.pubWallSec = *tag;
    }
  }
  return u;
}

std::optional<CbMessage> decode(std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  const auto t = r.u8();
  if (!t) return std::nullopt;
  CbMessage msg;
  msg.type = static_cast<MsgType>(*t);
  switch (msg.type) {
    case MsgType::kSubscription: {
      const auto id = r.u32();
      auto cls = r.str();
      if (!id || !cls) return std::nullopt;
      msg.subscription = {*id, std::move(*cls)};
      break;
    }
    case MsgType::kAcknowledge: {
      const auto sid = r.u32();
      const auto pid = r.u32();
      auto cls = r.str();
      if (!sid || !pid || !cls) return std::nullopt;
      msg.acknowledge = {*sid, *pid, std::move(*cls)};
      break;
    }
    case MsgType::kChannelConnection: {
      const auto sid = r.u32();
      const auto pid = r.u32();
      const auto ch = r.u32();
      auto cls = r.str();
      const auto qos = r.u8();
      if (!sid || !pid || !ch || !cls || !qos) return std::nullopt;
      if (*qos > static_cast<std::uint8_t>(net::QosClass::kReliableOrdered))
        return std::nullopt;
      msg.channelConnection = {*sid, *pid, *ch, std::move(*cls),
                               static_cast<net::QosClass>(*qos)};
      break;
    }
    case MsgType::kChannelAck: {
      const auto ch = r.u32();
      const auto pid = r.u32();
      const auto qos = r.u8();
      const auto firstSeq = r.u64();
      if (!ch || !pid || !qos || !firstSeq) return std::nullopt;
      if (*qos > static_cast<std::uint8_t>(net::QosClass::kReliableOrdered))
        return std::nullopt;
      msg.channelAck = {*ch, *pid, static_cast<net::QosClass>(*qos),
                        *firstSeq};
      break;
    }
    case MsgType::kUpdate: {
      const auto u = decodeUpdate(bytes);
      if (!u) return std::nullopt;
      msg.update = {u->channelId, u->seq, u->timestamp,
                    {u->payload.begin(), u->payload.end()}, u->traced,
                    u->pubWallSec};
      break;
    }
    case MsgType::kHeartbeat: {
      const auto ch = r.u32();
      const auto ts = r.f64();
      const auto fromPub = r.boolean();
      if (!ch || !ts || !fromPub) return std::nullopt;
      msg.heartbeat = {*ch, *ts, *fromPub};
      break;
    }
    case MsgType::kBye: {
      const auto ch = r.u32();
      const auto fromPub = r.boolean();
      if (!ch || !fromPub) return std::nullopt;
      msg.bye = {*ch, *fromPub};
      break;
    }
    case MsgType::kNack: {
      const auto ch = r.u32();
      const auto count = r.u16();
      if (!ch || !count) return std::nullopt;
      NackMsg nack;
      nack.channelId = *ch;
      nack.missingSeqs.reserve(*count);
      for (std::uint16_t i = 0; i < *count; ++i) {
        const auto seq = r.u64();
        if (!seq) return std::nullopt;
        nack.missingSeqs.push_back(*seq);
      }
      msg.nack = std::move(nack);
      break;
    }
    case MsgType::kWindowAck: {
      const auto ch = r.u32();
      const auto cum = r.u64();
      const auto fromPub = r.boolean();
      if (!ch || !cum || !fromPub) return std::nullopt;
      msg.windowAck = {*ch, *cum, *fromPub};
      // Optional trailing blocks, echo before dup report when both ride:
      //   echo: [0x54][u64 echoSeq][f64 echoTagSec][f64 echoHoldSec] (25)
      //   dup:  [0x44][u64 dupCount]                                  (9)
      // Only the exact lengths are parsed; any other tail is ignored
      // wholesale, exactly as it was pre-trace (forward compatibility
      // relies on it).
      constexpr std::size_t kEchoLen =
          1 + sizeof(std::uint64_t) + 2 * sizeof(double);
      constexpr std::size_t kDupLen = 1 + sizeof(std::uint64_t);
      const std::size_t tail = r.remaining();
      if (tail == kEchoLen || tail == kEchoLen + kDupLen) {
        const auto marker = r.u8();
        const auto eseq = r.u64();
        const auto etag = r.f64();
        const auto ehold = r.f64();
        if (marker && *marker == kTraceTagMarker && eseq && etag && ehold) {
          msg.windowAck.echoed = true;
          msg.windowAck.echoSeq = *eseq;
          msg.windowAck.echoTagSec = *etag;
          msg.windowAck.echoHoldSec = *ehold;
        }
      }
      if (r.remaining() == kDupLen &&
          (tail == kDupLen || msg.windowAck.echoed)) {
        const auto marker = r.u8();
        const auto dups = r.u64();
        if (marker && *marker == kDupReportMarker && dups) {
          msg.windowAck.dupReported = true;
          msg.windowAck.dupCount = *dups;
        }
      }
      break;
    }
    case MsgType::kBatch: {
      const auto count = validateBatchBody(bytes.subspan(1));
      if (!count) return std::nullopt;
      r.u16();  // count, validated above
      BatchMsg batch;
      batch.frames.reserve(*count);
      for (std::uint16_t i = 0; i < *count; ++i) {
        const auto frame = r.blobSpan();  // validated above
        batch.frames.emplace_back(frame->begin(), frame->end());
      }
      msg.batch = std::move(batch);
      break;
    }
    default:
      return std::nullopt;
  }
  return msg;
}

const char* msgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kSubscription: return "SUBSCRIPTION";
    case MsgType::kAcknowledge: return "ACKNOWLEDGE";
    case MsgType::kChannelConnection: return "CHANNEL_CONNECTION";
    case MsgType::kChannelAck: return "CHANNEL_ACK";
    case MsgType::kUpdate: return "UPDATE";
    case MsgType::kHeartbeat: return "HEARTBEAT";
    case MsgType::kBye: return "BYE";
    case MsgType::kNack: return "NACK";
    case MsgType::kWindowAck: return "WINDOW_ACK";
    case MsgType::kBatch: return "BATCH";
  }
  return "UNKNOWN";
}

}  // namespace cod::core
