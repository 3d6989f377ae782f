// The CB wire protocol (paper §2.3).
//
// Control messages implement the initialization protocol — a subscriber CB
// broadcasts SUBSCRIPTION at a constant interval until ACKNOWLEDGE arrives;
// it then sends CHANNEL_CONNECTION to the acknowledging publisher CB, which
// answers with a second ACKNOWLEDGE (CHANNEL_ACK here, to make the two
// acknowledge phases explicit on the wire). Data messages (UPDATE) flow over
// the established virtual channel. HEARTBEAT keeps channels alive and BYE
// tears them down when an LP resigns.
//
// Channels carry a QoS class (net::QosClass). kBestEffort channels are the
// paper's newest-wins path and their data-plane frames (UPDATE, HEARTBEAT,
// BYE) are wire-identical to the pre-QoS protocol. kReliableOrdered
// channels add two control messages: NACK (receiver lists missing
// sequences) and WINDOW_ACK (cumulative progress from the receiver, or a
// skip order from a sender whose retransmit window no longer holds the
// requested frames).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/reliable.hpp"
#include "net/wire.hpp"

namespace cod::core {

/// Message discriminator, first byte of every CB datagram.
enum class MsgType : std::uint8_t {
  kSubscription = 1,      // broadcast: "who publishes class X?"
  kAcknowledge = 2,       // publisher → subscriber: "I do"
  kChannelConnection = 3, // subscriber → publisher: "open channel N"
  kChannelAck = 4,        // publisher → subscriber: "channel N is live"
  kUpdate = 5,            // publisher → subscriber: attribute update
  kHeartbeat = 6,         // either direction: liveness
  kBye = 7,               // either direction: tear down a channel
  kNack = 8,              // subscriber → publisher: missing sequences
  kWindowAck = 9,         // cumulative ack (subscriber) / skip (publisher)
  kBatch = 10,            // container: several CB messages, one datagram
};

/// Broadcast by the subscriber's CB until acknowledged (§2.3).
struct SubscriptionMsg {
  std::uint32_t subscriptionId = 0;  // unique within the issuing CB
  std::string className;
};

/// Publisher's answer to a SUBSCRIPTION it can serve.
struct AcknowledgeMsg {
  std::uint32_t subscriptionId = 0;  // echoed from the SUBSCRIPTION
  std::uint32_t publicationId = 0;   // publisher-side table entry
  std::string className;
};

/// Subscriber asks the publisher to link its publication entry to the
/// subscriber's table entry — this mapping *is* the virtual channel (§2.2).
struct ChannelConnectionMsg {
  std::uint32_t subscriptionId = 0;
  std::uint32_t publicationId = 0;
  std::uint32_t channelId = 0;  // chosen by the subscriber CB
  std::string className;
  /// QoS the subscriber requests for this channel.
  net::QosClass qos = net::QosClass::kBestEffort;
};

/// Publisher confirms the channel (the paper's second ACKNOWLEDGE).
struct ChannelAckMsg {
  std::uint32_t channelId = 0;
  std::uint32_t publicationId = 0;
  /// Effective QoS: the stronger of what the subscriber requested and
  /// what the publication mandates.
  net::QosClass qos = net::QosClass::kBestEffort;
  /// For reliable channels: the first update sequence this channel is
  /// owed (the publication's next sequence when the channel was opened).
  /// Sequence numbers are publication-global, so a mid-stream joiner must
  /// learn its base here rather than guessing from arrival order.
  std::uint64_t firstSeq = 0;
};

/// Subscriber reports sequences missing on a reliable channel; the
/// publisher re-sends them from its retransmit window.
struct NackMsg {
  std::uint32_t channelId = 0;
  std::vector<std::uint64_t> missingSeqs;
};

/// From the subscriber (fromPublisher=false): everything through
/// `cumulativeSeq` has been delivered in order — the publisher may prune
/// its window. From the publisher (fromPublisher=true): frames through
/// `cumulativeSeq` are no longer retransmittable — the subscriber must
/// skip past them (counted as abandoned, never silent).
struct WindowAckMsg {
  std::uint32_t channelId = 0;
  std::uint64_t cumulativeSeq = 0;
  bool fromPublisher = false;
  /// Optional delivery-timing echo for the end-to-end latency sampler
  /// (subscriber -> publisher only). When a sampled (trace-tagged) UPDATE
  /// was released in order, the next WINDOW_ACK echoes the tag back:
  /// `echoTagSec` verbatim (publisher clock — the subscriber never
  /// interprets it) plus `echoHoldSec`, the subscriber-clock delay between
  /// the in-order release and this ack leaving. The publisher computes
  /// latency = now - echoTagSec - echoHoldSec with no clock sync; the
  /// residual return-path transit is a documented overestimate.
  ///
  /// On the wire the echo is a trailing block after the v1 body, so an
  /// un-echoing encoder is byte-identical to the pre-trace protocol and
  /// decoders that predate it simply ignore the tail.
  bool echoed = false;
  std::uint64_t echoSeq = 0;
  double echoTagSec = 0.0;
  double echoHoldSec = 0.0;
  /// Optional duplicate report (subscriber -> publisher only): the
  /// cumulative count of duplicate frames this channel's receive queue
  /// has dropped — retransmits that arrived after the original already
  /// made it. The publisher subtracts them from its loss estimate (a
  /// frame delivered twice was never lost; its ack just lost the race
  /// with the tail RTO, which dominates on low-rate streams). Cumulative
  /// so a lost report is healed by the next one.
  ///
  /// Like the echo, a trailing block after the v1 body: absent (wire
  /// byte-identical) while the count is zero, ignored by decoders that
  /// predate it.
  bool dupReported = false;
  std::uint64_t dupCount = 0;
};

/// One attribute update pushed through a virtual channel.
struct UpdateMsg {
  std::uint32_t channelId = 0;
  std::uint64_t seq = 0;       // per-channel sequence number
  double timestamp = 0.0;      // sender simulation time
  std::vector<std::uint8_t> payload;  // encoded AttributeSet
  /// End-to-end latency sampling: 1-in-N reliable updates carry a trace
  /// tag — `pubWallSec`, the publisher's clock at publish — appended
  /// after the payload blob. The subscriber echoes it on its next
  /// WINDOW_ACK (see WindowAckMsg). Untagged frames are byte-identical
  /// to the pre-trace protocol; decoders without the tag reader ignore
  /// the trailing bytes.
  bool traced = false;
  double pubWallSec = 0.0;
};

/// An UPDATE read in place: `payload` views the frame's bytes and is valid
/// only while they are. The CB's receive path reads every UPDATE this way,
/// so a best-effort payload decodes straight from the datagram.
struct UpdateView {
  std::uint32_t channelId = 0;
  std::uint64_t seq = 0;
  double timestamp = 0.0;
  std::span<const std::uint8_t> payload;  // encoded AttributeSet
  bool traced = false;
  double pubWallSec = 0.0;
};

struct HeartbeatMsg {
  std::uint32_t channelId = 0;
  double timestamp = 0.0;
  /// Channel ids are allocated by the subscriber, so a CB that both
  /// publishes and subscribes can know the same id in both roles. The
  /// direction flag says which role the sender is speaking in.
  bool fromPublisher = false;
};

struct ByeMsg {
  std::uint32_t channelId = 0;
  bool fromPublisher = false;
};

/// Container datagram produced by the CB's per-peer send coalescer: every
/// frame staged for one destination during a tick rides out as one kBatch
/// datagram instead of one datagram each. Sub-frames are existing wire
/// messages, byte-for-byte unchanged, so a batched sender interoperates
/// with an un-batched receiver's vocabulary (and vice versa: bare frames
/// are still accepted everywhere).
///
/// Layout: [u8 10][u16 count][(u32 len)(frame bytes) × count]
///
/// A batch never nests another batch, never carries an empty sub-frame,
/// and must consume the datagram exactly — anything else is rejected as
/// malformed (a real socket daemon drops, never trusts, a corrupt
/// container).
struct BatchMsg {
  std::vector<std::vector<std::uint8_t>> frames;
};

/// kBatch container framing constants: [u8 type][u16 count] header, then a
/// u32 length prefix before each sub-frame.
inline constexpr std::size_t kBatchHeaderBytes = 3;
inline constexpr std::size_t kBatchFramePrefixBytes = 4;
inline constexpr std::size_t kBatchMaxFrames = 0xFFFF;
/// The send coalescer's container size cap, bytes: one flush stays under
/// the path MTU, so the LAN never fragments it. A staged container that a
/// new frame would push past this flushes early; a frame that busts it on
/// its own leaves bare.
inline constexpr std::size_t kBatchByteBudget = 1200;

/// Validate a kBatch container body (everything after the type byte)
/// against the framing rules: count > 0, every sub-frame non-empty and
/// not a nested container, and the body consumed exactly. Returns the
/// frame count, nullopt if malformed. The single definition of the
/// container contract — decode() and the CB's zero-copy receive path
/// both defer to it, so the two cannot drift apart.
std::optional<std::uint16_t> validateBatchBody(
    std::span<const std::uint8_t> body);

/// A decoded CB datagram.
struct CbMessage {
  MsgType type = MsgType::kHeartbeat;
  SubscriptionMsg subscription;
  AcknowledgeMsg acknowledge;
  ChannelConnectionMsg channelConnection;
  ChannelAckMsg channelAck;
  UpdateMsg update;
  HeartbeatMsg heartbeat;
  ByeMsg bye;
  NackMsg nack;
  WindowAckMsg windowAck;
  BatchMsg batch;
};

std::vector<std::uint8_t> encode(const SubscriptionMsg& m);
std::vector<std::uint8_t> encode(const AcknowledgeMsg& m);
std::vector<std::uint8_t> encode(const ChannelConnectionMsg& m);
std::vector<std::uint8_t> encode(const ChannelAckMsg& m);
std::vector<std::uint8_t> encode(const UpdateMsg& m);
std::vector<std::uint8_t> encode(const HeartbeatMsg& m);
std::vector<std::uint8_t> encode(const ByeMsg& m);
std::vector<std::uint8_t> encode(const NackMsg& m);
std::vector<std::uint8_t> encode(const WindowAckMsg& m);
std::vector<std::uint8_t> encode(const BatchMsg& m);

/// Encode an UPDATE into `out`, reusing its capacity. `out` is cleared
/// first. The fan-out hot path encodes one frame per update this way and
/// re-targets it per channel with patchChannelId().
void encodeInto(const UpdateMsg& m, std::vector<std::uint8_t>& out);

/// The single definition of the UPDATE frame layout, exposed so the CB
/// can stream a payload into the frame with no intermediate buffer:
/// writes [type][channelId=0][seq][timestamp] and opens the payload blob.
/// Write the payload through `w`, then close it with
/// `w.endBlob(returned offset)`; re-target with patchChannelId().
std::size_t beginUpdateFrame(net::WireWriter& w, std::uint64_t seq,
                             double timestamp);

/// UPDATE, HEARTBEAT, BYE, NACK and WINDOW_ACK frames all start
/// [u8 type][u32 channelId], so a frame encoded once can be re-targeted at
/// another virtual channel by rewriting 4 bytes instead of re-serializing
/// the whole payload.
inline constexpr std::size_t kChannelIdOffset = 1;

/// First byte of the optional trailing trace blocks on UPDATE
/// ([marker][f64 pubWallSec]) and WINDOW_ACK
/// ([marker][u64 echoSeq][f64 echoTagSec][f64 echoHoldSec]). Chosen so a
/// truncated or foreign tail is overwhelmingly unlikely to alias as a tag.
inline constexpr std::uint8_t kTraceTagMarker = 0x54;  // 'T'

/// First byte of the optional trailing duplicate-report block on
/// WINDOW_ACK ([marker][u64 dupCount]). Distinct from the trace marker so
/// the two trailing blocks compose in either's absence.
inline constexpr std::uint8_t kDupReportMarker = 0x44;  // 'D'

/// Append the sampled-update trace tag to an UPDATE frame under
/// construction (call after endBlob(), before take()). The tag rides
/// inside the retransmit-window copy, so a retransmitted sampled frame
/// measures retransmit-inclusive latency.
void appendUpdateTraceTag(net::WireWriter& w, double pubWallSec);

/// Rewrite the channel id of an encoded UPDATE/HEARTBEAT/BYE frame in
/// place. Precondition: `frame` holds one of those message types (at least
/// kChannelIdOffset + 4 bytes); byte-identical to re-encoding the message
/// with `channelId` substituted.
void patchChannelId(std::span<std::uint8_t> frame, std::uint32_t channelId);

/// Read an UPDATE frame (type byte included) without copying its payload;
/// nullopt unless `frame` is a well-formed UPDATE. decode() reads UPDATEs
/// through this, so the two accept exactly the same bytes.
std::optional<UpdateView> decodeUpdate(std::span<const std::uint8_t> frame);

/// Decode any CB datagram; nullopt on malformed input (which the CB drops,
/// as a real socket daemon must).
std::optional<CbMessage> decode(std::span<const std::uint8_t> bytes);

const char* msgTypeName(MsgType t);

}  // namespace cod::core
