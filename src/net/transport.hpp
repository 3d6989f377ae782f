// Transport abstraction the Communication Backbone rides on.
//
// The CB protocol (discovery broadcast, channel connection, update routing)
// is written against this interface only, so the same CB runs unchanged on
// the deterministic simulated LAN (SimNetwork), on plain in-memory queues,
// or on real UDP sockets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace cod::net {

/// Identifies a computer on the (possibly simulated) LAN.
using HostId = std::uint32_t;

inline constexpr HostId kInvalidHost = 0xFFFFFFFFu;

/// A (host, port) endpoint.
struct NodeAddr {
  HostId host = kInvalidHost;
  std::uint16_t port = 0;

  constexpr bool operator==(const NodeAddr&) const = default;
  constexpr auto operator<=>(const NodeAddr&) const = default;
  constexpr bool valid() const { return host != kInvalidHost; }
};

/// One received datagram.
struct Datagram {
  NodeAddr src;
  NodeAddr dst;
  std::vector<std::uint8_t> payload;
};

/// Simple traffic counters, kept by the transports that support them.
///
/// Packets are datagrams on the wire; frames are the CB messages they
/// carry. The two differ because the CB's send coalescer packs a whole
/// tick's frames for one peer into a single kBatch container datagram —
/// so one lost packet can mean many lost frames, and loss accounting that
/// only counted packets would understate what the protocol actually lost.
struct TransportStats {
  std::uint64_t packetsSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t packetsReceived = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t packetsDropped = 0;  // loss model or full queues
  std::uint64_t framesSent = 0;      // CB frames inside sent packets
  std::uint64_t framesReceived = 0;  // CB frames inside delivered packets
  /// CB frames inside dropped packets. Only an omniscient transport (the
  /// simulated LAN) can attribute these to the endpoint that would have
  /// received them; on real UDP this stays 0 and loss shows up indirectly
  /// through the reliable layer's NACK/retransmit counters instead.
  std::uint64_t framesDropped = 0;
};

/// Number of CB frames a datagram carries: N for a kBatch container, 1 for
/// any bare frame (including malformed bytes — one datagram, one loss).
/// Mirrors the container header [u8 type=10][u16 count] defined in
/// core/protocol.hpp: net must not depend on core, so the three header
/// bytes are duplicated here and a protocol test pins the two together.
std::uint32_t framesInDatagram(std::span<const std::uint8_t> bytes);

/// Unreliable datagram transport endpoint (one "socket").
///
/// All operations are non-blocking; `receive` polls the inbound queue.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Address this endpoint is bound to.
  virtual NodeAddr localAddress() const = 0;

  /// Send a datagram to a specific endpoint. The CB's batch flush hands
  /// each peer's whole kBatch container here as one contiguous buffer.
  virtual void send(const NodeAddr& dst, std::span<const std::uint8_t> bytes) = 0;

  /// LAN broadcast to every endpoint bound to `port` (except this one).
  /// This is the primitive the CB initialization protocol uses for
  /// subscription discovery.
  virtual void broadcast(std::uint16_t port, std::span<const std::uint8_t> bytes) = 0;

  /// Poll one inbound datagram; nullopt when the queue is empty.
  virtual std::optional<Datagram> receive() = 0;

  /// The OS socket this transport owns, or -1 when it owns none
  /// (simulated/in-memory transports, decorators). Lets a caller tune
  /// socket options, e.g. SO_RCVBUF, through this interface.
  virtual int pollableFd() const { return -1; }

  /// Per-endpoint traffic counters, null if this transport keeps none.
  /// The telemetry subsystem snapshots these into NodeTelemetry records.
  virtual const TransportStats* stats() const { return nullptr; }
};

}  // namespace cod::net
