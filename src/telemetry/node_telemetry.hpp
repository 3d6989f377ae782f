// NodeTelemetry — the compact, versioned wire record one computer's
// telemetry publisher exports every interval (ROADMAP "Instrumentation").
//
// A record is a point-in-time snapshot of everything a cluster-health
// monitor needs about one node: identity (CB name + endpoint address), a
// monotonic snapshot sequence, the CB's counters (CbStats including the
// reliable-layer and send-coalescer blocks), the node's own transport
// counters, and a per-channel health list (age since last frame,
// retransmits, window occupancy).
//
// Every record is a self-contained keyframe: every counter, every
// histogram bucket that is not zero. Telemetry rides best-effort channels
// (a lost snapshot is superseded, retransmitting stale stats would be
// absurd), and a keyframe needs nothing earlier to decode, so any number
// of lost records heals at the next arrival.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cb.hpp"
#include "net/transport.hpp"
#include "telemetry/hist.hpp"

namespace cod::telemetry {

/// Wire-format version, first byte of every record. Decoders reject
/// anything else (a mixed-version cluster must fail loudly, not
/// misinterpret counters). Version 8 is the 44-row counter table, with
/// the tick-phase block present iff flags bit 0x02 is set. Flags bit 0x01
/// (the retired delta encoding) is undefined, so a delta from an older
/// publisher is rejected, never misread. Versions 1–7 are retired
/// (docs/WIRE.md keeps their history), and their numbers are never
/// reused.
inline constexpr std::uint8_t kTelemetryVersion = 8;

/// Reserved object class the publishers publish on and monitors subscribe
/// to — "cod." prefixed so no simulator module class can collide.
inline const std::string kTelemetryClass = "cod.telemetry";
/// The single attribute carrying the encoded record.
inline const std::string kTelemetryAttr = "t";

/// One node's snapshot (see file comment). `channels` reuses the CB's own
/// health export type.
struct NodeTelemetry {
  std::uint64_t seq = 0;  // monotonic per publisher; resets on restart
  std::string node;       // CB name
  net::NodeAddr addr;     // CB endpoint (node identity with `node`)
  double nodeTimeSec = 0.0;  // publisher clock at snapshot time
  core::CbStats cb;          // includes .reliable and .batch
  net::TransportStats transport;
  std::vector<core::CbChannelHealth> channels;
  /// Cumulative histogram snapshots, indexed like CbHistograms::at()
  /// (names from CbHistograms::name()). Monitors diff consecutive
  /// snapshots to derive interval percentiles.
  std::array<HistogramSnapshot, CbHistograms::kCount> hists{};
  /// Routing-table sizes (CommunicationBackbone::tableLoad). A node
  /// sends one entry; the block's [u16 count] prefix still admits any
  /// number, and the decoder keeps them all. Always encoded in full.
  std::vector<core::CbTableLoad> tableLoad;
  /// True when this node runs the tick-phase profiler: `phases` is
  /// meaningful and the record carries the phase block (flags bit 0x02).
  /// False leaves the block and the flag out.
  bool phaseProfiling = false;
  /// Cumulative per-phase tick histograms, indexed like
  /// TickPhaseHistograms::at(). All-zero unless `phaseProfiling`.
  std::array<HistogramSnapshot, kTickPhaseCount> phases{};
};

/// The flattened counter table: every std::uint64_t in CbStats (with its
/// reliable and batch sub-blocks) and TransportStats, in a fixed order
/// that *is* the wire format — appending is a version bump.
std::size_t counterCount();
/// Dotted diagnostic name of counter `i` ("cb.updatesSent",
/// "transport.framesDropped", ...). Null if out of range.
const char* counterName(std::size_t i);
std::uint64_t counterValue(const NodeTelemetry& t, std::size_t i);
void setCounterValue(NodeTelemetry& t, std::size_t i, std::uint64_t v);

/// Encode a self-contained keyframe snapshot.
std::vector<std::uint8_t> encodeTelemetry(const NodeTelemetry& t);

/// Decode a keyframe. Rejects (nullopt) truncated input, trailing bytes,
/// a bad version, undefined flag bits, a counter, histogram or phase set
/// of the wrong size, and out-of-range or non-ascending bucket indices —
/// a monitor must drop, never guess.
std::optional<NodeTelemetry> decodeTelemetry(
    std::span<const std::uint8_t> bytes);

}  // namespace cod::telemetry
