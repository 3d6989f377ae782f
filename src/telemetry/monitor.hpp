// HealthMonitor — the cluster-wide aggregation end of the telemetry
// subsystem.
//
// A monitor is a Logical Process that subscribes to the reserved
// cod.telemetry class, so it can run on any computer of the cluster (the
// instructor station runs one for its health table; the scenario computer
// runs one to annotate the exam debrief). From each node's snapshot
// stream it tracks liveness/staleness, derives rates from successive
// snapshots (updates/s, inbound loss %, retransmits/s, bytes per
// datagram) and raises threshold alarms:
//
//   kNodeSilent         no snapshot for N publish intervals
//   kNodeRecovered      a silent node spoke again
//   kLossSpike          inbound frame loss between snapshots over threshold
//   kRetransmitStorm    reliable retransmit rate over threshold
//   kMailboxOverflow    a node dropped reflections on a full mailbox
//   kChannelWindowPinned     one channel's retransmit window sat at the
//                            reliable layer's cap across two snapshots
//   kChannelRetransmitStorm  one channel's retransmit rate over threshold
//
// Alarms are edge-triggered (one per onset, not one per interval), carry
// a severity, and every onset kind has a matching *Cleared kind raised on
// the condition's falling edge — so a consumer tailing the feed sees the
// full envelope of an incident, not just its start. The feed is
// append-only; consumers drain by index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cb.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/node_telemetry.hpp"
#include "telemetry/trace.hpp"

namespace cod::telemetry {

/// Inbound frame loss between two snapshots that counts as a spike, %.
inline constexpr double kLossSpikePct = 10.0;
/// Reliable retransmit rate that counts as a storm, frames/second.
inline constexpr double kRetransmitStormPerSec = 50.0;
/// A reliable channel whose send window holds at least this many frames
/// across two consecutive snapshots is "pinned": its subscriber is not
/// acking and the publisher is about to stall. It is the reliable layer's
/// window cap.
inline constexpr std::uint64_t kWindowPinnedFrames = net::kSendWindowFrames;
/// Per-channel retransmit rate that counts as a channel storm,
/// frames/second. Lower than the node-wide storm threshold: one channel
/// carrying all of a node's retransmits is a routing/path problem even
/// when the node total looks tolerable.
inline constexpr double kChannelRetransmitStormPerSec = 20.0;
/// Interval delivery-latency p99 (milliseconds) that counts as a latency
/// spike. The figure comes from diffing the node's cumulative
/// delivery-latency histogram between snapshots.
inline constexpr double kLatencySpikeP99Ms = 250.0;
/// Minimum latency samples in the interval before the p99 is judged at
/// all — 1-in-N sampling makes a single outlier meaningless.
inline constexpr std::uint64_t kLatencyMinSamples = 10;
/// Automatic CRIT-triggered flight-recorder dumps are spaced at least this
/// far apart. A flapping CRIT (a slow node oscillating around the silence
/// threshold) would otherwise dump the ring — megabytes of synchronous
/// file I/O — on every edge, stalling the monitor's own tick loop hard
/// enough to storm its reliable channels.
inline constexpr double kFlightDumpMinIntervalSec = 5.0;

/// The publish cadence staleness is judged against. Every other alarm
/// threshold is one of the constants above.
struct MonitorConfig {
  /// The publishers' TelemetryConfig::intervalSec, as expected here.
  double expectedIntervalSec = 1.0;
  /// A node is silent after this many expected intervals without a
  /// snapshot.
  double silentAfterIntervals = 3.0;
};

struct HealthAlarm {
  enum class Kind : std::uint8_t {
    kNodeSilent = 0,
    kNodeRecovered = 1,
    kLossSpike = 2,
    kRetransmitStorm = 3,
    kMailboxOverflow = 4,
    // Falling edges of the threshold alarms above.
    kLossCleared = 5,
    kRetransmitCleared = 6,
    kOverflowCleared = 7,
    // Per-channel health, from the channel block each snapshot ships.
    kChannelWindowPinned = 8,
    kChannelRetransmitStorm = 9,
    kChannelWindowCleared = 10,
    kChannelRetransmitCleared = 11,
    // Interval delivery-latency p99 over threshold (v3 histogram block).
    kLatencySpike = 12,
    kLatencyCleared = 13,
  };
  /// How urgently the instructor station should surface an alarm. Clears
  /// and recoveries are kInfo; threshold breaches are kWarning; a silent
  /// node or a pinned window (both mean data has stopped flowing) are
  /// kCritical.
  enum class Severity : std::uint8_t {
    kInfo = 0,
    kWarning = 1,
    kCritical = 2,
  };
  Kind kind = Kind::kNodeSilent;
  Severity severity = Severity::kWarning;
  double timeSec = 0.0;  // monitor clock at detection
  std::string node;
  std::string detail;
};

const char* alarmKindName(HealthAlarm::Kind k);
/// The fixed kind → severity mapping (what raise() stamps).
HealthAlarm::Severity alarmSeverity(HealthAlarm::Kind k);
const char* severityName(HealthAlarm::Severity s);

/// Loss estimate from reliable-layer counters alone: the fraction of data
/// transmissions that had to be re-sent, less those the subscribers
/// reported as duplicates. Every lost reliable attempt is eventually
/// retransmitted (NACK-driven for gaps, tail timeout for burst ends), so
/// retx / (data + retx) converges on the path's datagram loss rate. This
/// is the only loss observable a real-socket deployment has — a kernel
/// UDP socket cannot attribute drops, so transport.framesDropped stays 0
/// there and the frame-accounting estimate reads a meaningless 0%.
///
/// Subscribers report (WINDOW_ACK dup blocks →
/// reliable.peerDuplicatesReported) how many frames arrived twice: each
/// of those retransmits was a tail-RTO or NACK race that the original
/// actually survived, not a loss. Subtracting them removes the bias that
/// overstates loss on low-rate streams, where a frame's ack routinely
/// loses the race against the retransmit timeout:
///   losses  = retransmitsSent − duplicatesReported   (floored at 0)
///   percent = 100 × losses / (dataFramesSent + retransmitsSent)
/// All arguments are counters (cumulative or interval deltas, but all
/// three from the same interval).
double reliableLossEstimatePct(std::uint64_t dataFramesSent,
                               std::uint64_t retransmitsSent,
                               std::uint64_t duplicatesReported);

/// What the monitor knows about one node.
struct NodeHealth {
  NodeTelemetry last;          // latest applied snapshot
  double lastHeardSec = 0.0;   // monitor clock when it arrived
  bool silent = false;
  std::uint64_t snapshotsApplied = 0;
  std::uint64_t staleDropped = 0;  // out-of-order or repeated sequence
  /// Rates over the last pair of applied snapshots (0 until two arrive).
  double updatesPerSec = 0.0;
  /// Inbound loss from transport frame accounting. Exact on SimNetwork
  /// (the omniscient LAN attributes every dropped frame); pinned at 0 on
  /// real sockets, where drops cannot be attributed.
  double lossPct = 0.0;
  /// Loss inferred from the node's reliable-layer counters over the same
  /// interval (reliableLossEstimatePct) — the real-socket observable.
  double reliableLossPct = 0.0;
  double retransmitsPerSec = 0.0;
  double bytesPerDatagram = 0.0;
  /// Interval delivery-latency percentiles (milliseconds) from diffing
  /// the node's cumulative latency histogram between the last two
  /// snapshots; 0 until an interval contains samples.
  double latencyP50Ms = 0.0;
  double latencyP90Ms = 0.0;
  double latencyP99Ms = 0.0;
  double latencyMaxMs = 0.0;
  std::uint64_t latencySamples = 0;  // samples in that interval
  /// Interval p99 (milliseconds) of each tick phase, TickPhase order,
  /// from diffing the node's phase histograms between snapshots.
  /// All-zero for nodes not running the phase profiler.
  std::array<double, kTickPhaseCount> phaseP99Ms{};
  /// The phase the node spent most interval time in
  /// (TickPhaseHistograms::shortName index), -1 without phase data.
  int hotPhase = -1;
  /// The loss figure alarms and the peak-loss annotation use: frame
  /// accounting where the transport attributes drops, else the
  /// reliable-layer estimate.
  double effectiveLossPct() const { return std::max(lossPct, reliableLossPct); }
};

class HealthMonitor : public core::LogicalProcess {
 public:
  explicit HealthMonitor(MonitorConfig cfg = {});

  /// Attach to a CB and subscribe cluster-wide.
  void bind(core::CommunicationBackbone& cb);

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet& attrs,
                              double timestamp) override;
  void step(double now) override;

  /// Names of every node heard from so far, in name order (the display
  /// order of the health table).
  std::vector<std::string> nodeNames() const;
  std::size_t nodeCount() const { return nodes_.size(); }
  /// Health of one node, null if never heard from.
  const NodeHealth* node(const std::string& name) const;

  /// Append-only alarm feed; consumers remember the index they drained to.
  const std::vector<HealthAlarm>& alarms() const { return alarms_; }

  /// Worst inbound loss observed on any node between two snapshots, and
  /// which node it was — the exam debrief's "peak loss" annotation.
  double peakLossPct() const { return peakLossPct_; }
  const std::string& peakLossNode() const { return peakLossNode_; }

  /// Records that failed to decode (corruption, or a format this monitor
  /// does not speak). They name no node, so no row counts them.
  std::uint64_t undecodableDropped() const { return undecodable_; }

  /// ASCII health table (one row per node) for the instructor station.
  std::string renderTable() const;
  /// The newest `maxRows` alarms, oldest first.
  std::string renderAlarms(std::size_t maxRows = 8) const;

  /// Wire a flight recorder to the alarm feed: every alarm edge is
  /// recorded as a trace event, and a CRITICAL onset automatically dumps
  /// the recorder's ring to `dumpPath` (Chrome trace JSON) — the moment
  /// an operator most wants the preceding seconds of hot-path history.
  /// Pass an empty path to record edges without auto-dumping.
  void attachFlightRecorder(TraceRecorder* recorder, std::string dumpPath);
  /// How many CRIT-triggered dumps were written (test/tooling hook).
  std::uint64_t flightRecorderDumps() const { return flightDumps_; }
  /// Path CRIT dump number `seq` (0-based) is written to: the configured
  /// path for the first, then a ".2", ".3", ... inserted before the last
  /// extension so earlier incidents' dumps survive later ones.
  static std::string flightDumpPath(const std::string& base,
                                    std::uint64_t seq);

  /// Wire a flight-data archive (not owned) to this monitor: every
  /// applied snapshot is re-encoded and appended, along
  /// with every alarm edge and CRIT dump marker — the durable record
  /// cod_inspect replays offline. Null detaches.
  void attachArchive(TelemetryArchive* archive) { archive_ = archive; }

 private:
  /// Edge-trigger state for one channel of one node (keyed by channel id
  /// in NodeState). `pinnedPrev` implements the two-consecutive-snapshot
  /// requirement for window-pinned: a single full window is normal under
  /// bursty load, a window that never drains is not.
  struct ChannelAlarmState {
    bool pinnedPrev = false;
    bool windowAlarm = false;
    bool retxAlarm = false;
  };

  struct NodeState {
    NodeHealth health;
    bool lossAlarm = false;
    bool retxAlarm = false;
    bool overflowAlarm = false;
    bool latencyAlarm = false;
    std::map<std::uint32_t, ChannelAlarmState> channelAlarms;
  };

  void applySnapshot(NodeTelemetry&& t);
  /// `dtSec` is the snapshot-interval length, computed ONCE in
  /// applySnapshot from the seq-paired nodeTimeSec of the two snapshots
  /// being diffed — never recomputed per derivation, so every rate in one
  /// interval divides by the same (positive) denominator.
  void deriveRates(NodeState& st, const NodeTelemetry& prev,
                   const NodeTelemetry& cur, double dtSec);
  /// Per-channel window/retransmit alarms from two successive channel
  /// blocks; prunes state for channels that vanished.
  void deriveChannelAlarms(NodeState& st, const NodeTelemetry& prev,
                           const NodeTelemetry& cur, double dtSec);
  void raise(HealthAlarm::Kind kind, const std::string& nodeName,
             std::string detail);

  MonitorConfig cfg_;
  core::CommunicationBackbone* cb_ = nullptr;
  core::SubscriptionHandle sub_ = core::kInvalidHandle;
  std::map<std::string, NodeState> nodes_;
  std::vector<HealthAlarm> alarms_;
  double now_ = 0.0;
  double peakLossPct_ = 0.0;
  std::string peakLossNode_;
  std::uint64_t undecodable_ = 0;
  TraceRecorder* recorder_ = nullptr;  // not owned
  std::string recorderDumpPath_;
  std::uint16_t recorderLane_ = 0;
  std::uint64_t flightDumps_ = 0;
  double lastFlightDumpSec_ = 0.0;
  TelemetryArchive* archive_ = nullptr;  // not owned
};

}  // namespace cod::telemetry
