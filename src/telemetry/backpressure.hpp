// BackpressureGovernor — closes the telemetry loop into flow control.
//
// The telemetry subsystem already tells every node how its peers are
// doing: each node publishes its counters on cod.telemetry, and a
// HealthMonitor raises edge-triggered alarms when a node degrades
// (MAILBOX_OVERFLOW: it is dropping reflections on a full mailbox;
// RETX_STORM: its reliable channels are churning re-sends; LATENCY_SPIKE:
// its interval delivery p99 blew the threshold). Until now those alarms
// only informed humans. The governor is the actuator: a Logical Process
// that tails the monitor's alarm feed and, for each struggling peer,
// thins this node's best-effort update rate toward it
// (CommunicationBackbone::setPeerSendFactor) — publishing less AT a node
// that cannot keep up, instead of burying it deeper.
//
// Only best-effort (newest-wins) channels are thinned: skipping one of
// those updates is exactly the QoS contract (the next update supersedes
// it), while what a slow peer costs a reliable stream is bounded by the
// byte-budgeted send window and the per-channel window split instead
// (net/reliable.hpp).
//
// The response is stepped with hysteresis, mirroring the alarm feed's
// edge-triggering:
//   * each onset alarm multiplies the peer's send factor by `thinStep`,
//     floored at `minSendFactor` (never silence a peer entirely — its
//     recovery is detected through the same telemetry stream);
//   * recovery starts only after every trigger kind has raised its
//     paired CLEARED alarm AND `recoverHoldSec` has passed since the
//     last clear (a peer that flaps between overflow and clear must not
//     be re-flooded on every clear edge);
//   * recovery is also stepped: the factor multiplies by `recoverStep`
//     every `recoverIntervalSec` until it reaches 1.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/cb.hpp"
#include "telemetry/monitor.hpp"

namespace cod::telemetry {

/// Tunables of the alarm→send-rate control loop.
struct BackpressureConfig {
  /// Floor of the per-peer send factor: thinning never goes below this,
  /// so a struggling peer keeps receiving (thinned) state and its
  /// recovery stays observable.
  double minSendFactor = 0.25;
  /// Multiplier applied to the peer's factor on each trigger-alarm
  /// onset (MAILBOX_OVERFLOW / RETX_STORM / LATENCY_SPIKE).
  double thinStep = 0.5;
  /// Hysteresis: recovery begins only this long after the last trigger
  /// kind cleared. Guards against re-flooding a flapping peer.
  double recoverHoldSec = 2.0;
  /// Stepped recovery: factor multiplier per recovery step, and the
  /// spacing between steps.
  double recoverStep = 2.0;
  double recoverIntervalSec = 0.5;
};

class BackpressureGovernor : public core::LogicalProcess {
 public:
  explicit BackpressureGovernor(HealthMonitor& monitor,
                                BackpressureConfig cfg = {});

  /// Attach to the node's CB (the one whose send rates this governor
  /// actuates). The monitor may be bound to the same CB or another one
  /// on this node.
  void bind(core::CommunicationBackbone& cb);

  void step(double now) override;

  /// Control-loop state for one remote peer, keyed by node name.
  struct PeerState {
    double factor = 1.0;  // current best-effort send factor
    /// Which trigger kinds are currently raised (onset seen, CLEARED
    /// not yet). Recovery requires all three false.
    bool overflow = false;
    bool retxStorm = false;
    bool latency = false;
    double clearedAtSec = 0.0;  // when the last trigger kind cleared
    double lastStepSec = 0.0;   // last thin/recover application
    bool anyActive() const { return overflow || retxStorm || latency; }
  };

  /// State for `node`, or null if no alarm ever targeted it.
  const PeerState* peer(const std::string& node) const;
  /// Thinning steps applied / recovery steps applied (test + soak hooks).
  std::uint64_t thinSteps() const { return thinSteps_; }
  std::uint64_t recoverSteps() const { return recoverSteps_; }

 private:
  /// Push `st.factor` into the CB for `node`'s endpoint (no-op until
  /// the monitor has a snapshot to resolve the address from).
  void apply(const std::string& node, PeerState& st);

  HealthMonitor* mon_;
  BackpressureConfig cfg_;
  core::CommunicationBackbone* cb_ = nullptr;
  std::size_t alarmCursor_ = 0;  // drained prefix of mon_->alarms()
  std::map<std::string, PeerState> peers_;
  std::uint64_t thinSteps_ = 0;
  std::uint64_t recoverSteps_ = 0;
};

}  // namespace cod::telemetry
