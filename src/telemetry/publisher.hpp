// TelemetryPublisher — a Logical Process that exports its computer's
// health over the Communication Backbone itself.
//
// Dogfooding is the point: the snapshot is an ordinary attribute update on
// a reserved object class (cod.telemetry), discovered and routed like any
// other publication, and staged through the same per-peer send coalescer —
// so at the default 1 Hz cadence telemetry adds at most one datagram per
// subscribed peer per interval, and usually zero extra datagrams because
// the record rides a kBatch container that was leaving anyway.
//
// Every snapshot is a self-contained keyframe (node_telemetry.hpp). The
// channel is best effort by design: a lost snapshot is superseded by the
// next one, and retransmitting last second's counters would only add
// traffic exactly when the network is already in trouble.
#pragma once

#include <cstdint>
#include <optional>

#include "core/cb.hpp"
#include "telemetry/registry.hpp"

namespace cod::telemetry {

/// Knobs of one node's telemetry export. Embedded by application configs
/// (e.g. CraneSimulatorApp::Config::telemetry).
struct TelemetryConfig {
  /// Snapshot cadence. ~1 Hz is plenty for a human-watched health table
  /// and keeps the overhead unmeasurable next to 16 fps state traffic.
  double intervalSec = 1.0;
};

class TelemetryPublisher : public core::LogicalProcess {
 public:
  explicit TelemetryPublisher(TelemetryConfig cfg = {});

  /// Attach to the node's CB and publish the reserved class.
  void bind(core::CommunicationBackbone& cb);

  void step(double now) override;

  /// Force one snapshot out now regardless of cadence (exam start/stop
  /// markers, tests).
  void publishNow(double now);

  /// Teardown snapshot: publishNow, then flush it. Call right before the
  /// node stops ticking (shutdown, BYE): there may be no next tick to
  /// flush the coalescer.
  void publishFinal(double now);

  std::uint64_t snapshotsPublished() const { return published_; }
  const TelemetryConfig& config() const { return cfg_; }

 private:
  TelemetryConfig cfg_;
  core::CommunicationBackbone* cb_ = nullptr;
  std::optional<StatRegistry> registry_;
  core::PublicationHandle pub_ = core::kInvalidHandle;
  double lastPublishSec_ = -1e300;
  std::uint64_t published_ = 0;
};

}  // namespace cod::telemetry
