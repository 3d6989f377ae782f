// The instructor monitor (§3.3) as a Logical Process.
//
// Two windows: the Status window (Fig. 5) — swing angle, boom raise
// degrees, plumb-cable length, boom elongation, alarm lamps and the running
// exam score — and the Dashboard window (Fig. 6), a pictorial duplication
// of the mockup's panel. The instructor can click an indicator to inject a
// fault into the real dashboard (trouble-shooting training).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "core/cb.hpp"
#include "crane/dashboard.hpp"
#include "sim/object_classes.hpp"
#include "telemetry/monitor.hpp"

namespace cod::sim {

/// The data behind the Status window (Fig. 5).
struct StatusWindow {
  double swingAngleDeg = 0.0;     // current swinging angle of the boom
  double boomRaiseDeg = 0.0;      // raising degrees of the derrick boom
  double cableLengthM = 0.0;      // current length of the plumb cable
  double boomElongationM = 0.0;   // elongated length of the derrick boom
  crane::AlarmSet alarms;
  double score = 100.0;
  std::string phase = "DRIVE TO SITE";
  double elapsedSec = 0.0;
  std::string lastDeduction;

  /// ASCII rendering of the window (sub-windows + dialogue boxes + lamps).
  std::string renderText() const;
};

/// The Dashboard window (Fig. 6): the instructor's mirror of the panel.
struct DashboardWindow {
  std::array<double, crane::kMeterCount> meters{};
  std::array<crane::MeterFault, crane::kMeterCount> injectedFaults{};
  crane::CraneControls controls;  // echo of the trainee's inputs

  std::string renderText() const;
};

class InstructorModule : public core::LogicalProcess {
 public:
  InstructorModule();

  void bind(core::CommunicationBackbone& cb);

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet& attrs,
                              double timestamp) override;

  const StatusWindow& statusWindow() const { return status_; }
  const DashboardWindow& dashboardWindow() const { return dashWindow_; }

  /// Wire the station's third window to a telemetry HealthMonitor (an LP
  /// on the instructor's computer). The monitor must outlive this module.
  void attachClusterMonitor(const telemetry::HealthMonitor* monitor) {
    clusterMonitor_ = monitor;
  }
  const telemetry::HealthMonitor* clusterMonitor() const {
    return clusterMonitor_;
  }
  /// The Cluster Health window: live per-node health table plus the alarm
  /// feed. Empty-frame text when no monitor is attached.
  std::string renderClusterText() const;

  /// "Click" an indicator on the dashboard window: inject a fault into the
  /// trainee's physical panel (via instructor.commands).
  void injectFault(crane::Meter meter, crane::MeterFault fault);
  void refuel();

  std::uint64_t stateUpdatesSeen() const { return stateUpdates_; }
  /// Score-stream accounting: the scenario.status subscription rides a
  /// reliable-ordered channel, so every published status must arrive and
  /// the revision counter can never regress.
  std::uint64_t statusUpdatesSeen() const { return statusUpdates_; }
  std::int64_t lastScoreRevision() const { return lastRevision_; }
  std::int64_t deductionsSeen() const { return deductionsSeen_; }
  std::uint64_t revisionRegressions() const { return revisionRegressions_; }

 private:
  StatusWindow status_;
  DashboardWindow dashWindow_;

  core::CommunicationBackbone* cb_ = nullptr;
  const telemetry::HealthMonitor* clusterMonitor_ = nullptr;
  core::PublicationHandle commandPub_ = core::kInvalidHandle;
  core::SubscriptionHandle stateSub_ = core::kInvalidHandle;
  core::SubscriptionHandle statusSub_ = core::kInvalidHandle;
  core::SubscriptionHandle controlsSub_ = core::kInvalidHandle;
  std::uint64_t stateUpdates_ = 0;
  std::uint64_t statusUpdates_ = 0;
  std::int64_t lastRevision_ = 0;
  std::int64_t deductionsSeen_ = 0;
  std::uint64_t revisionRegressions_ = 0;
  double now_ = 0.0;
};

}  // namespace cod::sim
