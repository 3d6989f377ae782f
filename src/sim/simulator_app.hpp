// CraneSimulatorApp — the whole rack of Figure 11 in one object.
//
// Eight simulated computers on the COD, exactly as the paper deploys them:
//   computers 1-3 : visual display channels (left / centre / right)
//   computer  4   : synchronization server
//   computer  5   : dashboard module (+ scripted trainee)
//   computer  6   : motion platform controller
//   computer  7   : dynamics module + scenario module (two LPs, one box)
//   computer  8   : instructor monitor + audio module (two LPs, one box)
#pragma once

#include <memory>

#include "core/cluster.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/publisher.hpp"
#include "sim/audio_module.hpp"
#include "sim/dashboard_module.hpp"
#include "sim/display_module.hpp"
#include "sim/dynamics_module.hpp"
#include "sim/instructor_module.hpp"
#include "sim/platform_module.hpp"
#include "sim/scenario_module.hpp"

namespace cod::sim {

class CraneSimulatorApp {
 public:
  struct Config {
    scenario::Course course = scenario::standardLicensureCourse();
    scenario::OperatorProfile operatorProfile =
        scenario::OperatorProfile::careful();
    int displayCount = 3;
    int fbWidth = 96;   // small offscreen targets keep full-system runs fast
    int fbHeight = 72;
    double frameIntervalSec = 1.0 / 16.0;
    bool useSyncServer = true;
    std::size_t targetPolygons = 3235;
    /// Site wind and the cargo's frontal drag area (m^2) — a dense block
    /// barely feels wind; a sheet-like load weathervanes.
    physics::WindParams wind;
    double cargoDragAreaM2 = 1.2;
    core::CodCluster::Config cluster;
    /// Cluster-health export: every computer runs a TelemetryPublisher,
    /// the instructor station aggregates with a HealthMonitor (Cluster
    /// Health window), and the scenario computer runs a second monitor
    /// that annotates the exam debrief.
    telemetry::TelemetryConfig telemetry;
    telemetry::MonitorConfig telemetryMonitor;
  };

  CraneSimulatorApp();
  explicit CraneSimulatorApp(Config cfg);

  /// Wait (in virtual time) until every subscription found its publisher.
  bool waitUntilWired(double maxTimeSec = 10.0);

  /// Advance the whole simulator by dt seconds of virtual time.
  void step(double dt) { cluster_.step(dt); }

  /// Run until the exam finishes or `maxTime` virtual seconds elapse.
  /// Returns true if the exam finished.
  bool runExam(double maxTimeSec);

  /// Teardown telemetry: every computer flushes one final snapshot so any
  /// monitor's last view of the rack is the closing counters. Call before
  /// discarding the app (exam debrief, rack shutdown).
  void publishFinalTelemetry();

  double now() const { return cluster_.now(); }
  core::CodCluster& cluster() { return cluster_; }

  DynamicsModule& dynamics() { return *dynamics_; }
  ScenarioModule& scenario() { return *scenario_; }
  DashboardModule& dashboard() { return *dashboard_; }
  InstructorModule& instructor() { return *instructor_; }
  PlatformModule& platform() { return *platform_; }
  AudioModule& audio() { return *audio_; }
  VisualDisplayModule& display(int i) { return *displays_.at(i); }
  SyncServerModule& syncServer() { return *sync_; }
  int displayCount() const { return static_cast<int>(displays_.size()); }

  /// The instructor station's cluster-health aggregator.
  telemetry::HealthMonitor* clusterMonitor() { return instructorMonitor_.get(); }
  std::size_t telemetryPublisherCount() const { return telemetry_.size(); }

  const Config& config() const { return cfg_; }

 private:
  /// Start a telemetry publisher on `cb`.
  void addTelemetry(core::CommunicationBackbone& cb);

  Config cfg_;
  core::CodCluster cluster_;
  std::vector<std::unique_ptr<VisualDisplayModule>> displays_;
  std::unique_ptr<SyncServerModule> sync_;
  std::unique_ptr<DashboardModule> dashboard_;
  std::unique_ptr<PlatformModule> platform_;
  std::unique_ptr<DynamicsModule> dynamics_;
  std::unique_ptr<ScenarioModule> scenario_;
  std::unique_ptr<InstructorModule> instructor_;
  std::unique_ptr<AudioModule> audio_;
  std::vector<std::unique_ptr<telemetry::TelemetryPublisher>> telemetry_;
  std::unique_ptr<telemetry::HealthMonitor> instructorMonitor_;
  std::unique_ptr<telemetry::HealthMonitor> scenarioMonitor_;
};

}  // namespace cod::sim
