#include "sim/simulator_app.hpp"

namespace cod::sim {

CraneSimulatorApp::CraneSimulatorApp() : CraneSimulatorApp(Config{}) {}

void CraneSimulatorApp::addTelemetry(core::CommunicationBackbone& cb) {
  telemetry_.push_back(
      std::make_unique<telemetry::TelemetryPublisher>(cfg_.telemetry));
  telemetry_.back()->bind(cb);
}

CraneSimulatorApp::CraneSimulatorApp(Config cfg)
    : cfg_(std::move(cfg)), cluster_(cfg_.cluster) {
  // Computers 1..3: displays.
  for (int i = 0; i < cfg_.displayCount; ++i) {
    auto& cb = cluster_.addComputer("display-" + std::to_string(i));
    VisualDisplayModule::Config dc;
    dc.channel = i;
    dc.fbWidth = cfg_.fbWidth;
    dc.fbHeight = cfg_.fbHeight;
    dc.frameIntervalSec = cfg_.frameIntervalSec;
    dc.useSyncServer = cfg_.useSyncServer;
    dc.targetPolygons = cfg_.targetPolygons;
    displays_.push_back(
        std::make_unique<VisualDisplayModule>(cfg_.course, dc));
    displays_.back()->bind(cb);
    addTelemetry(cb);
  }
  // Computer 4: the synchronization server.
  {
    auto& cb = cluster_.addComputer("sync-server");
    sync_ = std::make_unique<SyncServerModule>(cfg_.displayCount);
    sync_->bind(cb);
    addTelemetry(cb);
  }
  // Computer 5: dashboard (with the scripted trainee in the seat).
  {
    auto& cb = cluster_.addComputer("dashboard");
    dashboard_ = std::make_unique<DashboardModule>(cfg_.course,
                                                   cfg_.operatorProfile);
    dashboard_->bind(cb);
    addTelemetry(cb);
  }
  // Computer 6: motion platform controller.
  {
    auto& cb = cluster_.addComputer("motion-platform");
    PlatformModule::Config pc;
    pc.frameIntervalSec = cfg_.frameIntervalSec;
    platform_ = std::make_unique<PlatformModule>(pc);
    platform_->bind(cb);
    addTelemetry(cb);
  }
  // Computer 7: dynamics + scenario (two LPs on one box, §2.1). A third
  // LP — a HealthMonitor — feeds cluster alarms and the run's peak loss
  // into the exam debrief.
  {
    auto& cb = cluster_.addComputer("dynamics");
    DynamicsModule::Config dc;
    dc.course = cfg_.course;
    dc.wind = cfg_.wind;
    dc.cargoDragAreaM2 = cfg_.cargoDragAreaM2;
    dynamics_ = std::make_unique<DynamicsModule>(dc);
    dynamics_->bind(cb);
    scenario_ = std::make_unique<ScenarioModule>(cfg_.course);
    scenario_->bind(cb);
    addTelemetry(cb);
    scenarioMonitor_ =
        std::make_unique<telemetry::HealthMonitor>(cfg_.telemetryMonitor);
    scenarioMonitor_->bind(cb);
    scenario_->attachClusterMonitor(scenarioMonitor_.get());
  }
  // Computer 8: instructor monitor + audio (two LPs on one box). The
  // station's HealthMonitor aggregates every node's export into the
  // Cluster Health window.
  {
    auto& cb = cluster_.addComputer("instructor");
    instructor_ = std::make_unique<InstructorModule>();
    instructor_->bind(cb);
    audio_ = std::make_unique<AudioModule>();
    audio_->bind(cb);
    addTelemetry(cb);
    instructorMonitor_ =
        std::make_unique<telemetry::HealthMonitor>(cfg_.telemetryMonitor);
    instructorMonitor_->bind(cb);
    instructor_->attachClusterMonitor(instructorMonitor_.get());
  }
}

bool CraneSimulatorApp::waitUntilWired(double maxTimeSec) {
  const double deadline = cluster_.now() + maxTimeSec;
  return cluster_.runUntil(
      [&] {
        // Every display has seen at least one crane.state and the dashboard
        // controls have reached the dynamics module.
        if (dynamics_->craneState().engineOn) return true;  // already live
        for (const auto& d : displays_)
          if (d->framesRendered() == 0) return false;
        return instructor_->stateUpdatesSeen() > 0 &&
               dashboard_->controlFramesSent() > 0;
      },
      deadline);
}

void CraneSimulatorApp::publishFinalTelemetry() {
  for (const auto& t : telemetry_) t->publishFinal(cluster_.now());
}

bool CraneSimulatorApp::runExam(double maxTimeSec) {
  const double deadline = cluster_.now() + maxTimeSec;
  while (cluster_.now() < deadline) {
    if (scenario_->finished()) return true;
    cluster_.step(0.1);
  }
  return scenario_->finished();
}

}  // namespace cod::sim
