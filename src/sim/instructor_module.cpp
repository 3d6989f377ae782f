#include "sim/instructor_module.hpp"

#include <cstdio>

#include "scenario/exam.hpp"

namespace cod::sim {

namespace {

std::string formatLine(const char* label, double value, const char* unit) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "| %-22s %9.2f %-5s |\n", label, value,
                unit);
  return buf;
}

}  // namespace

std::string StatusWindow::renderText() const {
  std::string out;
  out += "+--------- STATUS WINDOW ---------------+\n";
  out += formatLine("SWING ANGLE", swingAngleDeg, "deg");
  out += formatLine("BOOM RAISE", boomRaiseDeg, "deg");
  out += formatLine("CABLE LENGTH", cableLengthM, "m");
  out += formatLine("BOOM ELONGATION", boomElongationM, "m");
  out += formatLine("SCORE", score, "pts");
  out += formatLine("ELAPSED", elapsedSec, "s");
  char buf[80];
  std::snprintf(buf, sizeof(buf), "| PHASE: %-30s |\n", phase.c_str());
  out += buf;
  out += "| ALARMS:";
  bool anyLamp = false;
  for (std::size_t i = 0; i < crane::kAlarmCount; ++i) {
    const crane::Alarm a = static_cast<crane::Alarm>(i);
    if (alarms.active(a)) {
      out += " [";
      out += crane::alarmName(a);
      out += "]";
      anyLamp = true;
    }
  }
  if (!anyLamp) out += " (none)";
  out += "\n";
  if (!lastDeduction.empty()) {
    std::snprintf(buf, sizeof(buf), "| LAST DEDUCTION: %-21s |\n",
                  lastDeduction.c_str());
    out += buf;
  }
  out += "+---------------------------------------+\n";
  return out;
}

std::string DashboardWindow::renderText() const {
  std::string out;
  out += "+-------- DASHBOARD WINDOW -------------+\n";
  char buf[96];
  for (std::size_t i = 0; i < crane::kMeterCount; ++i) {
    const crane::Meter m = static_cast<crane::Meter>(i);
    const char* faultTag =
        injectedFaults[i] == crane::MeterFault::kStuck  ? " (STUCK)"
        : injectedFaults[i] == crane::MeterFault::kDead ? " (DEAD)"
                                                        : "";
    std::snprintf(buf, sizeof(buf), "| %-14s %9.2f%-8s          |\n",
                  crane::meterName(m), meters[i], faultTag);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "| wheel %+5.2f  throttle %4.2f  brake %4.2f  |\n",
                controls.steering, controls.throttle, controls.brake);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "| joy1 (%+4.2f,%+4.2f)  joy2 (%+4.2f,%+4.2f)   |\n",
                controls.joystickSlew, controls.joystickLuff,
                controls.joystickTelescope, controls.joystickHoist);
  out += buf;
  out += "+---------------------------------------+\n";
  return out;
}

InstructorModule::InstructorModule() : core::LogicalProcess("instructor") {}

std::string InstructorModule::renderClusterText() const {
  if (clusterMonitor_ == nullptr)
    return "+------ CLUSTER HEALTH (no monitor) ------+\n";
  return clusterMonitor_->renderTable() + clusterMonitor_->renderAlarms();
}

void InstructorModule::bind(core::CommunicationBackbone& cb) {
  cb_ = &cb;
  cb.attach(*this);
  // Fault injections and the exam score must never drop; the 16 fps crane
  // state and control echoes stay newest-wins (a lost frame is superseded
  // anyway).
  commandPub_ = cb.publishObjectClass(*this, kClassInstructorCommands,
                                      net::QosClass::kReliableOrdered);
  stateSub_ = cb.subscribeObjectClass(*this, kClassCraneState);
  statusSub_ = cb.subscribeObjectClass(*this, kClassScenarioStatus,
                                       net::QosClass::kReliableOrdered);
  controlsSub_ = cb.subscribeObjectClass(*this, kClassCraneControls);
}

void InstructorModule::reflectAttributeValues(const std::string& className,
                                              const core::AttributeSet& attrs,
                                              double timestamp) {
  now_ = std::max(now_, timestamp);
  if (className == kClassCraneState) {
    const CraneStateMsg m = decodeCraneState(attrs);
    ++stateUpdates_;
    status_.swingAngleDeg = math::rad2deg(m.state.slewAngleRad);
    status_.boomRaiseDeg = math::rad2deg(m.state.boomPitchRad);
    status_.cableLengthM = m.state.cableLengthM;
    status_.boomElongationM = m.state.boomLengthM;
    status_.alarms = crane::AlarmSet::fromBits(m.alarmBits);
    // The dashboard window mirrors the panel: recompute the meter values
    // the same way the dashboard module does, then overlay the faults this
    // instructor has injected (it knows what it clicked).
    dashWindow_.meters[static_cast<std::size_t>(crane::Meter::kEngineRpm)] =
        m.state.engineRpm;
    dashWindow_.meters[static_cast<std::size_t>(crane::Meter::kSpeed)] =
        std::abs(m.state.carrierSpeedMps) * 3.6;
    dashWindow_.meters[static_cast<std::size_t>(
        crane::Meter::kLoadMomentPct)] = m.momentUtilisation * 100.0;
    dashWindow_.meters[static_cast<std::size_t>(crane::Meter::kCableLength)] =
        m.state.cableLengthM;
  } else if (className == kClassScenarioStatus) {
    const ScenarioStatusMsg m = decodeScenarioStatus(attrs);
    ++statusUpdates_;
    // The score channel is reliable-ordered: the revision counter must
    // never step backwards. A regression here means the transport QoS was
    // violated (or misconfigured), which the status window should expose.
    if (m.revision < lastRevision_) ++revisionRegressions_;
    lastRevision_ = m.revision;
    deductionsSeen_ = std::max(deductionsSeen_, m.deductionCount);
    status_.score = m.score;
    status_.elapsedSec = m.elapsedSec;
    status_.phase =
        scenario::phaseName(static_cast<scenario::ExamPhase>(m.phase));
    status_.lastDeduction = m.lastDeduction;
  } else if (className == kClassCraneControls) {
    dashWindow_.controls = decodeControls(attrs);
  }
}

void InstructorModule::injectFault(crane::Meter meter,
                                   crane::MeterFault fault) {
  dashWindow_.injectedFaults[static_cast<std::size_t>(meter)] = fault;
  if (cb_ == nullptr) return;
  InstructorCommandMsg cmd{"injectFault", static_cast<std::int64_t>(meter),
                           static_cast<std::int64_t>(fault)};
  cb_->updateAttributeValues(commandPub_, encodeInstructorCommand(cmd), now_);
}

void InstructorModule::refuel() {
  if (cb_ == nullptr) return;
  InstructorCommandMsg cmd{"refuel", 0, 0};
  cb_->updateAttributeValues(commandPub_, encodeInstructorCommand(cmd), now_);
}

}  // namespace cod::sim
