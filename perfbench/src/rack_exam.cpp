// rack_exam: the whole 8-computer rack (CraneSimulatorApp, default config:
// standard course, 3 displays, 3235 polygons, telemetry and monitors on,
// sync server) runs the careful-profile licensure exam on SimNetwork in
// virtual time, stepped in 1/16 s frames — one surround-view frame period
// across all computers — until the exam finishes (~145 virtual s).
//
// Why: the sim modules do almost all the work and no socket is touched,
// so render, physics and telemetry changes show here while socket and CB
// fast-path changes should not.
//
// The exam repeats until --seconds is used up (at least twice per mode, so
// the deterministic outcome is compared exam against exam). Everything
// timed up to the end of the exam is the default rack's own traffic. Only
// after the exam does a probe stream, dynamics computer to each display
// computer, measure in host time how long an update takes to cross the
// simulated LAN (deliver_ms); it is wired and run on the finished rack.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator_app.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cod::core::AttributeSet;
using cod::core::CommunicationBackbone;
using cod::sim::CraneSimulatorApp;
using cod::telemetry::TickPhase;

constexpr double kFrameSec = 1.0 / 16.0;
/// Virtual-time cap on one exam; the careful profile needs ~145 s.
constexpr double kMaxExamSec = 600.0;
constexpr double kWireTimeoutSec = 10.0;
/// Virtual seconds of the post-exam probe phase. The probe publishes on
/// every CB tick (5 ms), so one phase gives each display 2000 samples.
constexpr double kProbeSec = 10.0;
/// The careful profile's result on the default rack. Every seed must
/// reproduce it: the default LAN is lossless and jitter-free, so the seed
/// (the cluster's network RNG seed) must not move the exam.
constexpr double kExpectedScore = 88.0;
constexpr auto kExpectedPhase = cod::scenario::ExamPhase::kPassed;
constexpr const char* kProbeClass = "perfbench.probe";

/// Publishes one probe per step (CB tick) while publishing, stamped with
/// the host clock; lives on the dynamics computer next to the crane model.
class ProbePublisher final : public cod::core::LogicalProcess {
 public:
  explicit ProbePublisher(CommunicationBackbone& cb)
      : LogicalProcess("perfbench-probe-pub"), cb_(cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, kProbeClass);
  }
  void setPublishing(bool on) { publishing_ = on; }
  std::uint64_t published() const { return seq_; }

  void step(double now) override {
    if (!publishing_) return;
    AttributeSet a;
    a.set("seq", static_cast<std::int64_t>(++seq_));
    a.set("wall", wallSec());
    cb_.updateAttributeValues(pub_, a, now);
  }

 private:
  CommunicationBackbone& cb_;
  cod::core::PublicationHandle pub_ = cod::core::kInvalidHandle;
  bool publishing_ = false;
  std::uint64_t seq_ = 0;
};

/// Receives the probe on one display computer.
class ProbeSubscriber final : public cod::core::LogicalProcess {
 public:
  ProbeSubscriber(CommunicationBackbone& cb, Samples& latencyMs)
      : LogicalProcess("perfbench-probe-sub"), cb_(cb), latencyMs_(latencyMs) {
    cb.attach(*this);
    sub_ = cb.subscribeObjectClass(*this, kProbeClass);
  }
  bool connected() const { return cb_.connected(sub_); }
  std::uint64_t received() const { return received_; }

  void reflectAttributeValues(const std::string&, const AttributeSet& attrs,
                              double) override {
    const auto seq = static_cast<std::uint64_t>(attrs.getInt("seq"));
    if (seq <= lastSeq_) return;  // best effort: newest wins
    lastSeq_ = seq;
    ++received_;
    latencyMs_.add((wallSec() - attrs.getDouble("wall")) * 1e3);
  }

 private:
  CommunicationBackbone& cb_;
  cod::core::SubscriptionHandle sub_ = cod::core::kInvalidHandle;
  Samples& latencyMs_;
  std::uint64_t lastSeq_ = 0;
  std::uint64_t received_ = 0;
};

/// The deterministic part of one exam, compared exam against exam.
struct Outcome {
  bool wired = false;
  bool finished = false;
  double score = 0.0;
  cod::scenario::ExamPhase phase = cod::scenario::ExamPhase::kDriveToSite;
  std::vector<std::uint64_t> framesPerDisplay;
  /// CB frames put on the LAN. Datagram counts are not compared: the
  /// telemetry records carry wall-clock histograms, so their sizes, and
  /// where the coalescer's byte budget splits containers, vary by a few
  /// datagrams from exam to exam.
  std::uint64_t framesSent = 0;
  bool operator==(const Outcome&) const = default;
};

/// Sim-layer row a computer's stage time is charged to: the stage phase
/// runs the computer's LPs (reflections plus module steps), and each
/// computer hosts a fixed set of modules.
const char* simRowOf(const std::string& cbName) {
  if (cbName.rfind("display-", 0) == 0) return "sim.display_ms";
  if (cbName == "dynamics") return "sim.dynamics_ms";  // + scenario, monitor
  if (cbName == "instructor") return "sim.instructor_ms";  // + audio, monitor
  if (cbName == "motion-platform") return "sim.platform_ms";
  if (cbName == "dashboard") return "sim.dashboard_ms";
  if (cbName == "sync-server") return "sim.sync_ms";
  return nullptr;
}

/// Driver stopwatches over a traced exam's frames.
struct FrameClocks {
  double simnetSec = 0.0;  // SimNetwork::advance
  double tickSec = 0.0;    // CommunicationBackbone::tick, all CBs
};

/// Advance the rack by one frame. Untraced exams use the public
/// CraneSimulatorApp::step. Traced exams run CodCluster::step's own loop
/// (advance the simulated LAN one tick interval, then tick every CB) so
/// that the driver times the LAN and the ticks itself, independently of
/// the CBs' phase profiler.
void stepFrame(CraneSimulatorApp& app, double tickIntervalSec,
               FrameClocks* clocks) {
  if (clocks == nullptr) {
    app.step(kFrameSec);
    return;
  }
  auto& cluster = app.cluster();
  auto& net = cluster.network();
  const double target = net.now() + kFrameSec;
  while (net.now() < target) {
    const double slice = std::min(tickIntervalSec, target - net.now());
    double t = wallSec();
    net.advance(slice);
    const double afterNet = wallSec();
    clocks->simnetSec += afterNet - t;
    t = afterNet;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      cluster.cb(i).tick(net.now());
      const double afterTick = wallSec();
      clocks->tickSec += afterTick - t;
      t = afterTick;
    }
  }
}

/// Everything one mode (untraced or traced) accumulates over its exams.
struct ModeTotals {
  int exams = 0;
  Samples setupSec;
  Samples rtf;  // one per exam, for the notes
  // Every exam does the same work frame by frame (the outcome gate checks
  // it), so each frame's wall time, summed CB tick time and probe latency
  // is its fastest over the run's exams (see foldMin).
  std::vector<double> bestFrameMs, bestTickMs, bestDeliverMs;
  double examVirtSec = 0.0;
  std::uint64_t examReflections = 0;
  std::size_t frameSamples = 0, deliverSamples = 0;
  double examWallSec = 0.0;
  std::uint64_t frames = 0;
  std::map<std::string, double> simSec;  // stage time by sim row
  FrameClocks clocks;                    // traced exams only
  LayerTotals layer;
  std::optional<Outcome> reference;
};

/// The post-exam probe phase: wire the probe, publish it for kProbeSec
/// virtual seconds, then one more frame to carry the last probes. Adds the
/// host-time latencies to `deliverMs` and the probes to attempted/failed.
void runProbe(CraneSimulatorApp& app, Samples& deliverMs, Result& r) {
  auto& cluster = app.cluster();
  std::unique_ptr<ProbePublisher> pub;
  std::vector<std::unique_ptr<ProbeSubscriber>> subs;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& cb = cluster.cb(i);
    if (cb.name() == "dynamics") pub = std::make_unique<ProbePublisher>(cb);
    if (cb.name().rfind("display-", 0) == 0)
      subs.push_back(std::make_unique<ProbeSubscriber>(cb, deliverMs));
  }
  const bool wired = cluster.runUntil(
      [&] {
        for (const auto& s : subs)
          if (!s->connected()) return false;
        return true;
      },
      cluster.now() + kWireTimeoutSec);
  if (!wired) {
    ++r.attempted;
    ++r.failed;
    r.fail("probe channels did not wire after the exam");
    return;
  }
  pub->setPublishing(true);
  const double end = app.now() + kProbeSec;
  while (app.now() < end) app.step(kFrameSec);
  pub->setPublishing(false);
  app.step(kFrameSec);
  for (const auto& s : subs) {
    r.attempted += pub->published();
    r.failed += pub->published() - s->received();
  }
}

/// One exam from construction to teardown, folded into `m`.
void runOneExam(const RunArgs& args, bool traced, ModeTotals& m, Result& r) {
  CraneSimulatorApp::Config cfg;
  cfg.cluster.seed = args.seed;
  cfg.cluster.cb.phaseProfile = traced;

  const double t0 = wallSec();
  CraneSimulatorApp app(cfg);
  auto& cluster = app.cluster();
  std::vector<const CommunicationBackbone*> cbs;
  for (std::size_t i = 0; i < cluster.size(); ++i) cbs.push_back(&cluster.cb(i));
  Outcome out;
  out.wired = app.waitUntilWired(kWireTimeoutSec);
  const double setup = wallSec() - t0;

  // Summed tickDurationSec of all CBs so far.
  const auto tickSumSec = [&] {
    double s = 0.0;
    for (const CommunicationBackbone* cb : cbs)
      s += cb->histograms().tickDurationSec.snapshot().sum;
    return s;
  };
  const CbCounters before = CbCounters::take(cbs);
  const double v0 = app.now();
  std::vector<double> frameMs, tickMs;
  FrameClocks clocks;
  double examWall = 0.0;
  double tick0 = tickSumSec();
  while (out.wired && !app.scenario().finished() &&
         app.now() - v0 < kMaxExamSec) {
    const double f0 = wallSec();
    stepFrame(app, cfg.cluster.tickIntervalSec, traced ? &clocks : nullptr);
    const double dt = wallSec() - f0;
    examWall += dt;
    frameMs.push_back(dt * 1e3);
    const double tick1 = tickSumSec();
    tickMs.push_back((tick1 - tick0) * 1e3);
    tick0 = tick1;
  }
  const CbCounters after = CbCounters::take(cbs);
  const double virt = app.now() - v0;
  const std::uint64_t frames = frameMs.size();

  const auto& sheet = app.scenario().exam().score();
  out.finished = sheet.finished();
  out.score = sheet.total;
  out.phase = sheet.phase;
  for (int d = 0; d < app.displayCount(); ++d)
    out.framesPerDisplay.push_back(app.display(d).framesRendered());
  out.framesSent = after.framesSent;

  ++m.exams;
  ++r.attempted;
  bool ok = out.wired && out.finished && out.score == kExpectedScore &&
            out.phase == kExpectedPhase;
  if (!ok)
    r.fail("exam " + std::to_string(m.exams) + (traced ? " (traced)" : "") +
           " did not finish with the expected result: wired=" +
           std::to_string(out.wired) + " score=" + std::to_string(out.score) +
           " phase=" + cod::scenario::phaseName(out.phase));
  if (!m.reference) {
    m.reference = out;
  } else if (!(out == *m.reference)) {
    ok = false;
    r.fail(std::string("exam outcome diverged from the first ") +
           (traced ? "traced" : "untraced") +
           " exam of this run (score, frames per display or frames sent)");
  }
  if (!ok) ++r.failed;

  char line[320];
  std::snprintf(line, sizeof line,
                "exam %d%s: setup %.4f s, %.2f virtual s in %.4f wall s "
                "(rtf %.2f), %llu frames, score %.0f %s, frames/display "
                "%llu/%llu/%llu, frames sent %llu, packets %llu",
                m.exams, traced ? " traced" : "", setup, virt, examWall,
                examWall > 0 ? virt / examWall : 0.0,
                static_cast<unsigned long long>(frames), out.score,
                cod::scenario::phaseName(out.phase),
                static_cast<unsigned long long>(out.framesPerDisplay.at(0)),
                static_cast<unsigned long long>(out.framesPerDisplay.at(1)),
                static_cast<unsigned long long>(out.framesPerDisplay.at(2)),
                static_cast<unsigned long long>(out.framesSent),
                static_cast<unsigned long long>(after.packets));
  r.notes.emplace_back(line);
  if (frames == 0) return;

  Samples deliverMs;
  if (!traced) runProbe(app, deliverMs, r);

  m.setupSec.add(setup);
  m.rtf.add(virt / examWall);
  foldMin(m.bestFrameMs, frameMs);
  foldMin(m.bestTickMs, tickMs);
  if (deliverMs.count() > 0) foldMin(m.bestDeliverMs, deliverMs.values());
  m.examVirtSec = virt;
  m.examReflections = after.delivered - before.delivered;
  m.frameSamples += frames;
  m.deliverSamples += deliverMs.count();
  m.examWallSec += examWall;
  m.frames += frames;
  m.clocks.simnetSec += clocks.simnetSec;
  m.clocks.tickSec += clocks.tickSec;
  m.layer.setupDatagrams.add(static_cast<double>(before.packets));
  m.layer.add(before, after);
  constexpr auto kStage = static_cast<std::size_t>(TickPhase::kStage);
  for (std::size_t i = 0; i < cbs.size(); ++i)
    if (const char* row = simRowOf(cbs[i]->name()))
      m.simSec[row] += cod::telemetry::LogHistogram::diff(
                           after.phases[i][kStage], before.phases[i][kStage])
                           .sum;
}

void reportEndToEnd(const ModeTotals& m, Result& r) {
  // Timings from the per-frame (per-probe) fastest series; setup_s is the
  // median over exams.
  const Samples frames(m.bestFrameMs), deliver(m.bestDeliverMs);
  r.set("setup_s", m.setupSec.median());
  r.set("rack_rtf", m.examVirtSec / (sumOf(m.bestFrameMs) * 1e-3));
  r.set("frame_ms_p50", frames.quantile(0.50));
  r.set("frame_ms_p99", frames.quantile(0.99));
  r.set("deliver_ms_p50", deliver.quantile(0.50));
  r.set("deliver_ms_p99", deliver.quantile(0.99));
  r.set("cpu_us_per_update", sumOf(m.bestTickMs) * 1e3 /
                                 static_cast<double>(m.examReflections));
  char line[240];
  std::snprintf(line, sizeof line,
                "samples: %d exams, %zu frames, %zu probe deliveries, %zu "
                "setups, %llu reflections; rtf over exams min %.2f median "
                "%.2f max %.2f",
                m.exams, m.frameSamples, m.deliverSamples, m.setupSec.count(),
                static_cast<unsigned long long>(m.layer.delivered),
                m.rtf.quantile(0.0), m.rtf.median(), m.rtf.quantile(1.0));
  r.notes.emplace_back(line);
}

void reportPerLayer(const ModeTotals& t, const ModeTotals& u, Result& r) {
  const double frames = static_cast<double>(t.frames);
  const auto perFrameMs = [&](double sec) { return sec * 1e3 / frames; };
  setCoreAndNet(t.layer, r);
  r.set("net.loss_injected_pct",
        100.0 * static_cast<double>(t.layer.dropped) /
            static_cast<double>(t.layer.packets + t.layer.dropped));
  for (const auto& [row, sec] : t.simSec) r.set(row, perFrameMs(sec));
  r.set("simnet.ms", perFrameMs(t.clocks.simnetSec));
  r.set("driver.late_ms_p99", 0.0);  // closed loop in virtual time
  const double tracedMs = sumOf(t.bestFrameMs);
  const double untracedMs = sumOf(u.bestFrameMs);
  r.set("trace.overhead_pct", 100.0 * (tracedMs - untracedMs) / untracedMs);

  // Layer-sum table, per frame: the CB phases (stage itemised by
  // computer) plus the simulated LAN against the frame's wall time.
  const auto ms = [&](TickPhase p) { return perFrameMs(t.layer.phaseSecOf(p)); };
  r.layerUnit = "frame";
  r.layerWallMs = perFrameMs(t.examWallSec);
  r.layerTickMs = perFrameMs(t.clocks.tickSec);
  r.layerTicks = static_cast<double>(t.layer.tickCount) / frames;
  r.layers = {{"core.poll", ms(TickPhase::kPollDecode)},
              {"core.route", ms(TickPhase::kRoute)},
              {"core.timer", ms(TickPhase::kTimers)}};
  for (const auto& [row, sec] : t.simSec)
    r.layers.push_back({"core.stage/" + row, perFrameMs(sec)});
  r.layers.push_back({"core.flush", ms(TickPhase::kFlush)});
  for (const LayerRow& row : r.layers) r.layerPhaseMs += row.ms;
  r.layers.push_back({"simnet", perFrameMs(t.clocks.simnetSec)});
}

}  // namespace

Result runRackExam(const RunArgs& args) {
  Result r;
  ModeTotals untraced, traced;
  const double deadline = wallSec() + args.seconds;
  double lastExam = 0.0;
  // Untraced runs: every exam untraced. Traced runs alternate untraced
  // and traced exams so trace.overhead_pct compares like with like.
  constexpr int kMinExams = 2;
  for (int i = 0;; ++i) {
    const bool doTraced = args.trace && i % 2 == 1;
    ModeTotals& m = doTraced ? traced : untraced;
    const int done = std::min(untraced.exams, args.trace ? traced.exams
                                                         : untraced.exams);
    if (done >= kMinExams && wallSec() + lastExam > deadline) break;
    const double e0 = wallSec();
    runOneExam(args, doTraced, m, r);
    lastExam = wallSec() - e0;
    if (m.frames == 0) break;  // wiring failed; already counted
  }
  if (untraced.frames == 0 || (args.trace && traced.frames == 0)) {
    r.fail("no exam ran to completion");
    return r;
  }
  reportEndToEnd(untraced, r);
  if (args.trace) reportPerLayer(traced, untraced, r);
  return r;
}

}  // namespace perfbench
