// soak_node — one computer of the paper's rack as a real OS process.
//
// Runs one CraneSimulatorApp role (dynamics / scenario / display /
// instructor, selected by --role) on its own CommunicationBackbone over a
// real UdpTransport on loopback, wrapped in net::ImpairedTransport so the
// process lives on a genuinely lossy, reordering network. The extra role
// `mass` runs no sim module: it is the 1000-channel mass-connect
// exercise, publishing/subscribing a dense mass.c<k> class matrix
// (--mass-classes / --mass-nodes / --mass-index). Every node also runs:
//   * a TelemetryPublisher — its cod.telemetry feed, like every computer
//     of a production rack;
//   * (all but mass) a probe LP publishing a reliable soak.probe.<name>
//     stream (one monotonic sequence per process lifetime) and
//     subscribing to every peer's, recording exactly what arrived for the
//     driver's 100%-in-order verdict;
//   * (instructor, or any node given --monitor) a HealthMonitor
//     aggregating the cluster — the rig watches itself, with loss derived
//     from reliable-layer counters because real sockets cannot attribute
//     drops.
//
// The node ticks on the wall clock until --duration, stops publishing
// probes --quiesce seconds early (so retransmits can drain), then writes
// its report (soak_common.hpp grammar) and exits 0. The driver owns all
// pass/fail judgement; this binary only records.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <system_error>
#include <thread>
#include <vector>

#include "core/cb.hpp"
#include "net/impair.hpp"
#include "net/udp.hpp"
#include "scenario/course.hpp"
#include "sim/display_module.hpp"
#include "sim/dynamics_module.hpp"
#include "sim/instructor_module.hpp"
#include "sim/scenario_module.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/publisher.hpp"
#include "telemetry/registry.hpp"
#include "tools/soak/soak_common.hpp"

namespace {

using namespace cod;

using soak::Segment;
using soak::wallSec;

/// SIGUSR2 asks for a flight-recorder dump at the next loop iteration —
/// the only async-signal-safe thing a handler may do is set a flag.
volatile std::sig_atomic_t gTraceDumpRequested = 0;
void onSigUsr2(int) { gTraceDumpRequested = 1; }

struct PeerStream {
  std::vector<Segment> segments;
  std::uint64_t duplicates = 0;  // app-level dups (CB must dedup; expect 0)
  std::int64_t lastIncarnation = 0;
};

class ProbeLp final : public core::LogicalProcess {
 public:
  ProbeLp(std::string nodeName, double hz)
      : core::LogicalProcess("probe-" + nodeName),
        nodeName_(std::move(nodeName)),
        intervalSec_(hz > 0.0 ? 1.0 / hz : 0.0) {}

  void bind(core::CommunicationBackbone& cb,
            const std::vector<std::string>& peers) {
    cb_ = &cb;
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, soak::kProbeClassPrefix + nodeName_,
                                 net::QosClass::kReliableOrdered);
    for (const std::string& p : peers)
      cb.subscribeObjectClass(*this, soak::kProbeClassPrefix + p,
                              net::QosClass::kReliableOrdered);
  }

  void stopPublishing() { publishing_ = false; }
  std::uint64_t published() const { return published_; }
  const std::map<std::string, PeerStream>& streams() const { return streams_; }

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet& attrs,
                              double /*timestamp*/) override {
    if (className.rfind(soak::kProbeClassPrefix, 0) != 0) return;
    const std::string peer = className.substr(soak::kProbeClassPrefix.size());
    const core::AttributeValue* v = attrs.find("seq");
    if (v == nullptr) return;
    const std::uint64_t seq = static_cast<std::uint64_t>(v->asInt());
    // Incarnation token (the publisher's pid): a restarted process must
    // open a new segment even when its first delivered sequence happens
    // to run past the old segment's last — detecting restarts from a
    // backwards sequence alone would fold that case into the old segment
    // as phantom gaps.
    const core::AttributeValue* iv = attrs.find("inc");
    const std::int64_t inc = iv != nullptr ? iv->asInt() : 0;
    PeerStream& st = streams_[peer];
    const bool sameIncarnation =
        !st.segments.empty() && inc == st.lastIncarnation;
    if (sameIncarnation && seq == st.segments.back().last) {
      ++st.duplicates;
      return;
    }
    if (!sameIncarnation || seq < st.segments.back().last) {
      st.lastIncarnation = inc;
      st.segments.push_back(Segment{seq, seq, 1, 0});
      return;
    }
    Segment& seg = st.segments.back();
    seg.gaps += seq - seg.last - 1;  // 0 on the strict +1 path
    seg.last = seq;
    ++seg.count;
  }

  void step(double now) override {
    if (!publishing_ || intervalSec_ <= 0.0) return;
    if (now - lastPublish_ < intervalSec_) return;
    lastPublish_ = now;
    core::AttributeSet a;
    a.set("seq", static_cast<std::int64_t>(++published_));
    a.set("inc", static_cast<std::int64_t>(::getpid()));
    cb_->updateAttributeValues(pub_, a, now);
  }

 private:
  std::string nodeName_;
  double intervalSec_;
  core::CommunicationBackbone* cb_ = nullptr;
  core::PublicationHandle pub_ = core::kInvalidHandle;
  bool publishing_ = true;
  double lastPublish_ = -1e300;
  std::uint64_t published_ = 0;
  std::map<std::string, PeerStream> streams_;
};

/// The mass-connect exercise: one LP standing in for dozens of small
/// simulation objects. It subscribes to every mass.c<k> class of the rack
/// and publishes the slice this node owns — class k is published by nodes
/// k%N and (k+1)%N, two publishers per class — all reliable, so a C-class
/// N-node rack opens C*2*(N-1) network channels plus local fast-path
/// links. Per class it records reflections and the set of distinct source
/// nodes, for the every-channel-delivers verdict.
class MassLp final : public core::LogicalProcess {
 public:
  MassLp(std::uint32_t classes, std::uint32_t nodes, std::uint32_t index,
         double hz)
      : core::LogicalProcess("mass-" + std::to_string(index)),
        classes_(classes),
        nodes_(nodes),
        index_(index),
        intervalSec_(hz > 0.0 ? 1.0 / hz : 0.0) {}

  static std::string className(std::uint32_t k) {
    return soak::kMassClassPrefix + std::to_string(k);
  }
  /// The driver derives per-node channel expectations from this same
  /// assignment — keep the two in lockstep (soak_common.hpp documents it).
  bool publishes(std::uint32_t k) const {
    return k % nodes_ == index_ || (k + 1) % nodes_ == index_;
  }

  void bind(core::CommunicationBackbone& cb) {
    cb_ = &cb;
    cb.attach(*this);
    for (std::uint32_t k = 0; k < classes_; ++k) {
      cb.subscribeObjectClass(*this, className(k),
                              net::QosClass::kReliableOrdered);
      if (publishes(k))
        pubs_.push_back(cb.publishObjectClass(*this, className(k),
                                              net::QosClass::kReliableOrdered));
    }
  }

  void stopPublishing() { publishing_ = false; }

  struct ClassRecord {
    std::uint64_t reflections = 0;
    std::set<std::int64_t> sources;  // publisher node indices seen
  };
  const std::map<std::string, ClassRecord>& records() const { return records_; }

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet& attrs,
                              double /*timestamp*/) override {
    if (className.rfind(soak::kMassClassPrefix, 0) != 0) return;
    ClassRecord& rec = records_[className];
    ++rec.reflections;
    if (const core::AttributeValue* v = attrs.find("src"))
      rec.sources.insert(v->asInt());
  }

  void step(double now) override {
    if (!publishing_ || intervalSec_ <= 0.0) return;
    if (now - lastPublish_ < intervalSec_) return;
    lastPublish_ = now;
    core::AttributeSet a;
    a.set("seq", static_cast<std::int64_t>(++seq_));
    a.set("src", static_cast<std::int64_t>(index_));
    for (const core::PublicationHandle h : pubs_)
      cb_->updateAttributeValues(h, a, now);
  }

 private:
  std::uint32_t classes_, nodes_, index_;
  double intervalSec_;
  core::CommunicationBackbone* cb_ = nullptr;
  std::vector<core::PublicationHandle> pubs_;
  bool publishing_ = true;
  double lastPublish_ = -1e300;
  std::uint64_t seq_ = 0;
  std::map<std::string, ClassRecord> records_;
};

int run(int argc, char** argv) {
  const soak::Args args(
      argc, argv,
      {"ack-interval", "archive", "base-port", "bind-ip", "cb-port",
       "channel-timeout", "delay-ms", "display-channel", "dup", "duration",
       "host", "host-ips", "impair-rx", "jitter-ms", "loss", "mass-classes",
       "mass-hz", "mass-index", "mass-nodes", "max-hosts", "monitor", "name",
       "peers", "phase-profile", "ports-per-host", "probe-hz", "quiesce",
       "reorder", "report", "role", "seed", "silent-after",
       "telemetry-interval", "trace-dump", "trace-sample"});
  const std::string name = args.required("name");
  const std::string role = args.required("role");
  const std::string reportPath = args.required("report");
  const auto peers = soak::splitCsv(args.str("peers", ""));

  net::UdpConfig ucfg;
  ucfg.bindIp = args.str("bind-ip", "127.0.0.1");
  // --host-ips=ip0,ip1,... spreads the rack across several interfaces
  // (loopback aliases in CI); host h binds and is reached at the h-th
  // entry, past the end falls back to --bind-ip.
  ucfg.hostIps = soak::splitCsv(args.str("host-ips", ""));
  ucfg.basePort = static_cast<std::uint16_t>(
      std::stoul(args.required("base-port")));
  ucfg.portsPerHost = static_cast<std::uint16_t>(args.integer("ports-per-host", 4));
  ucfg.maxHosts = static_cast<std::uint16_t>(args.integer("max-hosts", 16));
  const auto host = static_cast<net::HostId>(args.integer("host", 0));
  const auto cbPort = static_cast<std::uint16_t>(args.integer("cb-port", 1));

  const double duration = args.num("duration", 60.0);
  const double quiesce = args.num("quiesce", 5.0);
  const double probeHz = args.num("probe-hz", 40.0);

  net::ImpairmentConfig icfg;
  icfg.lossPct = args.num("loss", 0.0);
  icfg.duplicatePct = args.num("dup", 0.0);
  icfg.reorderPct = args.num("reorder", 0.0);
  icfg.delayMinSec = args.num("delay-ms", 0.0) / 1000.0;
  icfg.delayMaxSec = icfg.delayMinSec + args.num("jitter-ms", 0.0) / 1000.0;
  icfg.seed = static_cast<std::uint64_t>(args.integer("seed", 1)) * 1000003u +
              host;
  // --impair-rx makes the impairment duplex (loss+delay on inbound
  // datagrams too) — the starved-node drill's whole-link-is-bad shape.
  icfg.impairReceive = args.has("impair-rx");

  // A restarted victim can find its just-vacated port transiently claimed
  // (a parallel lane's ephemeral probe can win the race while the port
  // sat unbound during the kill window); the plan is ours by contract, so
  // wait the squatter out instead of dying on EADDRINUSE.
  std::unique_ptr<net::UdpTransport> udp;
  const double bindDeadline = wallSec() + 10.0;
  for (;;) {
    try {
      udp = std::make_unique<net::UdpTransport>(ucfg, host, cbPort);
      break;
    } catch (const std::system_error& e) {
      if (e.code().value() != EADDRINUSE || wallSec() >= bindDeadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  std::printf("[%s] %s bound %s:%u (host %u) loss=%.1f%% dup=%.1f%% "
              "reorder=%.1f%% delay=%.1f-%.1fms\n",
              name.c_str(), role.c_str(), ucfg.bindIp.c_str(),
              udp->boundUdpPort(), host,
              icfg.lossPct, icfg.duplicatePct, icfg.reorderPct,
              icfg.delayMinSec * 1e3, icfg.delayMaxSec * 1e3);
  auto transport =
      std::make_unique<net::ImpairedTransport>(std::move(udp), icfg);

  core::CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.05;
  cbCfg.refreshIntervalSec = 0.5;
  cbCfg.channelTimeoutSec = args.num("channel-timeout", 3.0);
  // Frequent cumulative acks keep the tail-RTO path honest under loss:
  // spurious retransmits of already-delivered frames would bias the
  // reliable-layer loss estimate upward.
  cbCfg.reliable.ackIntervalSec = args.num("ack-interval", 0.05);
  // --phase-profile arms the tick-phase profiler: per-phase duration
  // histograms, shipped as the telemetry record's phase block (the
  // encoder only emits the block when this is on).
  cbCfg.phaseProfile = args.has("phase-profile");
  // Flight recorder + latency sampling: --trace-sample tags every Nth
  // reliable update, --trace-dump names the Chrome-trace JSON written at
  // exit, on SIGUSR2, and automatically when the monitor raises a CRIT
  // alarm. Neither flag given → no recorder, no sampling, zero overhead.
  const auto traceSample =
      static_cast<std::uint32_t>(args.integer("trace-sample", 0));
  const std::string traceDump = args.str("trace-dump", "");
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  if (traceSample > 0 || !traceDump.empty()) {
    recorder = std::make_unique<telemetry::TraceRecorder>(1 << 15);
    cbCfg.trace = recorder.get();
    cbCfg.traceSampleEvery = traceSample;
    std::signal(SIGUSR2, onSigUsr2);
  }
  core::CommunicationBackbone cb(name, std::move(transport), cbCfg);

  // The role module (the real thing, not a mock — the soak rig must push
  // the same update streams the rack does).
  const scenario::Course course = scenario::standardLicensureCourse();
  std::unique_ptr<sim::DynamicsModule> dynamics;
  std::unique_ptr<sim::ScenarioModule> scenarioLp;
  std::unique_ptr<sim::VisualDisplayModule> display;
  std::unique_ptr<sim::InstructorModule> instructor;
  std::unique_ptr<telemetry::HealthMonitor> monitor;
  std::unique_ptr<MassLp> mass;
  if (role == "mass") {
    mass = std::make_unique<MassLp>(
        static_cast<std::uint32_t>(args.integer("mass-classes", 56)),
        static_cast<std::uint32_t>(args.integer("mass-nodes", 1)),
        static_cast<std::uint32_t>(args.integer("mass-index", 0)),
        args.num("mass-hz", 2.0));
    mass->bind(cb);
  } else if (role == "dynamics") {
    sim::DynamicsModule::Config dc;
    dc.course = course;
    dynamics = std::make_unique<sim::DynamicsModule>(dc);
    dynamics->bind(cb);
  } else if (role == "scenario") {
    scenarioLp = std::make_unique<sim::ScenarioModule>(course);
    scenarioLp->bind(cb);
  } else if (role == "display") {
    sim::VisualDisplayModule::Config dc;
    dc.channel = static_cast<int>(args.integer("display-channel", 0));
    dc.fbWidth = 64;
    dc.fbHeight = 48;
    dc.useSyncServer = false;  // no sync-server node in the soak rack
    display = std::make_unique<sim::VisualDisplayModule>(course, dc);
    display->bind(cb);
  } else if (role == "instructor") {
    instructor = std::make_unique<sim::InstructorModule>();
    instructor->bind(cb);
    telemetry::MonitorConfig mc;
    mc.expectedIntervalSec = args.num("telemetry-interval", 1.0);
    mc.silentAfterIntervals = args.num("silent-after", 3.0);
    monitor = std::make_unique<telemetry::HealthMonitor>(mc);
    monitor->bind(cb);
    instructor->attachClusterMonitor(monitor.get());
  } else {
    std::fprintf(stderr, "unknown --role=%s\n", role.c_str());
    return 2;
  }
  // Any node can host the cluster monitor (--monitor); the instructor
  // role always does. In the mass-connect rack mass-0 takes the duty.
  if (monitor == nullptr && args.has("monitor")) {
    telemetry::MonitorConfig mc;
    mc.expectedIntervalSec = args.num("telemetry-interval", 1.0);
    mc.silentAfterIntervals = args.num("silent-after", 3.0);
    monitor = std::make_unique<telemetry::HealthMonitor>(mc);
    monitor->bind(cb);
  }
  // A CRIT alarm freezes the preceding seconds of hot-path history to
  // disk the moment they matter, not at exit when the ring has moved on.
  if (monitor && recorder)
    monitor->attachFlightRecorder(recorder.get(), traceDump);
  // --archive=<path> makes this node's monitor the cluster's black box:
  // every applied snapshot, alarm edge, liveness ping, and dump marker
  // goes to an append-only CRC-framed log cod_inspect can replay.
  std::unique_ptr<telemetry::TelemetryArchive> archive;
  const std::string archivePath = args.str("archive", "");
  if (monitor && !archivePath.empty()) {
    telemetry::TelemetryArchive::Config acfg;
    acfg.path = archivePath;
    archive = std::make_unique<telemetry::TelemetryArchive>(acfg);
    if (archive->ok()) {
      monitor->attachArchive(archive.get());
    } else {
      std::fprintf(stderr, "[%s] cannot open archive %s (continuing)\n",
                   name.c_str(), archivePath.c_str());
    }
  }
  telemetry::TelemetryConfig tcfg;
  tcfg.intervalSec = args.num("telemetry-interval", 1.0);
  telemetry::TelemetryPublisher tpub(tcfg);
  tpub.bind(cb);

  // The mass role keeps its channel matrix pure: no probe streams, so the
  // driver's channel-count expectations stay exact.
  std::unique_ptr<ProbeLp> probe;
  if (role != "mass") {
    probe = std::make_unique<ProbeLp>(name, probeHz);
    probe->bind(cb, peers);
  }

  // ---- Main loop: wall clock, ~1 ms tick cadence ------------------------
  const double stopProbesAt = duration - quiesce;
  double nextStatus = 5.0;
  double now = 0.0;
  // The mass channel matrix is sampled when publishing stops, not at
  // exit: every node is still alive at the quiesce boundary, while at
  // exit time slightly-earlier-finishing peers have already sent their
  // BYEs and torn half the matrix down.
  std::vector<core::CbChannelHealth> massMatrix;
  bool massMatrixSampled = false;
  // The monitor's view of each peer's mass matrix, as the *peak* counts
  // seen across the run — the final snapshot would race peer teardown the
  // same way the node's own exit-time sample does.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> monPeak;
  double nextMonSample = 0.0;
  // The closing counters must reach the monitor host before this process
  // stops ticking: force one final snapshot out shortly before the end.
  // 0.75 s leaves the datagram a real chance to land and be applied while
  // peers still tick.
  const double finalSnapshotAt = duration - 0.75;
  bool finalSnapshotSent = false;
  while ((now = wallSec()) < duration) {
    if (!finalSnapshotSent && now >= finalSnapshotAt) {
      finalSnapshotSent = true;
      tpub.publishFinal(now);
    }
    if (now >= stopProbesAt) {
      if (probe) probe->stopPublishing();
      if (mass) mass->stopPublishing();
      if (mass && !massMatrixSampled) {
        massMatrixSampled = true;
        massMatrix = cb.channelHealth();
      }
    }
    cb.tick(now);
    if (monitor && mass && now >= nextMonSample) {
      nextMonSample = now + 0.25;
      for (const std::string& n : monitor->nodeNames()) {
        const telemetry::NodeHealth* h = monitor->node(n);
        if (h == nullptr) continue;
        std::uint64_t o = 0, i = 0;
        for (const core::CbChannelHealth& c : h->last.channels) {
          if (c.className.rfind(soak::kMassClassPrefix, 0) != 0) continue;
          ++(c.outbound ? o : i);
        }
        auto& peak = monPeak[n];
        peak.first = std::max(peak.first, o);
        peak.second = std::max(peak.second, i);
      }
    }
    if (gTraceDumpRequested) {
      gTraceDumpRequested = 0;
      if (recorder && !traceDump.empty()) {
        recorder->dumpToFile(traceDump);
        std::printf("[%s] flight recorder dumped to %s (SIGUSR2)\n",
                    name.c_str(), traceDump.c_str());
      }
    }
    if (now >= nextStatus) {
      nextStatus += 5.0;
      std::printf("[%s] t=%5.1f updates=%llu retx=%llu timedOut=%llu\n",
                  name.c_str(), now,
                  static_cast<unsigned long long>(cb.stats().updatesSent),
                  static_cast<unsigned long long>(
                      cb.stats().reliable.retransmitsSent),
                  static_cast<unsigned long long>(cb.stats().channelsTimedOut));
      if (instructor) {
        std::fputs(instructor->renderClusterText().c_str(), stdout);
      } else if (monitor) {
        std::fputs(monitor->renderTable().c_str(), stdout);
        std::fputs(monitor->renderAlarms().c_str(), stdout);
      }
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ---- Report -----------------------------------------------------------
  std::ofstream out(reportPath);
  if (!out) {
    std::fprintf(stderr, "[%s] cannot write report %s\n", name.c_str(),
                 reportPath.c_str());
    return 3;
  }
  out << "node " << name << "\n";
  out << "role " << role << "\n";
  if (probe) {
    out << "probe-published " << probe->published() << "\n";
    for (const auto& [peer, st] : probe->streams()) {
      std::size_t idx = 0;
      for (const Segment& seg : st.segments) {
        out << "probe " << peer << " segment " << idx++
            << " first=" << seg.first << " last=" << seg.last
            << " count=" << seg.count << " gaps=" << seg.gaps << "\n";
      }
      out << "probe-summary " << peer << " segments=" << st.segments.size()
          << " dups=" << st.duplicates << "\n";
    }
  }
  if (mass) {
    if (!massMatrixSampled) massMatrix = cb.channelHealth();
    std::uint64_t outCh = 0, inCh = 0, liveCh = 0;
    for (const core::CbChannelHealth& c : massMatrix) {
      if (c.className.rfind(soak::kMassClassPrefix, 0) != 0) continue;
      ++(c.outbound ? outCh : inCh);
      if (c.live) ++liveCh;
    }
    out << "channels-mass out=" << outCh << " in=" << inCh
        << " live=" << liveCh << "\n";
    for (const auto& [cls, rec] : mass->records())
      out << "mass-class " << cls << " reflections=" << rec.reflections
          << " sources=" << rec.sources.size() << "\n";
  }
  // Ground truth for the driver's telemetry diff: the same StatRegistry
  // record the telemetry publisher ships, taken at exit.
  {
    telemetry::StatRegistry registry(cb);
    const telemetry::NodeTelemetry t = registry.snapshot(now);
    out << "self-counters updates=" << t.cb.updatesSent
        << " data=" << t.cb.reliable.dataFramesSent
        << " retx=" << t.cb.reliable.retransmitsSent << "\n";
  }
  // Receiver-side NACK timing: NACKs a duplicate showed unnecessary, and
  // the widest reorder window any reliable in-channel learned; plus the
  // duplicates peers reported back for this node's retransmits. The
  // driver reports the first two and gates none.
  {
    double windowSec = 0.0;
    for (const core::CbChannelHealth& c : cb.channelHealth())
      if (!c.outbound) windowSec = std::max(windowSec, c.reorderWindowSec);
    out << "repair spurious-nacks=" << cb.stats().reliable.spuriousNacks
        << " reorder-window-max-ms=" << windowSec * 1e3
        << " peer-dups=" << cb.stats().reliable.peerDuplicatesReported
        << "\n";
  }
  // Whole-run delivery-latency percentiles (milliseconds) from this
  // node's own cumulative histogram — what the driver's --max-p99-ms
  // verdict judges. Only present when sampling was on and produced data.
  {
    constexpr std::size_t kLat = telemetry::CbHistograms::kDeliveryLatencyIdx;
    const telemetry::HistogramSnapshot& s =
        cb.histograms().at(kLat).snapshot();
    if (s.count > 0) {
      const double lowest = telemetry::CbHistograms::lowestOf(kLat);
      char lbuf[160];
      std::snprintf(lbuf, sizeof(lbuf),
                    "latency p50=%.3f p90=%.3f p99=%.3f max=%.3f samples=%llu",
                    telemetry::LogHistogram::percentile(s, 0.50, lowest) * 1e3,
                    telemetry::LogHistogram::percentile(s, 0.90, lowest) * 1e3,
                    telemetry::LogHistogram::percentile(s, 0.99, lowest) * 1e3,
                    s.max * 1e3, static_cast<unsigned long long>(s.count));
      out << lbuf << "\n";
    }
  }
  if (instructor) out << "status-updates " << instructor->statusUpdatesSeen() << "\n";
  if (monitor) {
    for (const telemetry::HealthAlarm& a : monitor->alarms())
      out << "alarm " << telemetry::alarmKindName(a.kind) << " " << a.node
          << "\n";
    for (const std::string& n : monitor->nodeNames()) {
      const telemetry::NodeHealth* h = monitor->node(n);
      if (h == nullptr) continue;
      // Whole-run loss estimate from the node's *cumulative* reliable
      // counters (latest applied snapshot) — interval rates are noisy at
      // 1 Hz, the lifetime ratio is what must track the injected rate.
      const auto& r = h->last.cb.reliable;
      out << "loss-est " << n << " "
          << telemetry::reliableLossEstimatePct(r.dataFramesSent,
                                                r.retransmitsSent,
                                                r.peerDuplicatesReported)
          << " data=" << r.dataFramesSent << " retx=" << r.retransmitsSent
          << " dups=" << r.peerDuplicatesReported << "\n";
      // The monitor-side view of the same counters the node dumps in its
      // own self-counters line; the driver diffs the two.
      out << "mon-counters " << n << " updates=" << h->last.cb.updatesSent
          << " data=" << r.dataFramesSent << " retx=" << r.retransmitsSent
          << "\n";
      const auto pk = monPeak.find(n);
      if (pk != monPeak.end())
        out << "mon-channels " << n << " out=" << pk->second.first
            << " in=" << pk->second.second << "\n";
    }
  }
  out << "exit ok\n";
  if (recorder && !traceDump.empty()) recorder->dumpToFile(traceDump);
  if (archive) {
    archive->close();
    std::printf("[%s] archive %s: %llu records, %llu bytes, %llu rotations\n",
                name.c_str(), archivePath.c_str(),
                static_cast<unsigned long long>(archive->recordsWritten()),
                static_cast<unsigned long long>(archive->bytesWritten()),
                static_cast<unsigned long long>(archive->segmentsRotated()));
  }
  std::printf("[%s] done: updates=%llu report=%s\n", name.c_str(),
              static_cast<unsigned long long>(cb.stats().updatesSent),
              reportPath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak_node: %s\n", e.what());
    return 2;
  }
}
