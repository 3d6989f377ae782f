// soak_driver — orchestrator and judge of the multi-process UDP soak.
//
// Spawns N soak_node processes on loopback (dynamics, scenario,
// instructor, displays), all under the same injected impairment, lets
// them run for --duration seconds, SIGKILLs --victim at --kill-at and
// restarts it at --restart-at (exercising channel timeout → rediscovery
// end to end on real sockets), then reads every node's report and exits
// non-zero unless:
//
//   1. every node process exited 0 and wrote a complete report;
//   2. every reliable probe stream was delivered 100% in order: one
//      gapless segment per publisher incarnation, final segment ending
//      exactly at the publisher's last published sequence (a SIGKILLed
//      first incarnation is owed only a clean in-order prefix — its
//      unacked tail died with the process, which no protocol can fix);
//   3. the monitor host's HealthMonitor raised NODE_SILENT and then
//      NODE_RECOVERED for the victim;
//   4. the monitor's reliable-counter loss estimate tracks the injected
//      rate within --tolerance-pp for every node with enough samples
//      (real sockets cannot attribute drops, so this estimate is the
//      deployment's only loss observable — it had better be honest);
//   5. the monitor's last telemetry view of every node's core counters
//      matches the node's own StatRegistry dump within
//      --stat-tolerance-pct (telemetry that silently diverges from
//      ground truth is worse than none).
//
// Two alternate rack shapes:
//   --mass-connect     N identical `mass` nodes (default 10) open a
//                      C-class two-publishers-per-class matrix —
//                      C*2*(N-1) reliable network channels (>= 1000 at
//                      the defaults). The verdict additionally requires
//                      every node's mass channel counts to match the
//                      topology exactly, every class delivered from both
//                      publishers, and the monitor (on mass-0) to see the
//                      same channel matrix through telemetry. Kill/
//                      restart is off by default (it is a connect storm,
//                      not a failover drill).
//   --rack=display-heavy  dynamics + dynamics-b (two publishers of every
//                      crane class), scenario, instructor, and displays
//                      on the remaining nodes.
//
// Failure drills on top of either shape:
//   --starve-node=<n>  run node <n> under much harsher duplex impairment
//                      (--starve-loss / --starve-delay-ms) than the rest
//                      of the rack. Combined with --min-publish-rate, the
//                      verdict demands the starved node still converge to
//                      100% in-order delivery AND the healthy nodes keep
//                      their nominal publish rate — survival, not just
//                      eventual delivery.
//
// Node stdout/stderr land in --out/<name>.log; reports in
// --out/<name>.report. CI uploads the directory as an artifact when the
// verdict fails.
#include <dirent.h>
#include <fcntl.h>
#include <libgen.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/udp.hpp"
#include "tools/soak/soak_common.hpp"

namespace {

using namespace cod;

using soak::Segment;
using soak::wallSec;

/// Node knobs the driver reads as flags and passes to every soak_node
/// untouched.
const std::vector<std::string> kPassThroughFlags = {
    "dup", "reorder", "delay-ms", "jitter-ms", "seed", "probe-hz", "quiesce",
    "telemetry-interval", "silent-after", "channel-timeout", "ack-interval",
    "mass-hz", "bind-ip", "host-ips", "trace-sample", "phase-profile"};

struct NodeSpec {
  std::string name;
  std::string role;
  int host = 0;
  int displayChannel = 0;
  int massIndex = 0;
};

struct Report {
  bool present = false;
  bool exitOk = false;
  std::uint64_t published = 0;
  std::map<std::string, std::vector<Segment>> streams;
  std::map<std::string, std::uint64_t> dups;
  std::vector<std::pair<std::string, std::string>> alarms;  // kind, node
  struct LossEst {
    double pct = 0.0;
    std::uint64_t data = 0, retx = 0;
  };
  std::map<std::string, LossEst> lossEst;
  struct Counters {
    bool present = false;
    std::uint64_t updates = 0, data = 0, retx = 0;
  };
  Counters self;                                // self-counters
  std::map<std::string, Counters> monCounters;  // mon-counters, by node
  struct ChannelCount {
    bool present = false;
    std::uint64_t out = 0, in = 0, live = 0;
  };
  ChannelCount massChannels;                         // channels-mass
  std::map<std::string, ChannelCount> monChannels;   // mon-channels
  // mass-class → (reflections, distinct sources)
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> massClasses;
  struct Latency {
    bool present = false;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;  // milliseconds
    std::uint64_t samples = 0;
  };
  Latency latency;  // whole-run delivery latency (sampling on only)
  struct Repair {
    bool present = false;
    std::uint64_t spuriousNacks = 0;
    double reorderWindowMaxMs = 0.0;
  };
  Repair repair;  // receiver-side NACK timing (reported, not gated)
};

std::uint64_t kvU64(const std::string& token, const std::string& key) {
  const auto v = soak::kvToken(token, key);
  return v ? std::stoull(*v) : 0;
}

void parseLine(const std::string& line, Report& r) {
  std::istringstream ls(line);
  std::string kind;
  ls >> kind;
  if (kind == "probe-published") {
    ls >> r.published;
  } else if (kind == "probe") {
    std::string peer, word, tok;
    std::size_t idx = 0;
    ls >> peer >> word >> idx;
    Segment seg;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "first")) seg.first = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "last")) seg.last = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "count")) seg.count = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "gaps")) seg.gaps = std::stoull(*v);
    }
    r.streams[peer].push_back(seg);
  } else if (kind == "probe-summary") {
    std::string peer, tok;
    ls >> peer;
    while (ls >> tok) r.dups[peer] += kvU64(tok, "dups");
  } else if (kind == "alarm") {
    std::string alarmKind, node;
    ls >> alarmKind >> node;
    r.alarms.emplace_back(alarmKind, node);
  } else if (kind == "loss-est") {
    std::string node, tok;
    Report::LossEst est;
    ls >> node >> est.pct;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "data")) est.data = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "retx")) est.retx = std::stoull(*v);
    }
    r.lossEst[node] = est;
  } else if (kind == "self-counters" || kind == "mon-counters") {
    std::string node, tok;
    if (kind == "mon-counters") ls >> node;
    Report::Counters c;
    c.present = true;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "updates")) c.updates = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "data")) c.data = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "retx")) c.retx = std::stoull(*v);
    }
    if (kind == "mon-counters")
      r.monCounters[node] = c;
    else
      r.self = c;
  } else if (kind == "channels-mass" || kind == "mon-channels") {
    std::string node, tok;
    if (kind == "mon-channels") ls >> node;
    Report::ChannelCount c;
    c.present = true;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "out")) c.out = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "in")) c.in = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "live")) c.live = std::stoull(*v);
    }
    if (kind == "mon-channels")
      r.monChannels[node] = c;
    else
      r.massChannels = c;
  } else if (kind == "mass-class") {
    std::string cls, tok;
    ls >> cls;
    std::uint64_t refl = 0, src = 0;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "reflections")) refl = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "sources")) src = std::stoull(*v);
    }
    r.massClasses[cls] = {refl, src};
  } else if (kind == "latency") {
    std::string tok;
    r.latency.present = true;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "p50")) r.latency.p50 = std::stod(*v);
      if (auto v = soak::kvToken(tok, "p90")) r.latency.p90 = std::stod(*v);
      if (auto v = soak::kvToken(tok, "p99")) r.latency.p99 = std::stod(*v);
      if (auto v = soak::kvToken(tok, "max")) r.latency.max = std::stod(*v);
      if (auto v = soak::kvToken(tok, "samples"))
        r.latency.samples = std::stoull(*v);
    }
  } else if (kind == "repair") {
    std::string tok;
    r.repair.present = true;
    while (ls >> tok) {
      if (auto v = soak::kvToken(tok, "spurious-nacks"))
        r.repair.spuriousNacks = std::stoull(*v);
      if (auto v = soak::kvToken(tok, "reorder-window-max-ms"))
        r.repair.reorderWindowMaxMs = std::stod(*v);
    }
  } else if (kind == "exit") {
    std::string status;
    ls >> status;
    r.exitOk = status == "ok";
  }
}

Report parseReport(const std::string& path) {
  Report r;
  std::ifstream in(path);
  if (!in) return r;
  r.present = true;
  std::string line;
  while (std::getline(in, line)) {
    try {
      parseLine(line, r);
    } catch (const std::exception& e) {
      // A truncated or garbled line (e.g. the driver's collect-phase
      // SIGKILL landed mid-flush) must not abort the whole verdict — the
      // missing "exit ok" trailer already fails this node's report check,
      // and every other node still gets its diagnostics printed.
      std::fprintf(stderr, "soak_driver: %s: unparsable line \"%s\" (%s)\n",
                   path.c_str(), line.c_str(), e.what());
    }
  }
  return r;
}

class Driver {
 public:
  explicit Driver(const soak::Args& args) : args_(args) {
    outDir_ = args.str("out", "soak-out");
    nodeBin_ = args.str("node-bin", "");
    duration_ = args.num("duration", 75.0);
    lossPct_ = args.num("loss", 25.0);
    massConnect_ = args.has("mass-connect");
    massClasses_ = static_cast<int>(args.integer("mass-classes", 56));
    rack_ = args.str("rack", "standard");
    killAt_ = args.num("kill-at", duration_ * 0.33);
    restartAt_ = args.num("restart-at", duration_ * 0.44);
    tolerancePp_ = args.num("tolerance-pp", 5.0);
    statTolerancePct_ = args.num("stat-tolerance-pct", 10.0);
    minLossSamples_ =
        static_cast<std::uint64_t>(args.integer("min-loss-samples", 400));
    maxP99Ms_ = args.num("max-p99-ms", 0.0);  // 0 = latency gate off
    // The starved-node drill: one node runs under much harsher duplex
    // impairment than the rest (its transport drops and delays both
    // directions), and the verdict still demands full in-order probe
    // delivery plus — via --min-publish-rate — that the HEALTHY nodes'
    // publish rates were not dragged down with it.
    starveNode_ = args.str("starve-node", "");
    starveLossPct_ = args.num("starve-loss", 40.0);
    starveDelayMs_ = args.num("starve-delay-ms", 100.0);
    minPublishRate_ = args.num("min-publish-rate", 0.0);  // 0 = gate off
    // --archive: the monitor host records the run's flight-data archive,
    // and the verdict re-runs its own post-mortem checks by replaying the
    // file through cod_inspect — the offline judgement must agree with
    // the live one.
    archiveEnabled_ = args.has("archive");
    archivePath_ = outDir_ + "/soak.archive";
    const int nodes =
        static_cast<int>(args.integer("nodes", massConnect_ ? 10 : 4));
    if (massConnect_) {
      // The 1000-LP bar needs the channel matrix C*2*(N-1) >= 1000.
      if (nodes < 8)
        throw std::invalid_argument("--mass-connect needs --nodes >= 8");
      if (massClasses_ < 1)
        throw std::invalid_argument("--mass-classes must be >= 1");
      for (int i = 0; i < nodes; ++i)
        specs_.push_back(
            {"mass-" + std::to_string(i), "mass", i, 0, i});
      monitorNode_ = "mass-0";
      // A connect storm, not a failover drill: kill/restart only when
      // explicitly requested.
      if (!args.has("kill-at")) killAt_ = duration_ + 1.0;
      victim_ = args.str("victim", specs_.back().name);
    } else if (rack_ == "display-heavy") {
      // Two dynamics publishers of every crane class, and every spare
      // node a display — the fan-out-heavy shape of a licensure rack.
      if (nodes < 5)
        throw std::invalid_argument("--rack=display-heavy needs --nodes >= 5");
      specs_.push_back({"dynamics", "dynamics", 0, 0, 0});
      specs_.push_back({"dynamics-b", "dynamics", 1, 0, 0});
      specs_.push_back({"scenario", "scenario", 2, 0, 0});
      specs_.push_back({"instructor", "instructor", 3, 0, 0});
      for (int i = 4; i < nodes; ++i)
        specs_.push_back({"display-" + std::to_string(i - 4), "display", i,
                          (i - 4) % 3, 0});
      monitorNode_ = "instructor";
      victim_ = args.str("victim", "display-0");
    } else {
      if (nodes < 4)
        throw std::invalid_argument("--nodes must be >= 4 (one per core role)");
      specs_.push_back({"dynamics", "dynamics", 0, 0, 0});
      specs_.push_back({"scenario", "scenario", 1, 0, 0});
      specs_.push_back({"instructor", "instructor", 2, 0, 0});
      for (int i = 3; i < nodes; ++i)
        specs_.push_back({"display-" + std::to_string(i - 3), "display", i,
                          (i - 3) % 3, 0});
      monitorNode_ = "instructor";
      victim_ = args.str("victim", "display-0");
    }
    // A typo'd victim must die here: at kill time an unknown name would
    // default-insert pid 0 into the table and ::kill(0, SIGKILL) would
    // take out the driver's whole process group.
    if (specFor(victim_) == nullptr)
      throw std::invalid_argument("--victim=" + victim_ +
                                  " names no spawned node");
    if (!starveNode_.empty() && specFor(starveNode_) == nullptr)
      throw std::invalid_argument("--starve-node=" + starveNode_ +
                                  " names no spawned node");
  }

  int run(char** argv) {
    ::mkdir(outDir_.c_str(), 0777);
    if (archiveEnabled_) {
      // One driver run is one flight. The archive writer deliberately
      // rotates (never truncates) segments a previous incarnation left —
      // right for a victim restart INSIDE a run, wrong across runs: a
      // re-run in the same --out would replay last run's alarms
      // concatenated with this one's and fail the replay gate on a
      // backwards-jumping clock. Scrub soak.archive and every rotated
      // soak.archive.<n> before spawning.
      if (DIR* d = ::opendir(outDir_.c_str())) {
        const std::string base = "soak.archive";
        while (const dirent* e = ::readdir(d)) {
          const std::string name = e->d_name;
          if (name == base || name.compare(0, base.size() + 1, base + ".") == 0)
            std::remove((outDir_ + "/" + name).c_str());
        }
        ::closedir(d);
      }
    }
    if (nodeBin_.empty()) {
      // Default: soak_node next to this binary.
      std::vector<char> self(argv[0], argv[0] + std::strlen(argv[0]) + 1);
      nodeBin_ = std::string(::dirname(self.data())) + "/soak_node";
    }
    inspectBin_ = args_.str("inspect-bin", "");
    if (inspectBin_.empty()) {
      // Default: cod_inspect in the sibling tools/inspect build dir.
      std::vector<char> self(argv[0], argv[0] + std::strlen(argv[0]) + 1);
      inspectBin_ =
          std::string(::dirname(self.data())) + "/../inspect/cod_inspect";
    }

    // The whole address plan is sized to the node count and anchored on a
    // kernel-assigned ephemeral port — parallel CI lanes cannot collide
    // on a constant the way fixed-port plans do.
    portsPerHost_ = 4;
    maxHosts_ = static_cast<int>(specs_.size());
    basePort_ = static_cast<std::uint16_t>(args_.integer("base-port", 0));
    if (basePort_ == 0)
      basePort_ = net::pickEphemeralBasePort(
          static_cast<std::uint16_t>(maxHosts_ * portsPerHost_),
          args_.str("bind-ip", "127.0.0.1"));
    std::printf("soak_driver: %zu nodes, base port %u, %.0f s at %.0f%% loss, "
                "kill %s @ %.1fs, restart @ %.1fs\n",
                specs_.size(), basePort_, duration_, lossPct_, victim_.c_str(),
                killAt_, restartAt_);

    const double start = wallSec();
    const double endAt = start + duration_;
    for (const NodeSpec& s : specs_) pids_[s.name] = spawn(s, duration_);

    // ---- Supervise: kill, restart, watch for early deaths ---------------
    // Supervision stops shy of the end: nodes measure their own duration
    // from their own start, so a node exiting right on time must not be
    // mistaken for an early death by a racing WNOHANG.
    bool killed = false, restarted = false;
    bool earlyDeath = false;
    while (wallSec() < endAt - 1.0) {
      const double t = wallSec() - start;
      if (!killed && t >= killAt_) {
        killed = true;
        std::printf("soak_driver: t=%.1f SIGKILL %s (pid %d)\n", t,
                    victim_.c_str(), pids_[victim_]);
        std::fflush(stdout);
        ::kill(pids_[victim_], SIGKILL);
        ::waitpid(pids_[victim_], nullptr, 0);
        pids_.erase(victim_);
      }
      if (killed && !restarted && t >= restartAt_) {
        restarted = true;
        const NodeSpec* spec = specFor(victim_);
        const double remaining = endAt - wallSec();
        std::printf("soak_driver: t=%.1f restart %s (%.1f s remaining)\n", t,
                    victim_.c_str(), remaining);
        std::fflush(stdout);
        pids_[victim_] = spawn(*spec, remaining);
      }
      // Any other child exiting before the end is a failure on its own.
      for (const auto& [name, pid] : pids_) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          std::fprintf(stderr, "soak_driver: %s (pid %d) died early: %s=%d\n",
                       name.c_str(), pid,
                       WIFSIGNALED(status) ? "signal" : "status",
                       WIFSIGNALED(status) ? WTERMSIG(status)
                                           : WEXITSTATUS(status));
          pids_.erase(name);
          earlyDeath = true;
          break;
        }
      }
      if (earlyDeath) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // ---- Collect children (grace period, then SIGKILL) ------------------
    bool exitFailure = earlyDeath;
    const double reapDeadline = wallSec() + 20.0;
    for (auto& [name, pid] : pids_) {
      int status = 0;
      pid_t got = 0;
      while ((got = ::waitpid(pid, &status, WNOHANG)) == 0 &&
             wallSec() < reapDeadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (got == 0) {
        std::fprintf(stderr, "soak_driver: %s hung; SIGKILL\n", name.c_str());
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        exitFailure = true;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "soak_driver: %s exited abnormally (%d)\n",
                     name.c_str(), status);
        exitFailure = true;
      }
    }

    return verdict(exitFailure) ? 0 : 1;
  }

 private:
  const NodeSpec* specFor(const std::string& name) const {
    for (const NodeSpec& s : specs_)
      if (s.name == name) return &s;
    return nullptr;
  }

  std::string peersCsv(const std::string& self) const {
    std::string csv;
    for (const NodeSpec& s : specs_) {
      if (s.name == self) continue;
      if (!csv.empty()) csv += ",";
      csv += s.name;
    }
    return csv;
  }

  pid_t spawn(const NodeSpec& s, double duration) {
    std::vector<std::string> argStrs{
        nodeBin_,
        "--name=" + s.name,
        "--role=" + s.role,
        "--host=" + std::to_string(s.host),
        "--base-port=" + std::to_string(basePort_),
        "--ports-per-host=" + std::to_string(portsPerHost_),
        "--max-hosts=" + std::to_string(maxHosts_),
        "--peers=" + peersCsv(s.name),
        "--report=" + outDir_ + "/" + s.name + ".report",
        "--duration=" + std::to_string(duration),
        "--display-channel=" + std::to_string(s.displayChannel),
    };
    // Loss is driver-owned (the verdict compares estimates against it);
    // the remaining knobs pass through to the node untouched.
    argStrs.push_back("--loss=" + std::to_string(lossPct_));
    for (const std::string& key : kPassThroughFlags) {
      if (args_.has(key))
        argStrs.push_back("--" + key + "=" + args_.str(key, ""));
    }
    // The starved node's harsher impairment overrides the rack-wide
    // settings (soak::Args keeps the LAST occurrence of a repeated key,
    // so appending after the passthroughs wins).
    if (s.name == starveNode_) {
      argStrs.push_back("--loss=" + std::to_string(starveLossPct_));
      argStrs.push_back("--delay-ms=" + std::to_string(starveDelayMs_));
      argStrs.push_back("--impair-rx=1");  // duplex: its whole link is bad
    }
    // Tracing on means every node keeps a flight recorder; route its dump
    // (exit-time, SIGUSR2, or CRIT-alarm-triggered) into the out dir so a
    // failing CI run uploads the rings alongside logs and reports.
    if (args_.has("trace-sample"))
      argStrs.push_back("--trace-dump=" + outDir_ + "/" + s.name +
                        ".trace.json");
    if (s.role == "mass") {
      argStrs.push_back("--mass-classes=" + std::to_string(massClasses_));
      argStrs.push_back("--mass-nodes=" + std::to_string(specs_.size()));
      argStrs.push_back("--mass-index=" + std::to_string(s.massIndex));
    }
    // The monitor host: the instructor role brings its own; any other
    // shape (mass-0) gets an explicit monitor.
    if (s.name == monitorNode_ && s.role != "instructor")
      argStrs.push_back("--monitor=1");
    // The monitor host is also the flight-data recorder: one archive
    // records the whole cluster's health feed.
    if (archiveEnabled_ && s.name == monitorNode_)
      argStrs.push_back("--archive=" + archivePath_);

    const std::string logPath = outDir_ + "/" + s.name + ".log";
    const pid_t pid = ::fork();
    if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
    if (pid == 0) {
      // Child: stdout+stderr → append to the node's log (a restarted
      // victim continues the same file, with the banner marking the new
      // incarnation).
      const int fd =
          ::open(logPath.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argvChild;
      argvChild.reserve(argStrs.size() + 1);
      for (std::string& a : argStrs) argvChild.push_back(a.data());
      argvChild.push_back(nullptr);
      ::execv(nodeBin_.c_str(), argvChild.data());
      std::fprintf(stderr, "execv %s: %s\n", nodeBin_.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    return pid;
  }

  // ---- Verdict ----------------------------------------------------------

  bool check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) failures_++;
    return ok;
  }

  bool verdict(bool exitFailure) {
    std::printf("\n== SOAK VERDICT (%zu nodes, %.0f s, %.0f%% loss) ==\n",
                specs_.size(), duration_, lossPct_);
    check(!exitFailure, "all node processes ran to completion and exited 0");

    std::map<std::string, Report> reports;
    for (const NodeSpec& s : specs_) {
      reports[s.name] = parseReport(outDir_ + "/" + s.name + ".report");
      check(reports[s.name].present && reports[s.name].exitOk,
            "report complete: " + s.name);
    }

    // Reliable probe streams: 100% in-order delivery. (The mass rack
    // runs no probes — delivery is judged per mass class instead.)
    if (!massConnect_) {
      for (const NodeSpec& sub : specs_) {
        const Report& r = reports[sub.name];
        for (const NodeSpec& pub : specs_) {
          if (pub.name == sub.name) continue;
          const auto it = r.streams.find(pub.name);
          std::ostringstream what;
          what << "stream " << pub.name << " -> " << sub.name;
          if (it == r.streams.end()) {
            check(false, what.str() + ": never connected");
            continue;
          }
          const std::vector<Segment>& segs = it->second;
          std::uint64_t gaps = 0, delivered = 0;
          for (const Segment& seg : segs) {
            gaps += seg.gaps;
            delivered += seg.count;
          }
          const std::uint64_t dups =
              r.dups.count(pub.name) ? r.dups.at(pub.name) : 0;
          const bool isVictimPub = pub.name == victim_;
          // A publisher that lived to the end is owed delivery through its
          // final sequence; a SIGKILLed incarnation only through the last
          // frame its successor's report cannot know — so judge the final
          // segment against the final incarnation's published count.
          const std::uint64_t expectLast = reports[pub.name].published;
          const std::size_t maxSegs =
              isVictimPub && sub.name != victim_ ? 2 : 1;
          const Segment& lastSeg = segs.back();
          std::ostringstream detail;
          detail << what.str() << ": " << delivered << " frames, "
                 << segs.size() << " segment(s), gaps=" << gaps
                 << " dups=" << dups << " last=" << lastSeg.last << "/"
                 << expectLast;
          check(segs.size() <= maxSegs && gaps == 0 && dups == 0 &&
                    lastSeg.last == expectLast,
                detail.str());
        }
      }
    }

    // The mass-connect matrix: exact channel counts per node, every
    // class delivered from both of its publishers, and the monitor's
    // telemetry view agreeing with the topology.
    const Report& instr = reports[monitorNode_];
    if (massConnect_) {
      const int n = static_cast<int>(specs_.size());
      const int c = massClasses_;
      std::uint64_t totalNetworkChannels = 0;
      for (const NodeSpec& s : specs_) {
        const Report& r = reports[s.name];
        // Same assignment rule as MassLp::publishes — class k is owned
        // by nodes k%N and (k+1)%N.
        std::uint64_t pubs = 0;
        for (int k = 0; k < c; ++k)
          if (k % n == s.massIndex || (k + 1) % n == s.massIndex) ++pubs;
        const std::uint64_t expectOut = pubs * (n - 1);
        const std::uint64_t expectIn = 2ull * c - pubs;
        totalNetworkChannels += expectOut;
        std::ostringstream what;
        what << "channels " << s.name << ": out=" << r.massChannels.out << "/"
             << expectOut << " in=" << r.massChannels.in << "/" << expectIn
             << " live=" << r.massChannels.live << "/"
             << expectOut + expectIn;
        check(r.massChannels.present && r.massChannels.out == expectOut &&
                  r.massChannels.in == expectIn &&
                  r.massChannels.live == expectOut + expectIn,
              what.str());
        std::uint64_t delivered = 0;
        bool deliveryOk = r.massClasses.size() == static_cast<std::size_t>(c);
        for (const auto& [cls, refSrc] : r.massClasses) {
          if (refSrc.first == 0 || refSrc.second != 2) deliveryOk = false;
          delivered += refSrc.first;
        }
        std::ostringstream dwhat;
        dwhat << "delivery " << s.name << ": " << r.massClasses.size() << "/"
              << c << " classes from both publishers, " << delivered
              << " reflections";
        check(deliveryOk, dwhat.str());
        const auto mit = instr.monChannels.find(s.name);
        std::ostringstream twhat;
        twhat << "telemetry sees " << s.name << "'s channel matrix";
        if (mit == instr.monChannels.end()) {
          check(false, twhat.str() + ": no mon-channels record");
        } else {
          twhat << ": out=" << mit->second.out << "/" << expectOut
                << " in=" << mit->second.in << "/" << expectIn;
          check(mit->second.out == expectOut && mit->second.in == expectIn,
                twhat.str());
        }
      }
      std::ostringstream what;
      what << "mass rack opens >= 1000 network channels ("
           << totalNetworkChannels << ")";
      check(totalNetworkChannels >= 1000, what.str());
    }

    // Victim lifecycle alarms from the monitor host (skipped when the
    // kill was disabled — nothing went silent by design).
    if (killAt_ <= duration_) {
      std::size_t silentIdx = instr.alarms.size();
      bool recoveredAfter = false;
      for (std::size_t i = 0; i < instr.alarms.size(); ++i) {
        const auto& [kind, node] = instr.alarms[i];
        if (node != victim_) continue;
        if (kind == "NODE_SILENT" && silentIdx == instr.alarms.size())
          silentIdx = i;
        if (kind == "NODE_RECOVERED" && silentIdx < i) recoveredAfter = true;
      }
      check(silentIdx < instr.alarms.size(),
            "monitor raised NODE_SILENT for " + victim_);
      check(recoveredAfter, "monitor raised NODE_RECOVERED for " + victim_);
    }

    // Archive replay: feed the recorded flight data back through
    // cod_inspect and require the OFFLINE monitor to reproduce the live
    // one's judgement — per-node alarm sequences, final counters, and
    // (when the kill ran) the victim's SILENT→RECOVERED arc.
    if (archiveEnabled_) {
      std::fflush(stdout);
      check(replayArchive() == 0,
            "archive replay (cod_inspect) reproduces the live judgement");
    }

    // Reliable-counter loss estimate vs injected ground truth — every
    // rack shape, including mass mode: its 2–4 Hz tail-dominated streams
    // once biased the estimate far above the injected rate (the tail
    // RTO's spurious retransmits of already-delivered frames counted as
    // losses), but receivers now report duplicates back on WINDOW_ACK and
    // the estimator subtracts them, so the estimate is accountable at any
    // stream cadence. The starved rack is the one shape still skipped:
    // its per-node impairment is deliberately asymmetric, so no single
    // injected rate exists for a node's aggregate outbound traffic
    // (healthy nodes' frames toward the starved peer die at ITS receive
    // side and inflate their estimates by design).
    if (starveNode_.empty()) {
      for (const NodeSpec& s : specs_) {
        const auto it = instr.lossEst.find(s.name);
        std::ostringstream what;
        if (it == instr.lossEst.end()) {
          check(false, "loss estimate present for " + s.name);
          continue;
        }
        const Report::LossEst& est = it->second;
        const std::uint64_t samples = est.data + est.retx;
        what << "loss-est " << s.name << " " << est.pct << "% vs injected "
             << lossPct_ << "% (" << samples << " attempts)";
        if (samples < minLossSamples_) {
          std::printf("  [SKIP] %s: below %llu attempts\n", what.str().c_str(),
                      static_cast<unsigned long long>(minLossSamples_));
          continue;
        }
        check(std::fabs(est.pct - lossPct_) <= tolerancePp_, what.str());
      }
    } else {
      std::printf("  [SKIP] loss-est gate: per-node impairment is asymmetric "
                  "under --starve-node\n");
    }

    // Healthy-publisher throughput gate (--min-publish-rate): a starved
    // peer must not drag the rest of the rack down. Every healthy node's
    // probe publish count must reach the given fraction of the nominal
    // rate (probe-hz over the publishing window). The victim and the
    // starved node judge survival through the in-order delivery gate
    // instead — the victim's count restarts mid-run, and the starved
    // node's own publishing rides its own lossy link.
    if (minPublishRate_ > 0.0 && !massConnect_) {
      const double probeHz = args_.num("probe-hz", 40.0);
      const double quiesce = args_.num("quiesce", 5.0);
      const double nominal = probeHz * (duration_ - quiesce);
      for (const NodeSpec& s : specs_) {
        if (s.name == victim_ && killAt_ <= duration_) continue;
        if (s.name == starveNode_) continue;
        const double published =
            static_cast<double>(reports[s.name].published);
        std::ostringstream what;
        what << "publish rate " << s.name << ": " << published << " >= "
             << minPublishRate_ * 100.0 << "% of nominal " << nominal;
        check(published >= minPublishRate_ * nominal, what.str());
      }
    }

    // Telemetry counters vs node-local ground truth: the monitor's last
    // view of each node must match the node's own exit-time StatRegistry
    // dump. The monitor's snapshot is up to one telemetry interval older
    // than the dump, so an absolute floor plus a relative tolerance
    // absorbs the final interval's traffic — anything beyond that is
    // telemetry corrupting counters in flight.
    for (const NodeSpec& s : specs_) {
      const Report& r = reports[s.name];
      const auto it = instr.monCounters.find(s.name);
      std::ostringstream what;
      what << "telemetry counters track ground truth for " << s.name;
      if (!r.self.present || it == instr.monCounters.end()) {
        check(false, what.str() + ": record missing");
        continue;
      }
      const Report::Counters& mon = it->second;
      const auto close = [&](std::uint64_t self, std::uint64_t seen) {
        const double tol =
            std::max(20.0, static_cast<double>(self) * statTolerancePct_ /
                               100.0);
        return std::fabs(static_cast<double>(self) -
                         static_cast<double>(seen)) <= tol;
      };
      what << ": updates " << mon.updates << "/" << r.self.updates << " data "
           << mon.data << "/" << r.self.data << " retx " << mon.retx << "/"
           << r.self.retx << " (tol " << statTolerancePct_ << "%)";
      check(close(r.self.updates, mon.updates) &&
                close(r.self.data, mon.data) && close(r.self.retx, mon.retx),
            what.str());
    }

    // End-to-end delivery-latency gate (--max-p99-ms): each node's
    // whole-run p99 of sampled publish->release latency must stay under
    // the bound. Nodes with too few samples to make a p99 meaningful are
    // skipped individually, but at least one node must clear the sample
    // floor — a gate that silently measured nothing must not pass.
    if (maxP99Ms_ > 0.0) {
      constexpr std::uint64_t kMinLatencySamples = 20;
      std::size_t gated = 0;
      for (const NodeSpec& s : specs_) {
        const Report::Latency& lat = reports[s.name].latency;
        std::ostringstream what;
        what << "latency " << s.name << " p99=" << lat.p99 << "ms (p50="
             << lat.p50 << " max=" << lat.max << ", " << lat.samples
             << " samples) <= " << maxP99Ms_ << "ms";
        if (!lat.present || lat.samples < kMinLatencySamples) {
          std::printf("  [SKIP] %s: below %llu samples\n", what.str().c_str(),
                      static_cast<unsigned long long>(kMinLatencySamples));
          continue;
        }
        ++gated;
        check(lat.p99 <= maxP99Ms_, what.str());
      }
      check(gated > 0, "latency gate measured at least one node");
    }

    // Spurious NACKs: information for tuning, not a gate.
    {
      std::uint64_t total = 0;
      std::ostringstream perNode;
      for (const NodeSpec& s : specs_) {
        const Report::Repair& rep = reports[s.name].repair;
        if (!rep.present) continue;
        total += rep.spuriousNacks;
        perNode << " " << s.name << "=" << rep.spuriousNacks << " ("
                << rep.reorderWindowMaxMs << " ms)";
      }
      std::printf("  [INFO] spurious NACKs %llu; per node, with the widest "
                  "reorder window:%s\n",
                  static_cast<unsigned long long>(total),
                  perNode.str().c_str());
    }

    std::printf("VERDICT: %s (%d failure%s)\n", failures_ == 0 ? "PASS" : "FAIL",
                failures_, failures_ == 1 ? "" : "s");
    return failures_ == 0;
  }

  /// Run `cod_inspect --replay` over the recorded archive, output to
  /// <out>/inspect.log (echoed on failure). Returns the tool's exit code
  /// (0 replay matched, 1 mismatch, 2 unusable archive), -1 on spawn
  /// trouble.
  int replayArchive() {
    std::vector<std::string> argStrs{
        inspectBin_, "--archive=" + archivePath_, "--replay", "--timeline",
        "--expected-interval=" +
            std::to_string(args_.num("telemetry-interval", 1.0)),
        "--silent-after=" + std::to_string(args_.num("silent-after", 3.0))};
    if (killAt_ <= duration_)
      argStrs.push_back("--verify-victim=" + victim_);
    const std::string logPath = outDir_ + "/inspect.log";
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      const int fd =
          ::open(logPath.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argvChild;
      argvChild.reserve(argStrs.size() + 1);
      for (std::string& a : argStrs) argvChild.push_back(a.data());
      argvChild.push_back(nullptr);
      ::execv(inspectBin_.c_str(), argvChild.data());
      std::fprintf(stderr, "execv %s: %s\n", inspectBin_.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    const int rc =
        WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    if (rc != 0) {
      // Surface the replay's own mismatch report in the driver log (CI
      // shows the driver's output; the file is an artifact either way).
      std::ifstream in(logPath);
      std::string line;
      while (std::getline(in, line))
        std::printf("    inspect| %s\n", line.c_str());
    }
    return rc;
  }

  soak::Args args_;
  std::vector<NodeSpec> specs_;
  std::map<std::string, pid_t> pids_;
  std::string outDir_, nodeBin_, victim_, rack_, monitorNode_;
  bool massConnect_ = false;
  int massClasses_ = 56;
  double duration_ = 0.0, lossPct_ = 0.0, killAt_ = 0.0, restartAt_ = 0.0;
  double tolerancePp_ = 5.0, statTolerancePct_ = 10.0;
  std::uint64_t minLossSamples_ = 400;
  double maxP99Ms_ = 0.0;
  std::string starveNode_;
  double starveLossPct_ = 40.0, starveDelayMs_ = 100.0;
  double minPublishRate_ = 0.0;
  bool archiveEnabled_ = false;
  std::string archivePath_, inspectBin_;
  std::uint16_t basePort_ = 0;
  int portsPerHost_ = 4, maxHosts_ = 0;
  int failures_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> known = kPassThroughFlags;
    known.insert(known.end(),
                 {"archive", "base-port", "duration", "inspect-bin",
                  "kill-at", "loss", "mass-classes", "mass-connect",
                  "max-p99-ms", "min-loss-samples", "min-publish-rate",
                  "node-bin", "nodes", "out", "rack", "restart-at",
                  "starve-delay-ms", "starve-loss", "starve-node",
                  "stat-tolerance-pct", "tolerance-pp", "victim"});
    return Driver(soak::Args(argc, argv, known)).run(argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak_driver: %s\n", e.what());
    return 2;
  }
}
