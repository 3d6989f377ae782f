// udp_mesh and lossy_mesh: 8 CBs in one process, each on its own
// UdpTransport over 127.0.0.1, in a full publish/subscribe mesh. One
// thread drives everything on a fixed 1 ms cadence (as soak_node does):
// each round it publishes every update that has come due (open loop,
// phases spread evenly in a seeded order), then ticks every CB, then
// busy-waits for the next round. Crane-state-sized updates (10
// attributes) carry their due time, so delivery is timed from when the
// update was due, not from when the generator got round to it.
//
//   udp_mesh:   4 classes per node at 200 Hz (3 best-effort state streams
//               and one reliable stream, like the rack's own mix): 224
//               channels. Poll/decode, routing, batching and flush
//               syscalls carry the work; per-datagram, batching and
//               async-engine changes show here.
//   lossy_mesh: 16 reliable-ordered classes per node at 25 Hz (896
//               channels), every UdpTransport behind a seeded
//               ImpairedTransport with 25% send-side loss, bring-up
//               included. Same core layer as udp_mesh, but through its
//               repair and control paths (NACK, tail-RTO and heartbeat
//               timers, wide routing tables), so a fast-path gain that
//               costs the repair path, or the reverse, shows here.
//               (At 50 Hz the driver thread ran ~85% busy and its tails
//               swung with host speed; 25 Hz keeps it near half busy.)
//
// A run is several windows, each with its own bring-up (setup_s is their
// median), timed window and drain: after the window no more updates are
// generated and the CBs keep ticking until every stream has been
// delivered (or drainMaxSec passes), so repair finishes before delivery
// is judged. The stack runs on the round grid: round k of a window's
// bring-up, timed window and drain hands every CB the time origin + k ms
// (the round's scheduled time), and updates come due by that time too.
// Loopback delivers a datagram into the receiver's socket before sendto
// returns, so each window of a run repeats the same seeded schedule, loss
// pattern and timer sweeps round for round; a round's driver time is its
// fastest over the windows (see foldMin). Host time still decides every
// latency: delivery is timed on the wall clock from the due time, and the
// generator's lateness is wall clock minus due time.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cb.hpp"
#include "math/rng.hpp"
#include "net/impair.hpp"
#include "net/udp.hpp"
#include "workloads.hpp"

namespace perfbench {

std::optional<MeshParams> meshParams(const std::string& workload) {
  MeshParams p;
  if (workload == "udp_mesh") return p;
  if (workload == "lossy_mesh") {
    p.classes = 16;
    p.reliableClasses = 16;
    p.rateHz = 25.0;
    p.lossPct = 25.0;
    p.windows = 8;  // each bring-up and drain takes ~1 s under loss
    p.drainMaxSec = 10.0;
    return p;
  }
  return std::nullopt;
}

namespace {

using cod::core::AttributeSet;
using cod::core::CommunicationBackbone;
using cod::telemetry::TickPhase;

constexpr double kCadenceSec = 0.001;
/// Receive buffer asked of every mesh socket (the kernel caps it at
/// net.core.rmem_max). One thread drives all eight nodes, so after a host
/// stall every node publishes its overdue updates in the same round; the
/// default buffer (~200 KiB) then drops part of that burst on loopback,
/// which would read as lost best-effort updates the stack never lost.
constexpr int kSocketRecvBytes = 4 << 20;
constexpr double kWireTimeoutSec = 30.0;
/// A run whose generator ran later than this for a tenth of its updates
/// fell behind schedule: it did not offer the workload's rate and counts
/// as a failed operation. (A p90 gate ignores the isolated host stalls a
/// shared machine shows, which driver.late_ms_p99 still reports.)
constexpr double kMaxLateP90Ms = 10.0;
/// Time slices of due times whose delivery p99s are medianed into the
/// run's p99, so one host stall moves one slice instead of the result.
constexpr double kDeliverSliceSec = 0.1;

struct Stream {
  std::string className;
  int node = 0;
  bool reliable = false;
};

/// What one subscriber has seen of one stream.
struct RxState {
  std::uint64_t delivered = 0;  // reliable: in-order prefix; else distinct
  std::uint64_t lastSeq = 0;
  std::uint64_t outOfOrder = 0;  // reliable seq past a gap
  std::uint64_t stale = 0;       // seq at or below one already delivered
};

/// One node's LP: publishes its own streams (driven from outside by the
/// generator) and checks every stream it subscribes to.
class MeshLp final : public cod::core::LogicalProcess {
 public:
  MeshLp(int node, const std::vector<Stream>& streams,
         const std::unordered_map<std::string, int>& index,
         SlicedSamples& deliverMs, std::uint64_t& reflections)
      : LogicalProcess("perfbench-mesh-" + std::to_string(node)),
        streams_(streams),
        index_(index),
        deliverMs_(deliverMs),
        reflections_(reflections),
        rx_(streams.size()) {}

  const RxState& rx(int stream) const { return rx_[stream]; }

  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs, double) override {
    const double now = wallSec();
    const auto it = index_.find(className);
    if (it == index_.end()) return;
    RxState& rx = rx_[it->second];
    const auto seq = static_cast<std::uint64_t>(attrs.getInt("seq"));
    if (seq <= rx.lastSeq) {
      ++rx.stale;
      return;
    }
    if (streams_[it->second].reliable && seq != rx.lastSeq + 1) {
      ++rx.outOfOrder;
      return;  // the stream stops advancing: everything after it fails
    }
    rx.lastSeq = seq;
    ++rx.delivered;
    ++reflections_;
    const double due = attrs.getDouble("due");
    deliverMs_.add(due, (now - due) * 1e3);
  }

 private:
  const std::vector<Stream>& streams_;
  const std::unordered_map<std::string, int>& index_;
  SlicedSamples& deliverMs_;
  std::uint64_t& reflections_;
  std::vector<RxState> rx_;
};

/// Generator state of one published stream.
struct TxState {
  cod::core::PublicationHandle handle = cod::core::kInvalidHandle;
  double nextDue = 0.0;
  std::uint64_t seq = 0;
  AttributeSet attrs;
  cod::math::Rng rng;
};

/// Everything one mode (untraced or traced) accumulates over its windows.
struct MeshTotals {
  int windows = 0;
  Samples setupSec, deliverMs, lateMs;
  Samples deliverP99s;      // one per kDeliverSliceSec of due times
  Samples windowReflections;  // one per window
  // Per round, its fastest driver time (generation + ticks) and tick time
  // over the windows (see foldMin).
  std::vector<double> bestRoundMs, bestTickMs;
  double windowSec = 0.0, tickSec = 0.0, genSec = 0.0, idleSec = 0.0;
  std::uint64_t rounds = 0, reflections = 0;
  std::uint64_t offered = 0, dropped = 0;  // impairment layer ground truth
  LayerTotals layer;

  /// Summed fastest tick time per reflection.
  double cpuUsPerUpdate() const {
    return sumOf(bestTickMs) * 1e3 / windowReflections.median();
  }
};

class Mesh {
 public:
  Mesh(const RunArgs& args, const MeshParams& p, bool traced) : p_(p) {
    for (int n = 0; n < p.nodes; ++n)
      for (int c = 0; c < p.classes; ++c) {
        std::string name = "pb.n" + std::to_string(n) + ".c" + std::to_string(c);
        index_[name] = static_cast<int>(streams_.size());
        streams_.push_back(
            {std::move(name), n, c >= p.classes - p.reliableClasses});
      }

    cod::net::UdpConfig ucfg;
    ucfg.portsPerHost = 1;
    ucfg.maxHosts = static_cast<std::uint16_t>(p.nodes);
    ucfg.basePort =
        cod::net::pickEphemeralBasePort(static_cast<std::uint16_t>(p.nodes));
    CommunicationBackbone::Config cfg;
    cfg.phaseProfile = traced;

    for (int n = 0; n < p.nodes; ++n) {
      std::unique_ptr<cod::net::Transport> t =
          std::make_unique<cod::net::UdpTransport>(
              ucfg, static_cast<cod::net::HostId>(n), 0);
      ::setsockopt(t->pollableFd(), SOL_SOCKET, SO_RCVBUF, &kSocketRecvBytes,
                   sizeof kSocketRecvBytes);
      int granted = 0;
      socklen_t len = sizeof granted;
      if (::getsockopt(t->pollableFd(), SOL_SOCKET, SO_RCVBUF, &granted,
                       &len) != 0)
        granted = 0;
      minRecvBytes_ = n == 0 ? granted : std::min(minRecvBytes_, granted);
      if (p.lossPct > 0.0) {
        cod::net::ImpairmentConfig icfg;
        icfg.lossPct = p.lossPct;
        icfg.seed = args.seed * 1000003u + static_cast<std::uint64_t>(n);
        auto impaired =
            std::make_unique<cod::net::ImpairedTransport>(std::move(t), icfg);
        impaired_.push_back(impaired.get());
        t = std::move(impaired);
      }
      lps_.push_back(std::make_unique<MeshLp>(n, streams_, index_, deliverMs,
                                              reflections));
      cbs_.push_back(std::make_unique<CommunicationBackbone>(
          "mesh-" + std::to_string(n), std::move(t), cfg));
      cbs_[n]->attach(*lps_[n]);
    }

    // Phase offsets are stratified: the streams' due times are spread
    // evenly over one period in a seeded order, so every seed offers the
    // same smooth load and only the interleaving differs.
    cod::math::Rng seeder(args.seed * 7919u);
    const double period = 1.0 / p.rateHz;
    const double shift = seeder.uniform();
    std::vector<std::size_t> order(streams_.size());
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    for (std::size_t s = order.size(); s > 1; --s)
      std::swap(order[s - 1], order[static_cast<std::size_t>(seeder.uniformInt(
                                  0, static_cast<std::int64_t>(s) - 1))]);
    tx_.resize(streams_.size());
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      const Stream& st = streams_[s];
      const auto qos = st.reliable ? cod::net::QosClass::kReliableOrdered
                                   : cod::net::QosClass::kBestEffort;
      tx_[s].handle =
          cbs_[st.node]->publishObjectClass(*lps_[st.node], st.className, qos);
      tx_[s].nextDue =  // offset, rebased at window start
          period * (static_cast<double>(order[s]) + shift) /
          static_cast<double>(streams_.size());
      tx_[s].rng.reseed(seeder.next());
      for (int n = 0; n < p.nodes; ++n)
        if (n != st.node)
          subs_.push_back(
              {n, cbs_[n]->subscribeObjectClass(*lps_[n], st.className, qos)});
    }
  }

  SlicedSamples deliverMs;
  std::uint64_t reflections = 0;

  /// Smallest receive buffer the kernel granted a mesh socket (Linux
  /// reports twice the usable size); 0 if it could not be read.
  int minRecvBytes() const { return minRecvBytes_; }

  /// Scheduled time of round k (origin set when bring-up starts).
  double roundTime(std::uint64_t k) const {
    return origin_ + static_cast<double>(k) * kCadenceSec;
  }
  /// The round the next tickAll() runs.
  std::uint64_t round() const { return round_; }

  /// Tick every CB once at the current round's scheduled time, timing each
  /// tick; returns the summed tick time and moves on to the next round.
  double tickAll() {
    const double now = roundTime(round_++);
    double busy = 0.0;
    for (auto& cb : cbs_) {
      const double t = wallSec();
      cb->tick(now);
      busy += wallSec() - t;
    }
    return busy;
  }

  bool wired() const {
    for (const auto& [n, h] : subs_)
      if (!cbs_[n]->connected(h)) return false;
    return true;
  }

  /// Tick on the cadence until every subscription has a live channel.
  bool wire() {
    origin_ = wallSec();
    for (;;) {
      if (wired()) return true;
      if (wallSec() - origin_ > kWireTimeoutSec) return false;
      tickAll();
      waitUntil(roundTime(round_));
    }
  }

  /// Publish every update due by the current round's scheduled time (and
  /// before `end`), recording how late on the wall clock each one went out.
  void generate(double end, Samples& lateMs) {
    const double now = roundTime(round_);
    const double period = 1.0 / p_.rateHz;
    for (std::size_t s = 0; s < tx_.size(); ++s) {
      TxState& tx = tx_[s];
      const int node = streams_[s].node;
      while (tx.nextDue <= now && tx.nextDue < end) {
        fillAttributes(tx, node);
        cbs_[node]->updateAttributeValues(tx.handle, tx.attrs, now);
        lateMs.add((wallSec() - tx.nextDue) * 1e3);
        tx.nextDue += period;
      }
    }
  }

  void rebaseSchedule(double t0) {
    for (TxState& tx : tx_) tx.nextDue += t0;
  }

  bool allDelivered() const {
    for (std::size_t s = 0; s < streams_.size(); ++s)
      for (int n = 0; n < p_.nodes; ++n)
        if (n != streams_[s].node &&
            lps_[n]->rx(static_cast<int>(s)).delivered < tx_[s].seq)
          return false;
    return true;
  }

  /// Fold delivery into attempted/failed and flag contract violations.
  void judge(Result& r) const {
    std::uint64_t outOfOrder = 0, stale = 0;
    for (std::size_t s = 0; s < streams_.size(); ++s)
      for (int n = 0; n < p_.nodes; ++n) {
        if (n == streams_[s].node) continue;
        const RxState& rx = lps_[n]->rx(static_cast<int>(s));
        r.attempted += tx_[s].seq;
        r.failed += tx_[s].seq - std::min(rx.delivered, tx_[s].seq);
        outOfOrder += rx.outOfOrder;
        if (streams_[s].reliable) stale += rx.stale;
      }
    if (outOfOrder > 0)
      r.fail(std::to_string(outOfOrder) +
             " reliable reflections arrived past a gap (not gapless in order)");
    if (stale > 0)
      r.fail(std::to_string(stale) +
             " reliable reflections repeated an already-delivered sequence");
  }

  CbCounters counters() const {
    std::vector<const CommunicationBackbone*> cbs;
    for (const auto& cb : cbs_) cbs.push_back(cb.get());
    return CbCounters::take(cbs);
  }

  void addImpairment(MeshTotals& m) const {
    for (const auto* t : impaired_) {
      const auto st = t->impairmentStats();
      m.offered += st.offered;
      m.dropped += st.dropped;
    }
  }

 private:
  /// Ten crane-state-sized attributes: sequence, due time, source and
  /// seeded pose values.
  void fillAttributes(TxState& tx, int node) {
    auto& a = tx.attrs;
    auto& g = tx.rng;
    a.set("seq", static_cast<std::int64_t>(++tx.seq));
    a.set("due", tx.nextDue);
    a.set("src", static_cast<std::int64_t>(node));
    a.set("hook", cod::math::Vec3{g.uniform(-40, 40), g.uniform(0, 30),
                                  g.uniform(-40, 40)});
    a.set("boom", cod::math::Vec3{g.uniform(-1, 1), g.uniform(0, 1),
                                  g.uniform(-1, 1)});
    a.set("slew", g.uniform(-3.14159, 3.14159));
    a.set("luff", g.uniform(0.0, 1.4));
    a.set("speed", g.uniform(0.0, 8.0));
    a.set("load", g.uniform(0.0, 12000.0));
    a.set("alarms", static_cast<std::int64_t>(g.uniformInt(0, 15)));
  }

  const MeshParams& p_;
  double origin_ = 0.0;
  std::uint64_t round_ = 0;
  int minRecvBytes_ = 0;
  std::vector<Stream> streams_;
  std::unordered_map<std::string, int> index_;
  std::vector<TxState> tx_;
  std::vector<std::pair<int, cod::core::SubscriptionHandle>> subs_;
  std::vector<cod::net::ImpairedTransport*> impaired_;  // owned by cbs_
  // LPs outlive their CBs (the CB detaches survivors on destruction).
  std::vector<std::unique_ptr<MeshLp>> lps_;
  std::vector<std::unique_ptr<CommunicationBackbone>> cbs_;
};

/// The timed window and drain on a wired mesh, folded into `m`.
void runTimed(const MeshParams& p, int window, double windowSec, bool traced,
              double setup, Mesh& mesh, MeshTotals& m, Result& r) {
  const std::uint64_t bringUpRounds = mesh.round();
  const CbCounters before = mesh.counters();
  const std::uint64_t reflBefore = mesh.reflections;

  std::vector<double> roundMs, tickMs;
  Samples lateMs;
  double tickSec = 0.0, genSec = 0.0, idleSec = 0.0;
  // The window starts on the round grid, at the round after bring-up.
  const double t0 = mesh.roundTime(mesh.round());
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(std::llround(windowSec / kCadenceSec));
  const double end = t0 + static_cast<double>(rounds) * kCadenceSec;
  mesh.rebaseSchedule(t0);
  mesh.deliverMs.reset(t0, kDeliverSliceSec);
  const double wall0 = wallSec();
  for (std::uint64_t k = 0; k < rounds; ++k) {
    const double start = wallSec();
    mesh.generate(end, lateMs);
    const double gen = wallSec() - start;
    const double ticks = mesh.tickAll();
    genSec += gen;
    tickSec += ticks;
    roundMs.push_back((gen + ticks) * 1e3);
    tickMs.push_back(ticks * 1e3);
    const double idle0 = wallSec();
    waitUntil(mesh.roundTime(mesh.round()));
    idleSec += wallSec() - idle0;
  }
  const double elapsed = wallSec() - wall0;
  const CbCounters after = mesh.counters();
  const std::uint64_t reflections = mesh.reflections - reflBefore;

  // Drain: no new updates; keep ticking until every stream is complete.
  const double d0 = wallSec();
  while (!mesh.allDelivered()) {
    if (wallSec() - d0 > p.drainMaxSec) break;
    mesh.tickAll();
    waitUntil(mesh.roundTime(mesh.round()));
  }
  const double drain = wallSec() - d0;

  const std::uint64_t failedBefore = r.failed;
  mesh.judge(r);
  const double lateP99 = lateMs.quantile(0.99);
  char line[400];
  std::snprintf(line, sizeof line,
                "window %d%s: setup %.4f s (%llu rounds, %llu datagrams), "
                "%.3f s timed, %llu rounds, %llu datagrams, %llu reflections, "
                "late p99 %.3f ms, drain %.3f s, failed %llu, socket rcvbuf "
                "granted %d B (asked %d)",
                window, traced ? " traced" : "", setup,
                static_cast<unsigned long long>(bringUpRounds),
                static_cast<unsigned long long>(before.packets), elapsed,
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(after.packets - before.packets),
                static_cast<unsigned long long>(reflections), lateP99, drain,
                static_cast<unsigned long long>(r.failed - failedBefore),
                mesh.minRecvBytes(), kSocketRecvBytes);
  r.notes.emplace_back(line);

  ++m.windows;
  m.layer.setupDatagrams.add(static_cast<double>(before.packets));
  foldMin(m.bestRoundMs, roundMs);
  foldMin(m.bestTickMs, tickMs);
  m.windowReflections.add(static_cast<double>(reflections));
  m.deliverMs.append(mesh.deliverMs.all());
  mesh.deliverMs.sliceQuantiles(0.99, kMinP99Samples, m.deliverP99s);
  m.lateMs.append(lateMs);
  m.windowSec += elapsed;
  m.tickSec += tickSec;
  m.genSec += genSec;
  m.idleSec += idleSec;
  m.rounds += rounds;
  m.reflections += reflections;
  m.layer.add(before, after);
  mesh.addImpairment(m);
}

/// The bring-up of one window, then its timed run, folded into `m`.
void runWindow(const RunArgs& args, const MeshParams& p, int window,
               double windowSec, bool traced, MeshTotals& m, Result& r) {
  const double setupStart = wallSec();
  Mesh mesh(args, p, traced);
  const bool wired = mesh.wire();
  const double setup = wallSec() - setupStart;
  if (!wired) {
    ++r.attempted;
    ++r.failed;
    r.fail("window " + std::to_string(window) + ": mesh did not wire within " +
           std::to_string(kWireTimeoutSec) + " s");
    return;
  }
  m.setupSec.add(setup);
  runTimed(p, window, windowSec, traced, setup, mesh, m, r);
}

void reportEndToEnd(const MeshTotals& m, Result& r) {
  // The driver-time figures come from the per-round fastest series.
  // rack_rtf here is scheduled seconds per busy wall second: how many
  // times faster than real time this host could drive the mesh. Delivery
  // is paced by the 1 ms cadence, not by host speed: pooled p50 and the
  // median of per-slice p99s.
  const Samples rounds(m.bestRoundMs);
  r.set("setup_s", m.setupSec.median());
  r.set("rack_rtf", static_cast<double>(rounds.count()) * kCadenceSec /
                        (sumOf(m.bestRoundMs) * 1e-3));
  r.set("frame_ms_p50", rounds.quantile(0.50));
  r.set("frame_ms_p99", rounds.quantile(0.99));
  r.set("cpu_us_per_update", m.cpuUsPerUpdate());
  r.set("deliver_ms_p50", m.deliverMs.quantile(0.50));
  r.set("deliver_ms_p99", runP99(m.deliverP99s, m.deliverMs));
  char line[240];
  std::snprintf(line, sizeof line,
                "samples: %d windows of %zu rounds, %zu deliveries, %zu "
                "setups; whole-run cpu_us_per_update %.3f; driver late p99 "
                "%.3f ms",
                m.windows, rounds.count(), m.deliverMs.count(),
                m.setupSec.count(),
                m.tickSec * 1e6 / static_cast<double>(m.reflections),
                m.lateMs.quantile(0.99));
  r.notes.emplace_back(line);
}

void reportPerLayer(const MeshTotals& t, const MeshTotals& u, Result& r) {
  setCoreAndNet(t.layer, r);
  r.set("net.loss_injected_pct",
        t.offered == 0 ? 0.0
                       : 100.0 * static_cast<double>(t.dropped) /
                             static_cast<double>(t.offered));
  r.set("driver.late_ms_p99", t.lateMs.quantile(0.99));
  r.set("trace.overhead_pct",
        100.0 * (t.cpuUsPerUpdate() - u.cpuUsPerUpdate()) / u.cpuUsPerUpdate());

  // Layer-sum table, per tick round: the CB phases plus the generator and
  // the idle wait against the round's wall time.
  const double rounds = static_cast<double>(t.rounds);
  const auto ms = [&](double sec) { return sec * 1e3 / rounds; };
  const auto phase = [&](TickPhase p) { return ms(t.layer.phaseSecOf(p)); };
  r.layerUnit = "tick round";
  r.layerWallMs = ms(t.windowSec);
  r.layerTickMs = ms(t.tickSec);
  r.layerTicks = static_cast<double>(t.layer.tickCount) / rounds;
  r.layers = {{"core.poll", phase(TickPhase::kPollDecode)},
              {"core.route", phase(TickPhase::kRoute)},
              {"core.timer", phase(TickPhase::kTimers)},
              {"core.stage", phase(TickPhase::kStage)},
              {"core.flush", phase(TickPhase::kFlush)}};
  for (const LayerRow& row : r.layers) r.layerPhaseMs += row.ms;
  r.layers.push_back({"driver.generate", ms(t.genSec)});
  r.layers.push_back({"driver.idle", ms(t.idleSec)});
}

}  // namespace

Result runMesh(const RunArgs& args, const MeshParams& p) {
  Result r;
  MeshTotals untraced, traced;
  // Traced runs alternate untraced and traced windows.
  const double windowSec = args.seconds / p.windows;
  for (int w = 0; w < p.windows; ++w) {
    const bool doTraced = args.trace && w % 2 == 1;
    runWindow(args, p, w, windowSec, doTraced, doTraced ? traced : untraced, r);
  }
  if (untraced.windows == 0 || (args.trace && traced.windows == 0)) {
    r.fail("no window ran");
    return r;
  }
  // The offered-rate check, once per mode over all its windows: windows
  // are short, and one host stall must not read as a generator that
  // cannot keep up.
  for (const MeshTotals* m : {&untraced, &traced}) {
    if (m->windows == 0) continue;
    ++r.attempted;
    const double lateP90 = m->lateMs.quantile(0.90);
    if (lateP90 > kMaxLateP90Ms) {
      ++r.failed;
      r.fail("generator fell behind schedule (late p90 " +
             std::to_string(lateP90) + " ms), offered rate not met");
    }
  }
  reportEndToEnd(untraced, r);
  if (args.trace) reportPerLayer(traced, untraced, r);
  return r;
}

}  // namespace perfbench
