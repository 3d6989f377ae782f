#include "telemetry/monitor.hpp"

#include <algorithm>
#include <cstdio>

namespace cod::telemetry {

namespace {

/// Counter rate with restart protection: a publisher that restarted
/// (counters back to zero) must not produce a huge unsigned wraparound.
double rate(std::uint64_t cur, std::uint64_t prev, double dtSec) {
  if (cur < prev || dtSec <= 0.0) return 0.0;
  return static_cast<double>(cur - prev) / dtSec;
}

std::uint64_t delta(std::uint64_t cur, std::uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

}  // namespace

double reliableLossEstimatePct(std::uint64_t dataFramesSent,
                               std::uint64_t retransmitsSent,
                               std::uint64_t duplicatesReported) {
  const std::uint64_t attempts = dataFramesSent + retransmitsSent;
  const std::uint64_t losses = retransmitsSent > duplicatesReported
                                   ? retransmitsSent - duplicatesReported
                                   : 0;
  return attempts == 0 ? 0.0
                       : 100.0 * static_cast<double>(losses) /
                             static_cast<double>(attempts);
}

const char* alarmKindName(HealthAlarm::Kind k) {
  switch (k) {
    case HealthAlarm::Kind::kNodeSilent: return "NODE_SILENT";
    case HealthAlarm::Kind::kNodeRecovered: return "NODE_RECOVERED";
    case HealthAlarm::Kind::kLossSpike: return "LOSS_SPIKE";
    case HealthAlarm::Kind::kRetransmitStorm: return "RETX_STORM";
    case HealthAlarm::Kind::kMailboxOverflow: return "MAILBOX_OVERFLOW";
    case HealthAlarm::Kind::kLossCleared: return "LOSS_CLEARED";
    case HealthAlarm::Kind::kRetransmitCleared: return "RETX_CLEARED";
    case HealthAlarm::Kind::kOverflowCleared: return "OVERFLOW_CLEARED";
    case HealthAlarm::Kind::kChannelWindowPinned: return "CHAN_WINDOW_PINNED";
    case HealthAlarm::Kind::kChannelRetransmitStorm: return "CHAN_RETX_STORM";
    case HealthAlarm::Kind::kChannelWindowCleared: return "CHAN_WINDOW_CLEARED";
    case HealthAlarm::Kind::kChannelRetransmitCleared:
      return "CHAN_RETX_CLEARED";
    case HealthAlarm::Kind::kLatencySpike: return "LATENCY_SPIKE";
    case HealthAlarm::Kind::kLatencyCleared: return "LATENCY_CLEARED";
  }
  return "UNKNOWN";
}

HealthAlarm::Severity alarmSeverity(HealthAlarm::Kind k) {
  switch (k) {
    // Data has stopped flowing (or the node itself is gone): critical.
    case HealthAlarm::Kind::kNodeSilent:
    case HealthAlarm::Kind::kChannelWindowPinned:
      return HealthAlarm::Severity::kCritical;
    // Degraded but still moving: warning.
    case HealthAlarm::Kind::kLossSpike:
    case HealthAlarm::Kind::kRetransmitStorm:
    case HealthAlarm::Kind::kMailboxOverflow:
    case HealthAlarm::Kind::kChannelRetransmitStorm:
    case HealthAlarm::Kind::kLatencySpike:
      return HealthAlarm::Severity::kWarning;
    // Recoveries and falling edges: informational.
    case HealthAlarm::Kind::kNodeRecovered:
    case HealthAlarm::Kind::kLossCleared:
    case HealthAlarm::Kind::kRetransmitCleared:
    case HealthAlarm::Kind::kOverflowCleared:
    case HealthAlarm::Kind::kChannelWindowCleared:
    case HealthAlarm::Kind::kChannelRetransmitCleared:
    case HealthAlarm::Kind::kLatencyCleared:
      return HealthAlarm::Severity::kInfo;
  }
  return HealthAlarm::Severity::kWarning;
}

const char* severityName(HealthAlarm::Severity s) {
  switch (s) {
    case HealthAlarm::Severity::kInfo: return "INFO";
    case HealthAlarm::Severity::kWarning: return "WARN";
    case HealthAlarm::Severity::kCritical: return "CRIT";
  }
  return "WARN";
}

HealthMonitor::HealthMonitor(MonitorConfig cfg)
    : core::LogicalProcess("health-monitor"), cfg_(cfg) {}

void HealthMonitor::bind(core::CommunicationBackbone& cb) {
  cb_ = &cb;
  cb.attach(*this);
  sub_ = cb.subscribeObjectClass(*this, kTelemetryClass);
}

void HealthMonitor::reflectAttributeValues(const std::string& className,
                                           const core::AttributeSet& attrs,
                                           double /*timestamp*/) {
  if (className != kTelemetryClass) return;
  const core::AttributeValue* v = attrs.find(kTelemetryAttr);
  if (v == nullptr || !v->isBlob()) {
    ++undecodable_;
    return;
  }
  // A record that fails to decode is dropped whole: it refreshes no
  // node's liveness and creates no row.
  auto t = decodeTelemetry(v->asBlob());
  if (!t) {
    ++undecodable_;
    return;
  }
  applySnapshot(std::move(*t));
}

void HealthMonitor::applySnapshot(NodeTelemetry&& t) {
  // A record this far behind the node's last applied sequence is a
  // publisher restart, not reordering: at snapshot cadence (~1 Hz) a
  // record delayed by several whole intervals is effectively impossible
  // on a LAN, while a restarted publisher whose literal seq-1 record was
  // lost (telemetry is best effort) would otherwise be stale-dropped
  // until its new sequence caught the old one — a frozen health row for
  // however long the dead process had been up.
  constexpr std::uint64_t kRestartSeqGap = 3;
  NodeState& st = nodes_[t.node];
  NodeHealth& h = st.health;
  if (h.snapshotsApplied > 0) {
    const bool restarted =
        t.seq < h.last.seq &&
        (t.seq == 1 || t.seq + kRestartSeqGap < h.last.seq);
    if (restarted) {
      // Previous counters belong to a dead process — but a node that was
      // flagged SILENT and came back as a new process still owes the feed
      // its RECOVERED edge, so the flag survives the reset.
      const bool wasSilent = h.silent;
      st = NodeState{};
      h.silent = wasSilent;
    } else if (t.seq <= h.last.seq) {
      ++h.staleDropped;  // reordered or duplicated snapshot
      return;
    }
  }
  if (h.snapshotsApplied > 0) {
    // The interval length every rate this snapshot produces divides by,
    // computed ONCE from the seq-paired publisher clocks. The sequence
    // check above guarantees cur is newer than prev, so a non-positive dt
    // means the publisher clock itself went backwards — a restart whose
    // seq-reset record was lost (telemetry is best effort). Deriving
    // rates from that pair would divide counter deltas of two different
    // processes; reset instead, exactly like an announced restart.
    const double dt = t.nodeTimeSec - h.last.nodeTimeSec;
    if (dt <= 0.0) {
      const bool wasSilent = h.silent;
      st = NodeState{};
      h.silent = wasSilent;
    } else {
      deriveRates(st, h.last, t, dt);
    }
  }
  if (h.silent) {
    h.silent = false;
    raise(HealthAlarm::Kind::kNodeRecovered, t.node, "node is back");
  }
  h.lastHeardSec = now_;
  ++h.snapshotsApplied;
  // Archive the applied state re-encoded, stamped with this monitor's
  // clock — replaying against these timestamps reproduces its silence
  // judgement exactly.
  if (archive_ != nullptr) archive_->appendSnapshot(encodeTelemetry(t), now_);
  h.last = std::move(t);
}

void HealthMonitor::deriveRates(NodeState& st, const NodeTelemetry& prev,
                                const NodeTelemetry& cur, double dtSec) {
  NodeHealth& h = st.health;
  const double dt = dtSec;
  h.updatesPerSec = rate(cur.cb.updatesSent, prev.cb.updatesSent, dt);
  h.retransmitsPerSec =
      rate(cur.cb.reliable.retransmitsSent, prev.cb.reliable.retransmitsSent,
           dt);
  const std::uint64_t dDropped =
      delta(cur.transport.framesDropped, prev.transport.framesDropped);
  const std::uint64_t dReceived =
      delta(cur.transport.framesReceived, prev.transport.framesReceived);
  h.lossPct = (dDropped + dReceived) == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(dDropped) /
                        static_cast<double>(dDropped + dReceived);
  // Real sockets cannot attribute drops (framesDropped pinned at 0), so
  // loss there must be inferred from the reliable layer's own counters.
  // Duplicate-corrected: subscriber-reported duplicates in the interval
  // are retransmits whose originals arrived — not losses.
  h.reliableLossPct = reliableLossEstimatePct(
      delta(cur.cb.reliable.dataFramesSent, prev.cb.reliable.dataFramesSent),
      delta(cur.cb.reliable.retransmitsSent,
            prev.cb.reliable.retransmitsSent),
      delta(cur.cb.reliable.peerDuplicatesReported,
            prev.cb.reliable.peerDuplicatesReported));
  const std::uint64_t dBytes =
      delta(cur.transport.bytesSent, prev.transport.bytesSent);
  const std::uint64_t dPackets =
      delta(cur.transport.packetsSent, prev.transport.packetsSent);
  h.bytesPerDatagram = dPackets == 0 ? 0.0
                                     : static_cast<double>(dBytes) /
                                           static_cast<double>(dPackets);
  if (h.effectiveLossPct() > peakLossPct_) {
    peakLossPct_ = h.effectiveLossPct();
    peakLossNode_ = cur.node;
  }

  // Interval delivery-latency percentiles: diff the cumulative histogram
  // exactly as rates diff the counters.
  constexpr std::size_t kLat = CbHistograms::kDeliveryLatencyIdx;
  const HistogramSnapshot dLat =
      LogHistogram::diff(cur.hists[kLat], prev.hists[kLat]);
  const double lowest = CbHistograms::lowestOf(kLat);
  h.latencySamples = dLat.count;
  if (dLat.count > 0) {
    h.latencyP50Ms = LogHistogram::percentile(dLat, 0.50, lowest) * 1e3;
    h.latencyP90Ms = LogHistogram::percentile(dLat, 0.90, lowest) * 1e3;
    h.latencyP99Ms = LogHistogram::percentile(dLat, 0.99, lowest) * 1e3;
    h.latencyMaxMs = dLat.max * 1e3;
  } else {
    h.latencyP50Ms = h.latencyP90Ms = h.latencyP99Ms = h.latencyMaxMs = 0.0;
  }

  // Per-phase interval p99s and the hot phase (where the interval's tick
  // time actually went — judged by summed duration, not p99, so one
  // outlier doesn't crown a quiet phase) from the phase block.
  h.phaseP99Ms.fill(0.0);
  h.hotPhase = -1;
  if (cur.phaseProfiling) {
    double hotSum = 0.0;
    for (std::size_t i = 0; i < kTickPhaseCount; ++i) {
      const HistogramSnapshot dPhase =
          LogHistogram::diff(cur.phases[i], prev.phases[i]);
      if (dPhase.count > 0)
        h.phaseP99Ms[i] = LogHistogram::percentile(
                              dPhase, 0.99, TickPhaseHistograms::lowestOf(i)) *
                          1e3;
      if (dPhase.sum > hotSum) {
        hotSum = dPhase.sum;
        h.hotPhase = static_cast<int>(i);
      }
    }
  }

  // Threshold alarms, edge-triggered per node. Loss judges the effective
  // figure: frame accounting where the transport attributes drops, the
  // reliable-layer estimate on real sockets.
  char buf[96];
  if (h.effectiveLossPct() >= kLossSpikePct) {
    if (!st.lossAlarm) {
      st.lossAlarm = true;
      std::snprintf(buf, sizeof(buf), "inbound loss %.1f%% (threshold %.1f%%)",
                    h.effectiveLossPct(), kLossSpikePct);
      raise(HealthAlarm::Kind::kLossSpike, cur.node, buf);
    }
  } else if (st.lossAlarm) {
    st.lossAlarm = false;
    std::snprintf(buf, sizeof(buf), "inbound loss back to %.1f%% (threshold %.1f%%)",
                  h.effectiveLossPct(), kLossSpikePct);
    raise(HealthAlarm::Kind::kLossCleared, cur.node, buf);
  }
  if (h.retransmitsPerSec >= kRetransmitStormPerSec) {
    if (!st.retxAlarm) {
      st.retxAlarm = true;
      std::snprintf(buf, sizeof(buf), "%.1f retransmits/s (threshold %.1f)",
                    h.retransmitsPerSec, kRetransmitStormPerSec);
      raise(HealthAlarm::Kind::kRetransmitStorm, cur.node, buf);
    }
  } else if (st.retxAlarm) {
    st.retxAlarm = false;
    std::snprintf(buf, sizeof(buf), "back to %.1f retransmits/s (threshold %.1f)",
                  h.retransmitsPerSec, kRetransmitStormPerSec);
    raise(HealthAlarm::Kind::kRetransmitCleared, cur.node, buf);
  }
  const std::uint64_t dOverflow =
      delta(cur.cb.mailboxOverflows, prev.cb.mailboxOverflows);
  if (dOverflow > 0) {
    if (!st.overflowAlarm) {
      st.overflowAlarm = true;
      std::snprintf(buf, sizeof(buf),
                    "%llu reflections dropped on full mailboxes",
                    static_cast<unsigned long long>(dOverflow));
      raise(HealthAlarm::Kind::kMailboxOverflow, cur.node, buf);
    }
  } else if (st.overflowAlarm) {
    st.overflowAlarm = false;
    raise(HealthAlarm::Kind::kOverflowCleared, cur.node,
          "mailboxes draining again");
  }
  // Latency spike, edge-triggered like the others. Intervals with fewer
  // than kLatencyMinSamples are not judged either way — sparse sampling
  // must neither raise on one outlier nor clear on an empty interval.
  if (h.latencySamples >= kLatencyMinSamples) {
    if (h.latencyP99Ms >= kLatencySpikeP99Ms) {
      if (!st.latencyAlarm) {
        st.latencyAlarm = true;
        std::snprintf(buf, sizeof(buf),
                      "delivery p99 %.1fms over %llu samples (threshold %.1fms)",
                      h.latencyP99Ms,
                      static_cast<unsigned long long>(h.latencySamples),
                      kLatencySpikeP99Ms);
        raise(HealthAlarm::Kind::kLatencySpike, cur.node, buf);
      }
    } else if (st.latencyAlarm) {
      st.latencyAlarm = false;
      std::snprintf(buf, sizeof(buf),
                    "delivery p99 back to %.1fms (threshold %.1fms)",
                    h.latencyP99Ms, kLatencySpikeP99Ms);
      raise(HealthAlarm::Kind::kLatencyCleared, cur.node, buf);
    }
  }

  deriveChannelAlarms(st, prev, cur, dt);
}

void HealthMonitor::deriveChannelAlarms(NodeState& st,
                                        const NodeTelemetry& prev,
                                        const NodeTelemetry& cur,
                                        double dtSec) {
  const double dt = dtSec;
  // Previous retransmit counters by channel id, for per-channel rates.
  std::map<std::uint32_t, std::uint64_t> prevRetx;
  for (const core::CbChannelHealth& c : prev.channels)
    if (c.outbound) prevRetx[c.channelId] = c.retransmits;

  char buf[128];
  std::map<std::uint32_t, bool> seen;
  for (const core::CbChannelHealth& c : cur.channels) {
    // Only live outbound reliable channels have a send window and a
    // retransmit path worth alarming on.
    if (!c.outbound || c.qos != net::QosClass::kReliableOrdered) continue;
    seen[c.channelId] = true;
    ChannelAlarmState& cs = st.channelAlarms[c.channelId];

    const bool pinnedNow = c.live && c.windowFrames >= kWindowPinnedFrames;
    if (pinnedNow && cs.pinnedPrev) {
      if (!cs.windowAlarm) {
        cs.windowAlarm = true;
        std::snprintf(buf, sizeof(buf),
                      "channel %u (%s): window pinned at %llu frames",
                      c.channelId, c.className.c_str(),
                      static_cast<unsigned long long>(c.windowFrames));
        raise(HealthAlarm::Kind::kChannelWindowPinned, cur.node, buf);
      }
    } else if (!pinnedNow && cs.windowAlarm) {
      cs.windowAlarm = false;
      std::snprintf(buf, sizeof(buf),
                    "channel %u (%s): window draining (%llu frames)",
                    c.channelId, c.className.c_str(),
                    static_cast<unsigned long long>(c.windowFrames));
      raise(HealthAlarm::Kind::kChannelWindowCleared, cur.node, buf);
    }
    cs.pinnedPrev = pinnedNow;

    const auto pit = prevRetx.find(c.channelId);
    const double retxPerSec =
        pit == prevRetx.end() ? 0.0 : rate(c.retransmits, pit->second, dt);
    if (retxPerSec >= kChannelRetransmitStormPerSec) {
      if (!cs.retxAlarm) {
        cs.retxAlarm = true;
        std::snprintf(buf, sizeof(buf),
                      "channel %u (%s): %.1f retransmits/s (threshold %.1f)",
                      c.channelId, c.className.c_str(), retxPerSec,
                      kChannelRetransmitStormPerSec);
        raise(HealthAlarm::Kind::kChannelRetransmitStorm, cur.node, buf);
      }
    } else if (cs.retxAlarm) {
      cs.retxAlarm = false;
      std::snprintf(buf, sizeof(buf),
                    "channel %u (%s): back to %.1f retransmits/s", c.channelId,
                    c.className.c_str(), retxPerSec);
      raise(HealthAlarm::Kind::kChannelRetransmitCleared, cur.node, buf);
    }
  }

  // Channels that left the snapshot (subscriber gone, channel torn down)
  // take their edge state with them — a reappearing id starts clean.
  for (auto it = st.channelAlarms.begin(); it != st.channelAlarms.end();) {
    if (seen.find(it->first) == seen.end())
      it = st.channelAlarms.erase(it);
    else
      ++it;
  }
}

void HealthMonitor::step(double now) {
  now_ = std::max(now_, now);
  const double silentAfter =
      cfg_.silentAfterIntervals * cfg_.expectedIntervalSec;
  for (auto& [name, st] : nodes_) {
    NodeHealth& h = st.health;
    if (!h.silent && now_ - h.lastHeardSec > silentAfter) {
      h.silent = true;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "no snapshot for %.1fs (expected every %.1fs)",
                    now_ - h.lastHeardSec, cfg_.expectedIntervalSec);
      raise(HealthAlarm::Kind::kNodeSilent, name, buf);
    }
  }
}

void HealthMonitor::attachFlightRecorder(TraceRecorder* recorder,
                                         std::string dumpPath) {
  recorder_ = recorder;
  recorderDumpPath_ = std::move(dumpPath);
  if (recorder_ != nullptr)
    recorderLane_ = recorder_->registerLane("health-monitor");
}

std::string HealthMonitor::flightDumpPath(const std::string& base,
                                          std::uint64_t seq) {
  if (seq == 0) return base;
  // Insert ".N" before the last extension ("x.trace.json" ->
  // "x.trace.2.json") so tooling globbing on the extension still finds
  // every dump; no extension (or a dotted directory) appends instead.
  const auto slash = base.find_last_of('/');
  const auto dot = base.find_last_of('.');
  std::string suffix(1, '.');
  suffix += std::to_string(seq + 1);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

void HealthMonitor::raise(HealthAlarm::Kind kind, const std::string& nodeName,
                          std::string detail) {
  const HealthAlarm::Severity sev = alarmSeverity(kind);
  alarms_.push_back(HealthAlarm{kind, sev, now_, nodeName, std::move(detail)});
  if (archive_ != nullptr) {
    const HealthAlarm& a = alarms_.back();
    archive_->appendAlarm(static_cast<std::uint8_t>(a.kind),
                          static_cast<std::uint8_t>(a.severity), a.timeSec,
                          a.node, a.detail, now_);
  }
  if (recorder_ == nullptr) return;
  // Alarm edges land in the flight recorder's timeline: kInfo kinds are
  // all falling edges / recoveries, everything else is an onset.
  const auto ev = sev == HealthAlarm::Severity::kInfo
                      ? TraceEventKind::kAlarmCleared
                      : TraceEventKind::kAlarmRaised;
  recorder_->record(ev, recorderLane_, now_, 0.0,
                    static_cast<std::uint64_t>(kind));
  if (sev == HealthAlarm::Severity::kCritical && !recorderDumpPath_.empty()) {
    // The moment data stopped flowing is the moment the preceding seconds
    // of hot-path history matter most: dump the ring now, while it still
    // holds them. Each incident gets its own numbered file (first at the
    // configured path, then .2, .3, ... before the extension) so a later
    // CRIT cannot destroy the evidence of an earlier one — but no more
    // often than kFlightDumpMinIntervalSec: each dump is megabytes of
    // synchronous I/O on the monitor's tick path, and a flapping CRIT
    // edge must not turn the monitor itself into the cluster's slowest
    // node.
    if (flightDumps_ == 0 ||
        now_ - lastFlightDumpSec_ >= kFlightDumpMinIntervalSec) {
      const std::string path =
          flightDumpPath(recorderDumpPath_, flightDumps_);
      if (recorder_->dumpToFile(path)) {
        ++flightDumps_;
        lastFlightDumpSec_ = now_;
        if (archive_ != nullptr) archive_->appendTraceDumpMarker(path, now_);
      }
    }
  }
}

std::vector<std::string> HealthMonitor::nodeNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, st] : nodes_) names.push_back(name);
  return names;
}

const NodeHealth* HealthMonitor::node(const std::string& name) const {
  const auto it = nodes_.find(name);
  return it != nodes_.end() ? &it->second.health : nullptr;
}

std::string HealthMonitor::renderTable() const {
  // loss% is transport frame accounting (0 on real sockets), rloss% the
  // reliable-layer estimate — side by side so an operator sees at once
  // which observable their deployment actually has. p99ms is the interval
  // delivery-latency p99 from the v3 histogram block (0.0 until sampled
  // updates flow). The hot column (the phase most interval tick time went
  // to, from the phase block) appears only when some node runs the
  // profiler.
  //
  // Column widths are computed from content: a long node name widens its
  // column instead of shearing every figure out of alignment.
  bool anyPhases = false;
  for (const auto& [name, st] : nodes_)
    if (st.health.hotPhase >= 0) anyPhases = true;

  std::vector<std::string> headers = {"node",   "seq",    "age",
                                      "upd/s",  "loss%",  "rloss%",
                                      "retx/s", "B/dg",   "p99ms"};
  if (anyPhases) headers.push_back("hot");
  headers.push_back("state");
  const std::size_t cols = headers.size();

  char buf[160];
  auto fmt = [&buf](const char* f, double v) {
    std::snprintf(buf, sizeof(buf), f, v);
    return std::string(buf);
  };
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, st] : nodes_) {
    const NodeHealth& h = st.health;
    const char* state = h.silent        ? "SILENT"
                        : st.lossAlarm  ? "LOSSY"
                        : st.retxAlarm  ? "RETX"
                        : st.latencyAlarm ? "LAT"
                                          : "OK";
    std::vector<std::string> row;
    row.push_back(name);
    row.push_back(std::to_string(h.last.seq));
    row.push_back(fmt("%.1f", now_ - h.lastHeardSec));
    row.push_back(fmt("%.1f", h.updatesPerSec));
    row.push_back(fmt("%.1f", h.lossPct));
    row.push_back(fmt("%.1f", h.reliableLossPct));
    row.push_back(fmt("%.1f", h.retransmitsPerSec));
    row.push_back(fmt("%.0f", h.bytesPerDatagram));
    row.push_back(fmt("%.1f", h.latencyP99Ms));
    if (anyPhases)
      row.push_back(h.hotPhase >= 0 ? TickPhaseHistograms::shortName(
                                          static_cast<std::size_t>(h.hotPhase))
                                    : "-");
    row.push_back(state);
    rows.push_back(std::move(row));
  }

  std::vector<std::size_t> widths(cols);
  for (std::size_t i = 0; i < cols; ++i) widths[i] = headers[i].size();
  for (const auto& row : rows)
    for (std::size_t i = 0; i < cols; ++i)
      widths[i] = std::max(widths[i], row[i].size());

  // node is left-aligned (names scan better flush left), the trailing
  // hot/state labels too; every figure is right-aligned under its header.
  auto renderRow = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t i = 0; i < cols; ++i) {
      const bool left = i == 0 || i >= cols - (anyPhases ? 2u : 1u);
      line += ' ';
      if (left) {
        line += row[i];
        line.append(widths[i] - row[i].size(), ' ');
      } else {
        line.append(widths[i] - row[i].size(), ' ');
        line += row[i];
      }
    }
    line += " |\n";
    return line;
  };

  const std::string header = renderRow(headers);
  const std::size_t lineWidth = header.size() - 1;  // sans newline
  auto borderWith = [lineWidth](const std::string& title) {
    std::string line(lineWidth, '-');
    line.front() = line.back() = '+';
    if (!title.empty() && title.size() + 4 <= lineWidth) {
      const std::size_t at = (lineWidth - title.size()) / 2;
      line.replace(at, title.size(), title);
    }
    return line + "\n";
  };
  auto padLine = [lineWidth](std::string line) {
    if (line.size() < lineWidth - 1)
      line.append(lineWidth - 1 - line.size(), ' ');
    return line + "|\n";
  };

  std::string out = borderWith(" CLUSTER HEALTH ");
  out += header;
  for (const auto& row : rows) out += renderRow(row);
  if (nodes_.empty()) out += padLine("| (no nodes heard from yet)");
  out += borderWith("");
  return out;
}

std::string HealthMonitor::renderAlarms(std::size_t maxRows) const {
  std::string out = "ALARMS";
  if (alarms_.empty()) return out + ": (none)\n";
  out += ":\n";
  const std::size_t first =
      alarms_.size() > maxRows ? alarms_.size() - maxRows : 0;
  char buf[192];
  for (std::size_t i = first; i < alarms_.size(); ++i) {
    const HealthAlarm& a = alarms_[i];
    std::snprintf(buf, sizeof(buf), "  [t=%8.2f] %-4s %-19s %-14s %s\n",
                  a.timeSec, severityName(a.severity), alarmKindName(a.kind),
                  a.node.c_str(), a.detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace cod::telemetry
