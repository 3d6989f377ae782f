// cod_inspect — offline analysis of a TelemetryArchive (the cluster's
// flight-data recorder, src/telemetry/archive.hpp).
//
// The archive holds everything the live HealthMonitor saw: every applied
// snapshot, every alarm edge and flight-dump marker, all stamped with the
// monitor's own monotonic clock. This tool answers the post-mortem
// questions a failed soak (or a failed training session) leaves behind:
//
//   cod_inspect --archive=run.archive                      summary
//   cod_inspect --archive=run.archive --timeline           alarm timeline
//   cod_inspect --archive=run.archive --nodes              per-node evolution
//   cod_inspect --archive=run.archive --csv=out.csv        counter export
//   cod_inspect --archive=run.archive --json=out.json      full export
//   cod_inspect --archive=a.archive --diff=b.archive       compare two runs
//   cod_inspect --archive=run.archive --replay
//               [--expected-interval=S] [--silent-after=N]
//               [--verify-victim=NODE]
//
// --replay feeds the archived records through a fresh HealthMonitor (no
// network — reflectAttributeValues and step work unbound) with the
// monitor clock driven by the recorded monoSec stamps, then requires the
// replayed per-node alarm kind sequences to equal the recorded ones and
// the replayed final counters to equal the last archived snapshot of
// every node. --verify-victim additionally requires that node's sequence
// to contain NODE_SILENT before NODE_RECOVERED — the soak driver's
// failover post-mortem, reproduced from the file alone. Exit 0 iff every
// requested check holds, so drivers can gate on the exit code.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/value.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/hist.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/node_telemetry.hpp"
#include "tools/soak/soak_common.hpp"

namespace {

using namespace cod;
using telemetry::ArchiveReader;
using telemetry::ArchiveRecord;
using telemetry::ArchiveRecordType;
using telemetry::HealthAlarm;
using telemetry::NodeTelemetry;

/// Decoded per-node view of an archive's snapshot stream.
struct NodeStream {
  std::vector<const ArchiveRecord*> records;  // kSnapshot, in order
  std::vector<NodeTelemetry> decoded;         // 1:1 with records
};

struct Loaded {
  std::vector<ArchiveRecord> records;
  std::map<std::string, NodeStream> nodes;
  std::vector<const ArchiveRecord*> alarms;  // kAlarmEdge, in order
  std::vector<const ArchiveRecord*> dumps;   // kTraceDumpMarker
  std::uint64_t undecodableSnapshots = 0;
  ArchiveReader reader;

  explicit Loaded(const std::string& path) : reader(path) {
    records = reader.readAll();
    for (const ArchiveRecord& rec : records) {
      switch (rec.type) {
        case ArchiveRecordType::kSnapshot: {
          auto t = telemetry::decodeTelemetry(rec.snapshot);
          if (!t) {
            ++undecodableSnapshots;
            break;
          }
          NodeStream& ns = nodes[t->node];
          ns.records.push_back(&rec);
          ns.decoded.push_back(std::move(*t));
          break;
        }
        case ArchiveRecordType::kAlarmEdge:
          alarms.push_back(&rec);
          break;
        case ArchiveRecordType::kTraceDumpMarker:
          dumps.push_back(&rec);
          break;
      }
    }
  }
};

void printSummary(const std::string& path, const Loaded& a) {
  std::printf("archive %s\n", path.c_str());
  std::printf("  segments=%llu records=%llu skipped=%llu torn-tails=%llu\n",
              static_cast<unsigned long long>(a.reader.segmentsRead()),
              static_cast<unsigned long long>(a.reader.recordsRead()),
              static_cast<unsigned long long>(a.reader.recordsSkipped()),
              static_cast<unsigned long long>(a.reader.tornTails()));
  double t0 = 0.0, t1 = 0.0;
  if (!a.records.empty()) {
    t0 = a.records.front().monoSec;
    t1 = a.records.back().monoSec;
  }
  std::printf("  span %.2fs (t=%.2f .. %.2f), %zu nodes, %zu alarms, "
              "%zu trace dumps, %llu undecodable snapshots\n",
              t1 - t0, t0, t1, a.nodes.size(), a.alarms.size(),
              a.dumps.size(),
              static_cast<unsigned long long>(a.undecodableSnapshots));
  for (const auto& [name, ns] : a.nodes) {
    const NodeTelemetry& last = ns.decoded.back();
    std::printf("  node %-16s snapshots=%-5zu seq %llu..%llu%s\n",
                name.c_str(), ns.decoded.size(),
                static_cast<unsigned long long>(ns.decoded.front().seq),
                static_cast<unsigned long long>(last.seq),
                last.phaseProfiling ? " [phase-profiled]" : "");
  }
  std::map<std::string, std::size_t> byKind;
  for (const ArchiveRecord* rec : a.alarms)
    ++byKind[alarmKindName(static_cast<HealthAlarm::Kind>(rec->alarmKind))];
  for (const auto& [kind, n] : byKind)
    std::printf("  alarm %-22s x%zu\n", kind.c_str(), n);
}

void printTimeline(const Loaded& a) {
  std::printf("alarm timeline:\n");
  for (const ArchiveRecord* rec : a.alarms) {
    const auto kind = static_cast<HealthAlarm::Kind>(rec->alarmKind);
    const auto sev = static_cast<HealthAlarm::Severity>(rec->alarmSeverity);
    std::printf("  [t=%8.2f] %-4s %-19s %-14s %s\n", rec->alarmTimeSec,
                severityName(sev), alarmKindName(kind), rec->node.c_str(),
                rec->text.c_str());
  }
  for (const ArchiveRecord* rec : a.dumps)
    std::printf("  [t=%8.2f] DUMP flight recorder -> %s\n", rec->monoSec,
                rec->text.c_str());
  if (a.alarms.empty() && a.dumps.empty()) std::printf("  (none)\n");
}

void printNodes(const Loaded& a) {
  using telemetry::CbHistograms;
  using telemetry::HistogramSnapshot;
  using telemetry::LogHistogram;
  using telemetry::TickPhaseHistograms;
  for (const auto& [name, ns] : a.nodes) {
    std::printf("node %s\n", name.c_str());
    std::printf("  %8s %6s %10s %10s %8s %8s %6s\n", "t", "seq", "updSent",
                "updDlvd", "retx", "p99ms", "hot");
    const NodeTelemetry* prev = nullptr;
    for (std::size_t i = 0; i < ns.decoded.size(); ++i) {
      const NodeTelemetry& cur = ns.decoded[i];
      double p99Ms = 0.0;
      std::string hot = "-";
      if (prev != nullptr && cur.seq > prev->seq) {
        constexpr std::size_t kLat = CbHistograms::kDeliveryLatencyIdx;
        const HistogramSnapshot d =
            LogHistogram::diff(cur.hists[kLat], prev->hists[kLat]);
        if (d.count > 0)
          p99Ms = LogHistogram::percentile(d, 0.99,
                                           CbHistograms::lowestOf(kLat)) *
                  1e3;
        if (cur.phaseProfiling) {
          double hotSum = 0.0;
          for (std::size_t p = 0; p < telemetry::kTickPhaseCount; ++p) {
            const HistogramSnapshot dp =
                LogHistogram::diff(cur.phases[p], prev->phases[p]);
            if (dp.sum > hotSum) {
              hotSum = dp.sum;
              hot = TickPhaseHistograms::shortName(p);
            }
          }
        }
      }
      std::printf("  %8.2f %6llu %10llu %10llu %8llu %8.1f %6s\n",
                  ns.records[i]->monoSec,
                  static_cast<unsigned long long>(cur.seq),
                  static_cast<unsigned long long>(cur.cb.updatesSent),
                  static_cast<unsigned long long>(cur.cb.updatesDelivered),
                  static_cast<unsigned long long>(
                      cur.cb.reliable.retransmitsSent),
                  p99Ms, hot.c_str());
      prev = &cur;
    }
  }
}

bool exportCsv(const Loaded& a, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "monoSec,wallSec,node,seq");
  for (std::size_t i = 0; i < telemetry::counterCount(); ++i)
    std::fprintf(f, ",%s", telemetry::counterName(i));
  std::fprintf(f, "\n");
  for (const auto& [name, ns] : a.nodes) {
    for (std::size_t i = 0; i < ns.decoded.size(); ++i) {
      const NodeTelemetry& t = ns.decoded[i];
      std::fprintf(f, "%.6f,%.6f,%s,%llu", ns.records[i]->monoSec,
                   ns.records[i]->wallSec, name.c_str(),
                   static_cast<unsigned long long>(t.seq));
      for (std::size_t c = 0; c < telemetry::counterCount(); ++c)
        std::fprintf(f, ",%llu", static_cast<unsigned long long>(
                                     telemetry::counterValue(t, c)));
      std::fprintf(f, "\n");
    }
  }
  std::fclose(f);
  return true;
}

void jsonEscape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\')
      std::fprintf(f, "\\%c", c);
    else if (static_cast<unsigned char>(c) < 0x20)
      std::fprintf(f, "\\u%04x", c);
    else
      std::fputc(c, f);
  }
}

bool exportJson(const Loaded& a, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"snapshots\": [\n");
  bool firstRow = true;
  for (const auto& [name, ns] : a.nodes) {
    for (std::size_t i = 0; i < ns.decoded.size(); ++i) {
      const NodeTelemetry& t = ns.decoded[i];
      std::fprintf(f, "%s    {\"t\": %.6f, \"wall\": %.6f, \"node\": \"",
                   firstRow ? "" : ",\n", ns.records[i]->monoSec,
                   ns.records[i]->wallSec);
      firstRow = false;
      jsonEscape(f, name);
      std::fprintf(f, "\", \"seq\": %llu, \"counters\": {",
                   static_cast<unsigned long long>(t.seq));
      for (std::size_t c = 0; c < telemetry::counterCount(); ++c)
        std::fprintf(f, "%s\"%s\": %llu", c == 0 ? "" : ", ",
                     telemetry::counterName(c),
                     static_cast<unsigned long long>(
                         telemetry::counterValue(t, c)));
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n  ],\n  \"alarms\": [\n");
  for (std::size_t i = 0; i < a.alarms.size(); ++i) {
    const ArchiveRecord* rec = a.alarms[i];
    std::fprintf(f, "%s    {\"t\": %.6f, \"kind\": \"%s\", \"severity\": "
                 "\"%s\", \"node\": \"",
                 i == 0 ? "" : ",\n", rec->alarmTimeSec,
                 alarmKindName(static_cast<HealthAlarm::Kind>(rec->alarmKind)),
                 severityName(
                     static_cast<HealthAlarm::Severity>(rec->alarmSeverity)));
    jsonEscape(f, rec->node);
    std::fprintf(f, "\", \"detail\": \"");
    jsonEscape(f, rec->text);
    std::fprintf(f, "\"}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

void printDiff(const std::string& pathA, const Loaded& a,
               const std::string& pathB, const Loaded& b) {
  std::printf("diff %s -> %s\n", pathA.c_str(), pathB.c_str());
  for (const auto& [name, nsA] : a.nodes) {
    const auto itB = b.nodes.find(name);
    if (itB == b.nodes.end()) {
      std::printf("  node %-16s only in %s\n", name.c_str(), pathA.c_str());
      continue;
    }
    const NodeTelemetry& fa = nsA.decoded.back();
    const NodeTelemetry& fb = itB->second.decoded.back();
    bool headed = false;
    for (std::size_t c = 0; c < telemetry::counterCount(); ++c) {
      const std::uint64_t va = telemetry::counterValue(fa, c);
      const std::uint64_t vb = telemetry::counterValue(fb, c);
      if (va == vb) continue;
      if (!headed) {
        std::printf("  node %s (final counters, A vs B):\n", name.c_str());
        headed = true;
      }
      std::printf("    %-34s %12llu -> %-12llu (%+lld)\n",
                  telemetry::counterName(c),
                  static_cast<unsigned long long>(va),
                  static_cast<unsigned long long>(vb),
                  static_cast<long long>(vb) - static_cast<long long>(va));
    }
    if (!headed)
      std::printf("  node %-16s final counters identical\n", name.c_str());
  }
  for (const auto& [name, nsB] : b.nodes)
    if (a.nodes.find(name) == a.nodes.end())
      std::printf("  node %-16s only in %s\n", name.c_str(), pathB.c_str());
  std::map<std::string, std::pair<std::size_t, std::size_t>> alarmCounts;
  for (const ArchiveRecord* rec : a.alarms)
    ++alarmCounts[alarmKindName(static_cast<HealthAlarm::Kind>(
                      rec->alarmKind))]
          .first;
  for (const ArchiveRecord* rec : b.alarms)
    ++alarmCounts[alarmKindName(static_cast<HealthAlarm::Kind>(
                      rec->alarmKind))]
          .second;
  for (const auto& [kind, counts] : alarmCounts)
    if (counts.first != counts.second)
      std::printf("  alarm %-22s x%zu -> x%zu\n", kind.c_str(), counts.first,
                  counts.second);
}

/// Replay the archive through a fresh HealthMonitor and verify the
/// offline judgement matches the recorded (live) one. Returns true iff
/// every check holds.
bool replay(const Loaded& a, const soak::Args& args) {
  telemetry::MonitorConfig mc;
  mc.expectedIntervalSec = args.num("expected-interval", 1.0);
  mc.silentAfterIntervals = args.num("silent-after", 3.0);
  telemetry::HealthMonitor mon(mc);

  for (const ArchiveRecord& rec : a.records) {
    // Drive the replayed monitor's clock to each record's timestamp —
    // the live monitor's own clock at that moment — so silence edges
    // fire at the same points in the stream.
    mon.step(rec.monoSec);
    if (rec.type == ArchiveRecordType::kSnapshot) {
      core::AttributeSet attrs;
      attrs.set(telemetry::kTelemetryAttr, core::AttributeValue(rec.snapshot));
      mon.reflectAttributeValues(telemetry::kTelemetryClass, attrs,
                                 rec.monoSec);
    }
  }

  // Recorded vs replayed alarm kind sequences, per node. Global order is
  // not compared: two nodes crossing the silence threshold in the same
  // inter-record window can legitimately swap places.
  std::map<std::string, std::vector<HealthAlarm::Kind>> recorded, replayed;
  for (const ArchiveRecord* rec : a.alarms)
    recorded[rec->node].push_back(
        static_cast<HealthAlarm::Kind>(rec->alarmKind));
  for (const HealthAlarm& al : mon.alarms())
    replayed[al.node].push_back(al.kind);

  bool ok = true;
  std::vector<std::string> nodes;
  for (const auto& [n, k] : recorded) nodes.push_back(n);
  for (const auto& [n, k] : replayed)
    if (recorded.find(n) == recorded.end()) nodes.push_back(n);
  for (const std::string& n : nodes) {
    const auto& rec = recorded[n];
    const auto& rep = replayed[n];
    if (rec == rep) continue;
    ok = false;
    std::printf("replay MISMATCH node %s: recorded", n.c_str());
    for (const auto k : rec) std::printf(" %s", alarmKindName(k));
    std::printf(" | replayed");
    for (const auto k : rep) std::printf(" %s", alarmKindName(k));
    std::printf("\n");
  }
  std::printf("replay: %zu alarm(s) recorded, %zu replayed, per-node "
              "sequences %s\n",
              a.alarms.size(), mon.alarms().size(),
              ok ? "MATCH" : "MISMATCH");

  // Final counters: the replayed monitor's last view of every node must
  // be exactly the last archived snapshot — proves the offline apply
  // path (decode, stale-drop, restart detection) agrees with live.
  for (const auto& [name, ns] : a.nodes) {
    const telemetry::NodeHealth* h = mon.node(name);
    if (h == nullptr) {
      std::printf("replay MISMATCH node %s: never materialized\n",
                  name.c_str());
      ok = false;
      continue;
    }
    const NodeTelemetry& want = ns.decoded.back();
    if (h->last.seq != want.seq) {
      std::printf("replay MISMATCH node %s: final seq %llu != archived %llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(h->last.seq),
                  static_cast<unsigned long long>(want.seq));
      ok = false;
      continue;
    }
    for (std::size_t c = 0; c < telemetry::counterCount(); ++c) {
      if (telemetry::counterValue(h->last, c) !=
          telemetry::counterValue(want, c)) {
        std::printf("replay MISMATCH node %s: final %s differs\n",
                    name.c_str(), telemetry::counterName(c));
        ok = false;
        break;
      }
    }
  }

  const std::string victim = args.str("verify-victim", "");
  if (!victim.empty()) {
    // The soak driver's failover post-mortem, from the file alone: the
    // victim must have gone NODE_SILENT and then NODE_RECOVERED, in that
    // order, in the REPLAYED feed.
    const auto& seq = replayed[victim];
    std::size_t silentIdx = seq.size();
    bool recovered = false;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] == HealthAlarm::Kind::kNodeSilent && silentIdx == seq.size())
        silentIdx = i;
      if (seq[i] == HealthAlarm::Kind::kNodeRecovered && silentIdx < i)
        recovered = true;
    }
    const bool victimOk = silentIdx < seq.size() && recovered;
    std::printf("replay victim %s: NODE_SILENT->NODE_RECOVERED %s\n",
                victim.c_str(), victimOk ? "ok" : "MISSING");
    ok = ok && victimOk;
  }
  std::printf("replay verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const soak::Args args(argc, argv,
                          {"archive", "csv", "diff", "expected-interval",
                           "json", "nodes", "replay", "silent-after",
                           "timeline", "verify-victim"});
    const std::string path = args.required("archive");
    Loaded a(path);
    if (a.records.empty() && a.reader.segmentsRead() == 0) {
      std::fprintf(stderr, "cod_inspect: %s: not a readable archive\n",
                   path.c_str());
      return 2;
    }
    printSummary(path, a);
    if (args.has("timeline")) printTimeline(a);
    if (args.has("nodes")) printNodes(a);
    const std::string csv = args.str("csv", "");
    if (!csv.empty() && !exportCsv(a, csv)) {
      std::fprintf(stderr, "cod_inspect: cannot write %s\n", csv.c_str());
      return 2;
    }
    const std::string json = args.str("json", "");
    if (!json.empty() && !exportJson(a, json)) {
      std::fprintf(stderr, "cod_inspect: cannot write %s\n", json.c_str());
      return 2;
    }
    const std::string other = args.str("diff", "");
    if (!other.empty()) {
      Loaded b(other);
      if (b.records.empty() && b.reader.segmentsRead() == 0) {
        std::fprintf(stderr, "cod_inspect: %s: not a readable archive\n",
                     other.c_str());
        return 2;
      }
      printDiff(path, a, other, b);
    }
    if (args.has("replay") || args.has("verify-victim")) {
      if (!replay(a, args)) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cod_inspect: %s\n", e.what());
    return 2;
  }
}
