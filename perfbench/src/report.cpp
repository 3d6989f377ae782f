#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/cb.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"rack_rtf", "x"},
    {"frame_ms_p50", "ms"},
    {"frame_ms_p99", "ms"},
    {"deliver_ms_p50", "ms"},
    {"deliver_ms_p99", "ms"},
    {"cpu_us_per_update", "us"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.poll_us", "us"},
    {"core.route_us", "us"},
    {"core.timer_us", "us"},
    {"core.stage_us", "us"},
    {"core.flush_us", "us"},
    {"core.tick_us_p99", "us"},
    {"net.datagrams_per_update", "count"},
    {"net.bytes_per_update", "B"},
    {"net.frames_per_datagram", "count"},
    {"net.retx_per_update", "count"},
    {"net.nacks_per_update", "count"},
    {"net.dups_dropped", "count"},
    {"net.setup_datagrams", "count"},
    {"net.loss_injected_pct", "%"},
    {"sim.display_ms", "ms"},
    {"sim.dynamics_ms", "ms"},
    {"sim.instructor_ms", "ms"},
    {"sim.platform_ms", "ms"},
    {"sim.dashboard_ms", "ms"},
    {"sim.sync_ms", "ms"},
    {"simnet.ms", "ms"},
    {"driver.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
};

double wallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void waitUntil(double untilSec) {
  while (wallSec() < untilSec) {
  }
}

void foldMin(std::vector<double>& best, const std::vector<double>& series) {
  if (best.empty()) {
    best = series;
    return;
  }
  best.resize(std::min(best.size(), series.size()));
  for (std::size_t i = 0; i < best.size(); ++i)
    best[i] = std::min(best[i], series[i]);
}

double sumOf(const std::vector<double>& series) {
  double s = 0.0;
  for (const double x : series) s += x;
  return s;
}

double Samples::quantile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(s.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(idx),
                   s.end());
  return s[idx];
}

void SlicedSamples::add(double atSec, double v) {
  all_.add(v);
  const double k = std::floor((atSec - origin_) / slice_);
  const auto idx = static_cast<std::size_t>(std::max(0.0, k));
  if (idx >= slices_.size()) slices_.resize(idx + 1);
  slices_[idx].add(v);
}

void SlicedSamples::sliceQuantiles(double p, std::size_t minCount,
                                   Samples& out) const {
  for (const Samples& s : slices_)
    if (s.count() >= minCount) out.add(s.quantile(p));
}

void HistSum::add(const cod::telemetry::HistogramSnapshot& cur,
                  const cod::telemetry::HistogramSnapshot& base) {
  const auto d = cod::telemetry::LogHistogram::diff(cur, base);
  total.count += d.count;
  total.sum += d.sum;
  for (std::size_t i = 0; i < cod::telemetry::kHistBuckets; ++i)
    total.buckets[i] += d.buckets[i];
}

CbCounters CbCounters::take(
    const std::vector<const cod::core::CommunicationBackbone*>& cbs) {
  CbCounters c;
  for (const cod::core::CommunicationBackbone* cb : cbs) {
    auto& ph = c.phases.emplace_back();
    for (std::size_t k = 0; k < kTickPhaseCount; ++k)
      ph[k] = cb->phaseHistograms().at(k).snapshot();
    c.ticks.push_back(cb->histograms().tickDurationSec.snapshot());
    if (const cod::net::TransportStats* ts = cb->transportStats()) {
      c.packets += ts->packetsSent;
      c.bytes += ts->bytesSent;
      c.framesSent += ts->framesSent;
      c.dropped += ts->packetsDropped;
    }
    const cod::core::CbStats& st = cb->stats();
    c.delivered += st.updatesDelivered;
    c.retx += st.reliable.retransmitsSent;
    c.nacks += st.reliable.nacksSent;
    c.dups += st.reliable.duplicatesDropped + st.duplicatesDropped;
  }
  return c;
}

void LayerTotals::add(const CbCounters& before, const CbCounters& after) {
  using cod::telemetry::LogHistogram;
  cbCount = after.ticks.size();
  for (std::size_t i = 0; i < after.ticks.size(); ++i) {
    const auto tick = LogHistogram::diff(after.ticks[i], before.ticks[i]);
    tickSec += tick.sum;
    tickCount += tick.count;
    tickHist.add(after.ticks[i], before.ticks[i]);
    for (std::size_t k = 0; k < kTickPhaseCount; ++k)
      phaseSec[k] +=
          LogHistogram::diff(after.phases[i][k], before.phases[i][k]).sum;
  }
  packets += after.packets - before.packets;
  bytes += after.bytes - before.bytes;
  framesSent += after.framesSent - before.framesSent;
  dropped += after.dropped - before.dropped;
  delivered += after.delivered - before.delivered;
  retx += after.retx - before.retx;
  nacks += after.nacks - before.nacks;
  dups += after.dups - before.dups;
}

void setCoreAndNet(const LayerTotals& t, Result& r) {
  using cod::telemetry::TickPhase;
  const double rounds = t.rounds();
  const auto us = [&](TickPhase p) { return t.phaseSecOf(p) * 1e6 / rounds; };
  r.set("core.poll_us", us(TickPhase::kPollDecode));
  r.set("core.route_us", us(TickPhase::kRoute));
  r.set("core.timer_us", us(TickPhase::kTimers));
  r.set("core.stage_us", us(TickPhase::kStage));
  r.set("core.flush_us", us(TickPhase::kFlush));
  r.set("core.tick_us_p99",
        cod::telemetry::LogHistogram::percentile(
            t.tickHist.total, 0.99,
            cod::telemetry::CbHistograms::lowestOf(1)) *
            1e6);
  const double refl = static_cast<double>(t.delivered);
  r.set("net.datagrams_per_update", static_cast<double>(t.packets) / refl);
  r.set("net.bytes_per_update", static_cast<double>(t.bytes) / refl);
  r.set("net.frames_per_datagram", static_cast<double>(t.framesSent) /
                                       static_cast<double>(t.packets));
  r.set("net.retx_per_update", static_cast<double>(t.retx) / refl);
  r.set("net.nacks_per_update", static_cast<double>(t.nacks) / refl);
  r.set("net.dups_dropped", static_cast<double>(t.dups));
  r.set("net.setup_datagrams", t.setupDatagrams.median());
}

namespace {

/// A fingerprint field run.py supplies per run, or "unmeasured".
const char* envOrUnmeasured(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : "unmeasured";
}

void printFingerprint() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: cores=%s cpu=\"%s\" build=%s compiler=\"%s\" git=%s\n",
              cores == 0 ? "unmeasured" : std::to_string(cores).c_str(),
              envOrUnmeasured("PERFBENCH_CPU"), PB_BUILD_TYPE, PB_COMPILER,
              envOrUnmeasured("PERFBENCH_GIT_SHA"));
}

/// Print how far `got` misses the reference time `want` (ms per row unit)
/// and return whether it stays within the layer-sum tolerance.
bool checkSum(const char* refName, const char* what, double got, double want,
              double ticks) {
  const double limitMs = std::max(kLayerSumTolerance * want,
                                  kUnprofiledUsPerTick * 1e-3 * ticks);
  const double err = want > 0 ? (got - want) / want : 1.0;
  std::printf("  %-30s %12.6f  -> %s %s it by %+.2f%% (limit %.2f%%)\n",
              refName, want, what, err >= 0 ? "exceed" : "undershoot",
              100.0 * err, want > 0 ? 100.0 * limitMs / want : 0.0);
  return want > 0 && std::fabs(got - want) <= limitMs;
}

void printLayerTable(Result& r) {
  if (r.layers.empty()) return;
  double sum = 0.0;
  for (const LayerRow& row : r.layers) sum += row.ms;
  std::printf("\nlayer-sum (self time per %s, %.1f CB ticks each)\n",
              r.layerUnit.c_str(), r.layerTicks);
  std::printf("  %-30s %12s %8s\n", "layer", "ms", "share");
  for (const LayerRow& row : r.layers)
    std::printf("  %-30s %12.6f %7.2f%%\n", row.name.c_str(), row.ms,
                r.layerWallMs > 0 ? 100.0 * row.ms / r.layerWallMs : 0.0);
  std::printf("  %-30s %12.6f %7.2f%%\n", "sum of rows", sum,
              r.layerWallMs > 0 ? 100.0 * sum / r.layerWallMs : 0.0);
  if (!checkSum("measured wall", "rows", sum, r.layerWallMs, r.layerTicks))
    r.fail("layer rows do not add up to the measured wall time");
  if (!checkSum("driver's tick() stopwatch", "CB phases", r.layerPhaseMs,
                r.layerTickMs, r.layerTicks))
    r.fail("CB phase profiler does not cover the driver's tick() time");
}

}  // namespace

int printResult(const RunArgs& args, Result& r) {
  printFingerprint();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  printLayerTable(r);

  const auto& specs = args.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& m : specs)
    if (!args.trace && !r.values.contains(m.name))
      r.fail(std::string("workload did not measure ") + m.name);

  const double failedFrac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("\n  %-26s %18s %s\n", "metric", "value", "unit");
  for (const auto* table : {&kEndToEnd, &kPerLayer})
    for (const MetricSpec& m : *table) {
      const auto it = r.values.find(m.name);
      if (it == r.values.end()) continue;
      std::printf("  %-26s %18.6f %s\n", m.name, it->second, m.unit);
    }
  std::printf("  %-26s %18.9f frac (%llu of %llu operations)\n", "failed_frac",
              failedFrac, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  if (r.attempted == 0) r.fail("no operation attempted");
  if (r.failed > 0) r.fail("operations failed");
  const bool correct = r.failures.empty();
  for (const std::string& f : r.failures)
    std::printf("INCORRECT: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = r.values.find(specs[i].name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, std::isfinite(v) ? v : 0.0,
                  specs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
