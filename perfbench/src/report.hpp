// Shared plumbing of the benchmark driver: the clock, exact order
// statistics, the per-run result record and the metric tables that
// BENCHMARK.json names.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/hist.hpp"

namespace cod::core {
class CommunicationBackbone;
}  // namespace cod::core

namespace perfbench {

using cod::telemetry::kTickPhaseCount;

/// Monotonic wall clock, seconds. Publishers and subscribers of the mesh
/// workloads share this one process clock, so latencies need no sync.
double wallSec();

/// Busy-wait until `untilSec` on the wallSec() clock (no-op if already
/// past). The driver spins rather than sleeps between rounds: on a virtual
/// machine an idle vCPU halts, and its wake-up latency is the host's, not
/// the stack's, which made sleeping runs' tail latencies unrepeatable.
void waitUntil(double untilSec);

/// Stored samples with exact nearest-rank quantiles.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> v) : v_(std::move(v)) {}
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t count() const { return v_.size(); }
  /// In the order added.
  const std::vector<double>& values() const { return v_; }
  /// Nearest-rank quantile, p in [0, 1]; 0 when empty.
  double quantile(double p) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// The host's speed drifts by tens of percent, and at times nearly
/// halves, for seconds at a time (other tenants of the machine). A
/// workload therefore repeats the same work unit several times in a run —
/// an exam frame by frame, a mesh window round by round — and times each
/// step (a frame, a round) by its fastest repeat: the per-index minimum
/// of the repeats' series. This folds one repeat's series into `best`.
void foldMin(std::vector<double>& best, const std::vector<double>& series);

/// Sum of a series.
double sumOf(const std::vector<double>& series);

/// Samples grouped into consecutive time slices as well as pooled. A run
/// reports a tail latency as the median of its slices' own p99s, so one
/// host stall moves one slice instead of the run's result.
class SlicedSamples {
 public:
  void reset(double originSec, double sliceSec) {
    origin_ = originSec;
    slice_ = sliceSec;
  }
  /// Record `v`, observed (or due) at `atSec` on the wallSec() clock.
  void add(double atSec, double v);
  const Samples& all() const { return all_; }
  /// Append the p-quantile of every slice with at least `minCount`
  /// samples to `out`.
  void sliceQuantiles(double p, std::size_t minCount, Samples& out) const;

 private:
  double origin_ = 0.0;
  double slice_ = 1.0;
  Samples all_;
  std::vector<Samples> slices_;
};

/// Fewest samples a slice needs before its p99 counts (ten beyond it).
inline constexpr std::size_t kMinP99Samples = 1000;

/// The run's p99: the median of its slices' p99s, or the pooled p99 when
/// the run was too short to fill a slice.
inline double runP99(const Samples& sliceP99s, const Samples& pooled) {
  return sliceP99s.count() > 0 ? sliceP99s.median() : pooled.quantile(0.99);
}

/// Sum of several CBs' histogram intervals (cur minus base), so one
/// percentile can be read across a whole rack.
struct HistSum {
  cod::telemetry::HistogramSnapshot total;
  void add(const cod::telemetry::HistogramSnapshot& cur,
           const cod::telemetry::HistogramSnapshot& base);
};

/// One row of the layer-sum table: a layer's self time per frame (rack)
/// or per tick round (mesh).
struct LayerRow {
  std::string name;
  double ms = 0.0;
};

/// What one invocation measured and judged.
struct Result {
  /// Metric name -> value, in the units of the tables below.
  std::map<std::string, double> values;
  /// Operations attempted and failed (updates for the meshes, exams and
  /// probe updates for the rack, plus one offered-rate check per timed
  /// window).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Why the run is not correct (divergences, failed gates).
  std::vector<std::string> failures;
  /// Human-readable detail lines printed above the metric table.
  std::vector<std::string> notes;
  /// Traced run only: the layer rows and the wall time they must add up to.
  /// The CB rows come from the CBs' own phase profiler, every other row and
  /// both reference times from the driver's stopwatches; no row is a
  /// remainder. layerPhaseMs (the CB rows' sum) must also match
  /// layerTickMs, the driver's stopwatch around the same tick() calls.
  std::vector<LayerRow> layers;
  double layerWallMs = 0.0;
  double layerPhaseMs = 0.0;
  double layerTickMs = 0.0;
  double layerTicks = 0.0;  // CB ticks per row unit
  std::string layerUnit;

  void set(const std::string& name, double v) { values[name] = v; }
  void fail(std::string why) { failures.push_back(std::move(why)); }
};

/// Cumulative counters of a set of CBs at one instant, read through their
/// public stats(), transportStats(), histograms() and phaseHistograms().
struct CbCounters {
  std::vector<std::array<cod::telemetry::HistogramSnapshot, kTickPhaseCount>>
      phases;                                             // per CB
  std::vector<cod::telemetry::HistogramSnapshot> ticks;  // per CB
  std::uint64_t packets = 0, bytes = 0, framesSent = 0, dropped = 0;
  std::uint64_t delivered = 0, retx = 0, nacks = 0, dups = 0;

  static CbCounters take(
      const std::vector<const cod::core::CommunicationBackbone*>& cbs);
};

/// Per-layer totals over the timed intervals of one mode's runs.
struct LayerTotals {
  std::array<double, kTickPhaseCount> phaseSec{};
  HistSum tickHist;
  double tickSec = 0.0;
  std::uint64_t tickCount = 0;
  std::size_t cbCount = 0;
  std::uint64_t packets = 0, bytes = 0, framesSent = 0, dropped = 0;
  std::uint64_t delivered = 0, retx = 0, nacks = 0, dups = 0;
  Samples setupDatagrams;  // one per bring-up

  /// Add the interval between two snapshots of the same CBs.
  void add(const CbCounters& before, const CbCounters& after);
  /// Tick rounds (one tick of every CB) in the intervals.
  double rounds() const {
    return static_cast<double>(tickCount) / static_cast<double>(cbCount);
  }
  double phaseSecOf(cod::telemetry::TickPhase p) const {
    return phaseSec[static_cast<std::size_t>(p)];
  }
};

/// Set the core.* (per tick round) and net.* (per delivered reflection)
/// per-layer metrics every workload shares.
void setCoreAndNet(const LayerTotals& t, Result& r);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json
/// "end_to_end"; failed_frac travels as attempted/failed instead, since it
/// is 0 on a healthy run).
extern const std::vector<MetricSpec> kEndToEnd;
/// The per-layer metrics every traced run reports (BENCHMARK.json
/// "per_layer"). A layer a workload does not exercise reports 0.
extern const std::vector<MetricSpec> kPerLayer;

/// Largest |Σ rows - wall| / wall (and |Σ CB phases - tick stopwatch| /
/// tick stopwatch) the layer-sum check accepts ...
inline constexpr double kLayerSumTolerance = 0.05;
/// ... or, if larger, this much per CB tick: tick() records its phase and
/// duration histograms outside the phases it times (~0.2 us per tick
/// measured), which on short rack ticks is already ~3% of the tick.
inline constexpr double kUnprofiledUsPerTick = 0.5;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Print the host fingerprint, the notes, every metric by name and unit,
/// the layer-sum table (traced runs) and, as the last line, the JSON
/// summary. Returns the process exit code (0 only when correct).
int printResult(const RunArgs& args, Result& r);

}  // namespace perfbench
