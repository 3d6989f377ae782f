// Log-bucketed HDR-style histograms for the latency/size observables the
// telemetry record exports (wire v3): delivery latency, tick duration,
// flush size and retransmit delay.
//
// A LogHistogram buckets values geometrically — 4 sub-buckets per octave,
// kHistBuckets buckets total — above a per-histogram lowest bound, so a
// fixed 96-counter array resolves p50/p90/p99 within ~19% relative error
// across a ~10^7 dynamic range. Recording is allocation-free and branch-
// light (one log2 on a double), cheap enough for the CB hot paths that
// feed it every tick.
//
// Snapshots are cumulative, like the telemetry counters: the monitor
// derives *interval* percentiles by diffing the bucket arrays of two
// consecutive snapshots (LogHistogram::diff), exactly as it derives rates
// from counter deltas.
//
// This header is deliberately std-only (no core/net/telemetry includes)
// so any layer — src/net's reliable window, src/core's tick loop — can
// hold a histogram pointer without an include cycle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cod::telemetry {

/// Bucket count of every histogram on the wire and in memory. Fixed so
/// the v3 telemetry block has one layout; 96 buckets at 4 per octave span
/// 24 octaves (~1.7e7x) above the lowest bound.
inline constexpr std::size_t kHistBuckets = 96;

/// Sub-buckets per octave (power of two ratio 2^(1/4) between bucket
/// upper edges).
inline constexpr std::size_t kHistSubBuckets = 4;

/// One histogram state, cumulative since process start — the type that
/// rides in the telemetry record and is diffed by the monitor.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 while count == 0
  double max = 0.0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Log-bucketed histogram with a fixed lowest bound. Values at or below
/// `lowest` land in bucket 0; bucket i holds values in
/// (lowest*2^((i-1)/4), lowest*2^(i/4)].
class LogHistogram {
 public:
  explicit LogHistogram(double lowest) : lowest_(lowest) {}

  /// Record one sample. Negative values are clamped to 0 (a skewed clock
  /// must not corrupt the distribution).
  void record(double v);

  const HistogramSnapshot& snapshot() const { return snap_; }
  double lowest() const { return lowest_; }
  std::uint64_t count() const { return snap_.count; }

  /// Upper edge of bucket `idx` for a histogram with `lowest` bound — the
  /// conservative (never-underestimating) value a bucket represents.
  static double bucketUpperBound(std::size_t idx, double lowest);

  /// Bucket index for value `v` (the smallest bucket whose upper edge is
  /// >= v, clamped to the top bucket).
  static std::size_t bucketOf(double v, double lowest);

  /// Interval histogram: `cur` minus `prev`, counts clamped at zero (a
  /// restarted publisher resets its counters; the monitor resets its base
  /// on restart detection, so clamping only guards corrupt input).
  static HistogramSnapshot diff(const HistogramSnapshot& cur,
                                const HistogramSnapshot& prev);

  /// Value at quantile `p` in [0,1] from a snapshot's buckets (upper edge
  /// of the bucket where the cumulative count crosses p*count; p=1 gives
  /// the highest non-empty bucket's edge). 0 when the snapshot is empty.
  static double percentile(const HistogramSnapshot& s, double p,
                           double lowest);

 private:
  double lowest_;
  HistogramSnapshot snap_;
};

/// The CB's histogram set, one instance per CommunicationBackbone,
/// exported in the v3 telemetry record in this fixed order (append-only,
/// like the counter table — decoders key on index).
struct CbHistograms {
  /// Publish -> in-order-release latency of sampled reliable updates, as
  /// measured by the publisher from the WINDOW_ACK echo (includes the
  /// echo's return-path transit — a documented overestimate).
  LogHistogram deliveryLatencySec{1e-5};
  /// Wall-clock duration of CommunicationBackbone::tick().
  LogHistogram tickDurationSec{1e-6};
  /// Datagram sizes leaving the send coalescer (solo and container).
  LogHistogram flushBytes{16.0};
  /// Sender-side delay between successive (re)transmissions of the same
  /// reliable frame — how long a loss went unrepaired.
  LogHistogram retransmitDelaySec{1e-4};

  static constexpr std::size_t kCount = 4;
  /// Index of deliveryLatencySec in at()/the wire order — the histogram
  /// the monitor's latency column and LATENCY_SPIKE alarm read.
  static constexpr std::size_t kDeliveryLatencyIdx = 0;

  LogHistogram& at(std::size_t i);
  const LogHistogram& at(std::size_t i) const;
  /// Stable wire/table name of histogram `i`.
  static const char* name(std::size_t i);
  /// Lowest bound of histogram `i` — decoders need it to turn bucket
  /// indices back into values.
  static double lowestOf(std::size_t i);
};

/// The measured phases one CommunicationBackbone::tick splits into when
/// Config::phaseProfile is on. Fixed wire order (telemetry phase block)
/// — append-only, like the counter table.
enum class TickPhase : std::size_t {
  kPollDecode = 0,  // transport receive loop minus routing time
  kRoute = 1,       // dispatchMessage: decode routing + table updates
  kTimers = 2,      // runTimers: broadcasts, retransmits, keep-alives
  kStage = 3,       // mailbox delivery + LP step (update staging)
  kFlush = 4,       // flushBatches: coalesced sends
};

inline constexpr std::size_t kTickPhaseCount = 5;

/// Per-phase wall-clock histograms, one set per CommunicationBackbone.
/// All share one lowest bound (phases are all sub-tick durations) so the
/// phase block needs no per-phase bound on the wire.
struct TickPhaseHistograms {
  static constexpr double kLowest = 1e-7;

  LogHistogram pollDecodeSec{kLowest};
  LogHistogram routeSec{kLowest};
  LogHistogram timersSec{kLowest};
  LogHistogram stageSec{kLowest};
  LogHistogram flushSec{kLowest};

  LogHistogram& at(std::size_t i);
  const LogHistogram& at(std::size_t i) const;
  /// Stable wire/table name of phase `i`.
  static const char* name(std::size_t i);
  /// Short label for dense table columns ("poll", "route", ...).
  static const char* shortName(std::size_t i);
  static double lowestOf(std::size_t) { return kLowest; }
};

}  // namespace cod::telemetry
