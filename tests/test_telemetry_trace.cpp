// Latency-tracing suite: LogHistogram bucket math, the TraceRecorder
// flight-recorder ring (wraparound, concurrency, Chrome-JSON dump), the
// sampling off-switch's wire byte-identity, end-to-end sampled latency on
// a SimNetwork cluster, and the CRIT-alarm-triggered automatic dump —
// the ISSUE's 4-node acceptance scenario.
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cb.hpp"
#include "net/simnet.hpp"
#include "telemetry/hist.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/node_telemetry.hpp"
#include "telemetry/publisher.hpp"

namespace cod::telemetry {
namespace {

// ---- LogHistogram -------------------------------------------------------

TEST(LogHistogram, BucketIndexIsMonotoneAndBounded) {
  const double lowest = 1e-5;
  EXPECT_EQ(LogHistogram::bucketOf(0.0, lowest), 0u);
  EXPECT_EQ(LogHistogram::bucketOf(lowest, lowest), 0u);
  std::size_t prev = 0;
  for (double v = lowest; v < 1e3; v *= 1.31) {
    const std::size_t idx = LogHistogram::bucketOf(v, lowest);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_LT(idx, kHistBuckets) << "v=" << v;
    // Within range, the bucket's upper edge never underestimates the
    // value it holds (the top bucket is the clamp catch-all).
    if (idx < kHistBuckets - 1) {
      EXPECT_GE(LogHistogram::bucketUpperBound(idx, lowest), v * 0.999999);
    }
    prev = idx;
  }
  // Far beyond the range: clamped to the top bucket, not out of bounds.
  EXPECT_EQ(LogHistogram::bucketOf(1e30, lowest), kHistBuckets - 1);
}

TEST(LogHistogram, RecordTracksScalarsAndPercentiles) {
  LogHistogram h(1e-5);
  // 90 samples at ~1 ms, 10 at ~100 ms: p50 near 1 ms, p99 near 100 ms.
  for (int i = 0; i < 90; ++i) h.record(1e-3);
  for (int i = 0; i < 10; ++i) h.record(0.1);
  h.record(-5.0);  // clamped to 0, lands in bucket 0
  const HistogramSnapshot& s = h.snapshot();
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.1);
  EXPECT_NEAR(s.sum, 90 * 1e-3 + 10 * 0.1, 1e-9);
  // Log buckets at 4/octave resolve within ~19% relative error.
  EXPECT_NEAR(LogHistogram::percentile(s, 0.50, h.lowest()), 1e-3, 0.25e-3);
  EXPECT_NEAR(LogHistogram::percentile(s, 0.99, h.lowest()), 0.1, 0.025);
  EXPECT_GE(LogHistogram::percentile(s, 1.0, h.lowest()), 0.1);
  EXPECT_EQ(LogHistogram::percentile(HistogramSnapshot{}, 0.5, 1e-5), 0.0);
}

TEST(LogHistogram, DiffYieldsIntervalSnapshot) {
  LogHistogram h(1e-5);
  for (int i = 0; i < 50; ++i) h.record(1e-3);
  const HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 30; ++i) h.record(0.2);
  const HistogramSnapshot d = LogHistogram::diff(h.snapshot(), before);
  EXPECT_EQ(d.count, 30u);
  EXPECT_NEAR(d.sum, 30 * 0.2, 1e-9);
  // Only the interval's bucket grew.
  EXPECT_EQ(d.buckets[LogHistogram::bucketOf(0.2, 1e-5)], 30u);
  EXPECT_EQ(d.buckets[LogHistogram::bucketOf(1e-3, 1e-5)], 0u);
  // The interval's percentile reads the new samples, not the old mass.
  EXPECT_NEAR(LogHistogram::percentile(d, 0.5, 1e-5), 0.2, 0.05);
}

TEST(CbHistogramsTable, NamesAndBoundsAreStable) {
  CbHistograms hists;
  ASSERT_EQ(CbHistograms::kCount, 4u);
  EXPECT_STREQ(CbHistograms::name(CbHistograms::kDeliveryLatencyIdx),
               "latency.deliverySec");
  EXPECT_STREQ(CbHistograms::name(1), "cb.tickDurationSec");
  EXPECT_STREQ(CbHistograms::name(2), "batch.flushBytes");
  EXPECT_STREQ(CbHistograms::name(3), "reliable.retxDelaySec");
  for (std::size_t i = 0; i < CbHistograms::kCount; ++i) {
    EXPECT_EQ(hists.at(i).lowest(), CbHistograms::lowestOf(i)) << i;
    EXPECT_GT(CbHistograms::lowestOf(i), 0.0) << i;
  }
}

// ---- TraceRecorder ring -------------------------------------------------

TEST(TraceRecorder, RingKeepsTheLastCapacityEvents) {
  TraceRecorder rec(/*capacity=*/1);  // rounded up to the 16 minimum
  ASSERT_EQ(rec.capacity(), 16u);
  const std::uint16_t lane = rec.registerLane("ring");
  for (std::uint64_t i = 0; i < 40; ++i)
    rec.record(TraceEventKind::kInOrderRelease, lane,
               static_cast<double>(i), 0.0, /*a=*/i);
  EXPECT_EQ(rec.recorded(), 40u);
  const auto events = rec.snapshotEvents();
  ASSERT_EQ(events.size(), 16u);
  // Oldest first, and only the newest capacity() events survive.
  EXPECT_EQ(events.front().a, 24u);
  EXPECT_EQ(events.back().a, 39u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_EQ(events[i].a, events[i - 1].a + 1);
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec(64);
  const std::uint16_t lane = rec.registerLane("off");
  rec.setEnabled(false);
  EXPECT_FALSE(rec.enabled());
  rec.record(TraceEventKind::kTickBegin, lane, 1.0);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshotEvents().empty());
  rec.setEnabled(true);
  rec.record(TraceEventKind::kTickBegin, lane, 2.0);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(TraceRecorder, DumpJsonIsWellFormedChromeTrace) {
  TraceRecorder rec(64);
  const std::uint16_t cbLane = rec.registerLane("alpha");
  const std::uint16_t monLane = rec.registerLane("health-monitor");
  rec.record(TraceEventKind::kTickEnd, cbLane, 1.0, 0.002, /*a=*/7);
  rec.record(TraceEventKind::kDatagramSend, cbLane, 1.001, 0.0, 512);
  rec.record(TraceEventKind::kPublisherSpan, cbLane, 1.0, 0.05, 42, 3);
  rec.record(TraceEventKind::kAlarmRaised, monLane, 1.2);
  // Hostile values must not corrupt the JSON: a non-finite timestamp and
  // an out-of-range kind byte are sanitized at dump time.
  rec.record(TraceEventKind::kTickBegin, cbLane,
             std::numeric_limits<double>::quiet_NaN());
  rec.record(static_cast<TraceEventKind>(250), cbLane, 1.3);
  const std::string json = rec.dumpJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("update e2e"), std::string::npos);
  EXPECT_NE(json.find("alarm raised"), std::string::npos);
  // Lane names ride as thread_name metadata for the viewer's track list.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
  EXPECT_NE(json.find("health-monitor"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // Balanced braces/brackets — the cheap structural sanity check.
  std::int64_t braces = 0, brackets = 0;
  bool inString = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) inString = !inString;
    if (inString) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(inString);
}

TEST(TraceRecorder, ConcurrentRecordAndSnapshotStress) {
  TraceRecorder rec(256);
  const std::uint16_t lane = rec.registerLane("stress");
  static constexpr int kThreads = 4;
  static constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, lane, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        rec.record(TraceEventKind::kDatagramRecv, lane,
                   static_cast<double>(i), 0.0, i,
                   static_cast<std::uint64_t>(t));
    });
  }
  // A reader snapshots concurrently: every observed event must be whole
  // (valid kind, lane, and a payload some writer actually produced).
  workers.emplace_back([&rec, lane] {
    for (int i = 0; i < 50; ++i) {
      for (const TraceEvent& e : rec.snapshotEvents()) {
        ASSERT_EQ(e.kind, TraceEventKind::kDatagramRecv);
        ASSERT_EQ(e.lane, lane);
        ASSERT_LT(e.a, kPerThread);
        ASSERT_LT(e.b, static_cast<std::uint64_t>(kThreads));
      }
    }
  });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  EXPECT_EQ(rec.snapshotEvents().size(), rec.capacity());
}

// ---- wire byte-identity with sampling off -------------------------------

core::AttributeSet sampleAttrs() {
  core::AttributeSet a;
  a.set("speed", 4.5);
  a.set("on", true);
  return a;
}

/// Publishes `cls` reliably every `intervalSec` of virtual time.
class ReliableTrafficLp : public core::LogicalProcess {
 public:
  ReliableTrafficLp(std::string cls, double intervalSec)
      : core::LogicalProcess("traffic"), cls_(std::move(cls)),
        interval_(intervalSec) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, cls_, net::QosClass::kReliableOrdered);
  }

  void step(double now) override {
    if (now - last_ < interval_) return;
    backbone()->updateAttributeValues(pub_, sampleAttrs(), now);
    last_ = now;
  }

 private:
  std::string cls_;
  double interval_;
  double last_ = -1e300;
  core::PublicationHandle pub_ = core::kInvalidHandle;
};

class ReliableSinkLp : public core::LogicalProcess {
 public:
  explicit ReliableSinkLp(std::string cls)
      : core::LogicalProcess("sink"), cls_(std::move(cls)) {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    cb.subscribeObjectClass(*this, cls_, net::QosClass::kReliableOrdered);
  }

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet&, double) override {
    if (className == cls_) ++seen_;
  }

  std::uint64_t seen() const { return seen_; }

 private:
  std::string cls_;
  std::uint64_t seen_ = 0;
};

/// Transport decorator journaling every outbound datagram.
class TapTransport final : public net::Transport {
 public:
  TapTransport(std::unique_ptr<net::Transport> inner,
               std::vector<std::vector<std::uint8_t>>* log)
      : inner_(std::move(inner)), log_(log) {}

  net::NodeAddr localAddress() const override {
    return inner_->localAddress();
  }
  void send(const net::NodeAddr& dst,
            std::span<const std::uint8_t> bytes) override {
    log_->emplace_back(bytes.begin(), bytes.end());
    inner_->send(dst, bytes);
  }
  void broadcast(std::uint16_t port,
                 std::span<const std::uint8_t> bytes) override {
    log_->emplace_back(bytes.begin(), bytes.end());
    inner_->broadcast(port, bytes);
  }
  std::optional<net::Datagram> receive() override { return inner_->receive(); }
  const net::TransportStats* stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::vector<std::vector<std::uint8_t>>* log_;
};

/// Run a 2-node reliable stream; optionally hand both CBs a recorder
/// (sampling stays OFF either way). Returns every datagram sent.
std::vector<std::vector<std::uint8_t>> runTapped(bool withRecorder) {
  net::SimNetwork net(/*seed=*/9);
  std::vector<std::vector<std::uint8_t>> log;
  const net::HostId h0 = net.addHost("alpha");
  const net::HostId h1 = net.addHost("bravo");
  TraceRecorder rec(1024);
  core::CommunicationBackbone::Config cfg;
  cfg.trace = withRecorder ? &rec : nullptr;
  cfg.traceSampleEvery = 0;  // the guarantee under test
  core::CommunicationBackbone cbA(
      "alpha", std::make_unique<TapTransport>(net.bind(h0, 1), &log), cfg);
  core::CommunicationBackbone cbB(
      "bravo", std::make_unique<TapTransport>(net.bind(h1, 1), &log), cfg);
  ReliableTrafficLp traffic("demo.state", 0.05);
  ReliableSinkLp sink("demo.state");
  traffic.bind(cbA);
  sink.bind(cbB);
  for (double t = 0.0; t < 3.0; t += 0.005) {
    net.advance(0.005);
    cbA.tick(net.now());
    cbB.tick(net.now());
  }
  if (withRecorder) {
    // The recorder observed the run (ticks, datagrams)...
    EXPECT_GT(rec.recorded(), 0u);
  }
  return log;
}

TEST(TraceSampling, SamplingOffIsByteIdenticalOnTheWire) {
  const auto without = runTapped(false);
  const auto with = runTapped(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i)
    ASSERT_EQ(without[i], with[i]) << "datagram " << i;
}

// ---- end-to-end sampled latency -----------------------------------------

TEST(TraceSampling, PublisherMeasuresEndToEndLatencyFromEcho) {
  net::SimNetwork net(/*seed=*/13);
  const net::HostId h0 = net.addHost("alpha");
  const net::HostId h1 = net.addHost("bravo");
  TraceRecorder rec(4096);
  core::CommunicationBackbone::Config cfg;
  cfg.trace = &rec;
  cfg.traceSampleEvery = 4;
  core::CommunicationBackbone cbA("alpha", net.bind(h0, 1), cfg);
  core::CommunicationBackbone cbB("bravo", net.bind(h1, 1), cfg);
  ReliableTrafficLp traffic("crane.state", 0.05);
  ReliableSinkLp sink("crane.state");
  traffic.bind(cbA);
  sink.bind(cbB);
  for (double t = 0.0; t < 5.0; t += 0.005) {
    net.advance(0.005);
    cbA.tick(net.now());
    cbB.tick(net.now());
  }
  EXPECT_GT(sink.seen(), 50u);

  // The publisher's delivery-latency histogram filled from WINDOW_ACK
  // echoes — publish -> in-order release plus the echo's return transit,
  // so every sample is nonnegative and bounded by the run.
  const HistogramSnapshot& lat =
      cbA.histograms().at(CbHistograms::kDeliveryLatencyIdx).snapshot();
  EXPECT_GT(lat.count, 5u);
  EXPECT_GE(lat.min, 0.0);
  EXPECT_LT(lat.max, 5.0);
  // The subscriber side never sees an echo of its own.
  EXPECT_EQ(
      cbB.histograms().at(CbHistograms::kDeliveryLatencyIdx).count(), 0u);

  // Both halves of the sampled update's story are in the recorder.
  bool sawPublisherSpan = false, sawSubscriberSpan = false, sawTag = false;
  for (const TraceEvent& e : rec.snapshotEvents()) {
    sawPublisherSpan |= e.kind == TraceEventKind::kPublisherSpan;
    sawSubscriberSpan |= e.kind == TraceEventKind::kSubscriberSpan;
    sawTag |= e.kind == TraceEventKind::kUpdatePublished;
  }
  EXPECT_TRUE(sawPublisherSpan);
  EXPECT_TRUE(sawSubscriberSpan);
  EXPECT_TRUE(sawTag);
  const std::string json = rec.dumpJson();
  EXPECT_NE(json.find("update e2e"), std::string::npos);
  EXPECT_NE(json.find("update hold+release"), std::string::npos);
}

// ---- CRIT alarms auto-dump the flight recorder --------------------------

core::AttributeSet wrapRecord(const NodeTelemetry& t) {
  core::AttributeSet a;
  a.set(kTelemetryAttr, encodeTelemetry(t));
  return a;
}

TEST(FlightRecorder, CritAlarmEdgeDumpsTheRing) {
  TraceRecorder rec(256);
  const std::string path = ::testing::TempDir() + "cod-trace-crit.json";
  std::remove(path.c_str());
  HealthMonitor monitor;
  monitor.attachFlightRecorder(&rec, path);

  const auto pinned = [](std::uint64_t seq, double timeSec,
                         std::uint64_t retx) {
    NodeTelemetry t;
    t.seq = seq;
    t.node = "unit";
    t.addr = {1, 1};
    t.nodeTimeSec = timeSec;
    core::CbChannelHealth c;
    c.channelId = 7;
    c.className = "crane.state";
    c.outbound = true;
    c.live = true;
    c.qos = net::QosClass::kReliableOrdered;
    c.windowFrames = 512;
    c.retransmits = retx;
    return t.channels.push_back(c), t;
  };
  monitor.reflectAttributeValues(kTelemetryClass, wrapRecord(pinned(1, 0.0, 0)),
                                 0.0);
  // Snapshot 2: channel retransmit storm — a WARNING edge records an
  // event but must not dump.
  monitor.reflectAttributeValues(kTelemetryClass,
                                 wrapRecord(pinned(2, 1.0, 100)), 1.0);
  EXPECT_EQ(monitor.flightRecorderDumps(), 0u);
  bool sawAlarmEvent = false;
  for (const TraceEvent& e : rec.snapshotEvents())
    sawAlarmEvent |= e.kind == TraceEventKind::kAlarmRaised;
  EXPECT_TRUE(sawAlarmEvent);
  {
    std::ifstream in(path);
    EXPECT_FALSE(in.good()) << "WARNING alarm must not dump";
  }

  // Snapshot 3: the window held pinned across two snapshots — CRITICAL,
  // and the ring lands on disk for the operator.
  monitor.reflectAttributeValues(kTelemetryClass,
                                 wrapRecord(pinned(3, 2.0, 200)), 2.0);
  EXPECT_EQ(monitor.flightRecorderDumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.str().find("alarm raised"), std::string::npos);
  std::remove(path.c_str());
}

// ---- the ISSUE's 4-node acceptance scenario -----------------------------

/// Four CBs on one SimNetwork share a flight recorder; sampled reliable
/// updates flow; a partition forces a CRIT (NODE_SILENT) and the
/// automatic dump must contain both publisher and subscriber spans of at
/// least one sampled update.
TEST(FlightRecorder, FourNodeAcceptanceCritDumpCarriesSampledSpans) {
  net::SimNetwork net(/*seed=*/29);
  TraceRecorder rec(1 << 14);
  std::vector<std::unique_ptr<core::CommunicationBackbone>> cbs;
  for (const char* name : {"n0", "n1", "n2", "n3"}) {
    const net::HostId h = net.addHost(name);
    core::CommunicationBackbone::Config cfg;
    cfg.trace = &rec;
    cfg.traceSampleEvery = 2;
    cbs.push_back(std::make_unique<core::CommunicationBackbone>(
        name, net.bind(h, 1), cfg));
  }
  ReliableTrafficLp traffic("mesh.a", 1.0 / 16.0);
  ReliableSinkLp sink2("mesh.a"), sink3("mesh.a");
  traffic.bind(*cbs[1]);
  sink2.bind(*cbs[2]);
  sink3.bind(*cbs[3]);
  TelemetryConfig tcfg;
  tcfg.intervalSec = 0.25;
  std::vector<std::unique_ptr<TelemetryPublisher>> pubs;
  for (auto& cb : cbs) {
    pubs.push_back(std::make_unique<TelemetryPublisher>(tcfg));
    pubs.back()->bind(*cb);
  }
  MonitorConfig mcfg;
  mcfg.expectedIntervalSec = tcfg.intervalSec;
  mcfg.silentAfterIntervals = 6.0;
  HealthMonitor monitor(mcfg);
  monitor.bind(*cbs[0]);
  const std::string path = ::testing::TempDir() + "cod-trace-acceptance.json";
  std::remove(path.c_str());
  monitor.attachFlightRecorder(&rec, path);

  const auto run = [&](double seconds) {
    const double until = net.now() + seconds;
    while (net.now() < until) {
      net.advance(0.005);
      for (auto& cb : cbs) cb->tick(net.now());
    }
  };
  run(5.0);
  EXPECT_GT(sink2.seen(), 30u);
  EXPECT_EQ(monitor.flightRecorderDumps(), 0u);

  // n2 goes dark: NODE_SILENT is critical, and the dump fires.
  for (net::HostId other : {0u, 1u, 3u}) net.setPartitioned(2, other, true);
  run(6.0);
  ASSERT_GE(monitor.flightRecorderDumps(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  // Publisher and subscriber spans of sampled updates made it into the
  // flight recording, on named lanes, alongside the alarm edge itself.
  EXPECT_NE(json.find("update e2e"), std::string::npos);
  EXPECT_NE(json.find("update hold+release"), std::string::npos);
  EXPECT_NE(json.find("alarm raised"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("n1"), std::string::npos);  // publisher lane named
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cod::telemetry
