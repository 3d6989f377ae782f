// Flow-control benchmarks: what the adaptive machinery added for the
// byte-budgeted send windows costs when armed but idle (the common case —
// a healthy rack never hits its budget), what evicting the oldest frame
// costs when a window actually fills, what a split per-channel window
// adds to the fan-out loop, and how cheap the best-effort thinning fast
// path is.
// BENCH_flow.json is a required baseline in bench/run_all.sh.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/cb.hpp"
#include "core/protocol.hpp"
#include "net/transport.hpp"

namespace {

using namespace cod;

class CountingLp : public core::LogicalProcess {
 public:
  CountingLp() : core::LogicalProcess("lp") {}
  std::uint64_t received = 0;
  void reflectAttributeValues(const std::string&, const core::AttributeSet&,
                              double) override {
    ++received;
  }
};

core::AttributeSet sampleAttrs() {
  core::AttributeSet a;
  a.set("carrierPos", math::Vec3{1, 2, 3});
  a.set("heading", 0.5);
  a.set("speed", 3.2);
  a.set("score", 96.0);
  a.set("phase", std::int64_t{3});
  a.set("alarms", std::int64_t{0});
  return a;
}

/// Transport that discards outbound traffic: isolates the CB send path.
class NullTransport final : public net::Transport {
 public:
  net::NodeAddr localAddress() const override { return {1, 1}; }
  void send(const net::NodeAddr&,
            std::span<const std::uint8_t> bytes) override {
    bytesSent += bytes.size();
  }
  void broadcast(std::uint16_t, std::span<const std::uint8_t>) override {}
  std::optional<net::Datagram> receive() override {
    if (inbound.empty()) return std::nullopt;
    net::Datagram d = std::move(inbound.front());
    inbound.pop_front();
    return d;
  }
  void inject(const net::NodeAddr& src, std::vector<std::uint8_t> bytes) {
    inbound.push_back(net::Datagram{src, localAddress(), std::move(bytes)});
  }
  std::uint64_t bytesSent = 0;
  std::deque<net::Datagram> inbound;
};

/// One publisher CB with `fan` connected subscriber channels of `qos`,
/// ready for send-path measurement.
struct FanOutRig {
  FanOutRig(std::uint32_t fan, net::QosClass qos,
            core::CommunicationBackbone::Config cfg = {}) {
    auto transport = std::make_unique<NullTransport>();
    net = transport.get();
    cb = std::make_unique<core::CommunicationBackbone>(
        "pub", std::move(transport), cfg);
    cb->attach(lp);
    h = cb->publishObjectClass(lp, "bench.flow");
    for (std::uint32_t i = 0; i < fan; ++i)
      net->inject({10 + i, 1},
                  core::encode(core::ChannelConnectionMsg{
                      100 + i, h, 1 + i, "bench.flow", qos}));
    cb->tick(0.0);
  }

  void ackAll(std::uint32_t fan, std::uint64_t seq, double now) {
    for (std::uint32_t i = 0; i < fan; ++i)
      net->inject({10 + i, 1},
                  core::encode(core::WindowAckMsg{1 + i, seq, false}));
    cb->tick(now);
  }

  NullTransport* net = nullptr;
  std::unique_ptr<core::CommunicationBackbone> cb;
  CountingLp lp;
  core::PublicationHandle h = core::kInvalidHandle;
};

/// The armed-but-idle case: a byte budget on the shared window that a
/// healthy (regularly acked) stream never reaches. The delta against
/// bench_reliable's BM_FanOutSendOnlyReliable is the whole price of the
/// byte-budget check and bytes accounting on the hot path.
void BM_FanOutBudgetedIdle(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  core::CommunicationBackbone::Config cfg;
  cfg.reliable.sendWindowBytes = 1 << 20;
  FanOutRig rig(fan, net::QosClass::kReliableOrdered, cfg);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    ++seq;
    if ((seq & 0xFF) == 0) {
      state.PauseTiming();
      rig.ackAll(fan, seq, t);
      state.ResumeTiming();
    }
    t += 1e-6;
  }
  state.counters["fan"] = fan;
  state.counters["evictions"] =
      static_cast<double>(rig.cb->stats().reliable.sendWindowEvictions);
}

/// A window pinned at its byte budget with no acks arriving: every update
/// evicts the oldest frame to admit the new one.
void BM_OverflowEvictOldest(benchmark::State& state) {
  core::CommunicationBackbone::Config cfg;
  cfg.reliable.sendWindowBytes = 4096;
  FanOutRig rig(1, net::QosClass::kReliableOrdered, cfg);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    t += 1e-6;
  }
  state.counters["evictions"] =
      static_cast<double>(rig.cb->stats().reliable.sendWindowEvictions);
}

/// Fan-out with one channel split onto its own retransmit window (every
/// other channel acks, channel 0 never does): each update pays one extra
/// frame copy into the split window on top of the shared store.
void BM_FanOutOneSplitChannel(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  core::CommunicationBackbone::Config cfg;
  cfg.reliable.sendWindowBytes = 1 << 20;
  cfg.reliable.perChannelWindowSplit = true;
  cfg.reliable.splitLagFrames = 8;
  cfg.reliable.splitSustainSec = 0.01;
  FanOutRig rig(fan, net::QosClass::kReliableOrdered, cfg);
  const core::AttributeSet attrs = sampleAttrs();
  // Warm-up: channel 0 falls splitLagFrames behind while the rest keep
  // acking, then the sustain timer trips and the split happens.
  double t = 0.0;
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    for (std::uint32_t i = 1; i < fan; ++i)
      rig.net->inject({10 + i, 1},
                      core::encode(core::WindowAckMsg{1 + i, seq, false}));
    t += 0.01;
    rig.cb->tick(t);
  }
  std::uint64_t seq = 64;
  for (auto _ : state) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    ++seq;
    if ((seq & 0xFF) == 0) {
      // Healthy channels ack; the laggard stays split and its own window
      // evicts under the byte budget exactly as a real starved peer's
      // would.
      state.PauseTiming();
      for (std::uint32_t i = 1; i < fan; ++i)
        rig.net->inject({10 + i, 1},
                        core::encode(core::WindowAckMsg{1 + i, seq, false}));
      rig.cb->tick(t);
      state.ResumeTiming();
    }
    t += 1e-6;
  }
  state.counters["fan"] = fan;
  state.counters["splits"] =
      static_cast<double>(rig.cb->stats().reliable.windowSplits);
}

/// Best-effort thinning fast path: with a peer's send factor at 0.25,
/// three of four updates toward it are skipped before encode-adjacent
/// work for that channel happens. The counter confirms the skip rate.
void BM_ThinnedBestEffortFanOut(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  FanOutRig rig(fan, net::QosClass::kBestEffort);
  for (std::uint32_t i = 0; i < fan; ++i)
    rig.cb->setPeerSendFactor({10 + i, 1}, 0.25);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    t += 1e-6;
  }
  state.counters["fan"] = fan;
  state.counters["thinned"] =
      static_cast<double>(rig.cb->stats().updatesThinned);
}

/// Adaptive mid-tick flush: staged container bytes crossing the tick
/// budget trigger an immediate flushBatches instead of waiting for the
/// tick boundary. The loop never ticks, so every flush seen is adaptive.
void BM_AdaptiveMidTickFlush(benchmark::State& state) {
  core::CommunicationBackbone::Config cfg;
  cfg.batch.tickFlushByteBudget = static_cast<std::size_t>(state.range(0));
  FanOutRig rig(4, net::QosClass::kBestEffort, cfg);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    rig.cb->updateAttributeValues(rig.h, attrs, t);
    t += 1e-6;
  }
  state.counters["adaptiveFlushes"] =
      static_cast<double>(rig.cb->stats().batch.adaptiveFlushes);
  state.counters["bytes"] =
      benchmark::Counter(static_cast<double>(rig.net->bytesSent),
                         benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_FanOutBudgetedIdle)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_OverflowEvictOldest);
BENCHMARK(BM_FanOutOneSplitChannel)->Arg(2)->Arg(8);
BENCHMARK(BM_ThinnedBestEffortFanOut)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_AdaptiveMidTickFlush)->Arg(4096)->Arg(65536);
