// Reliable-channel benchmarks: what the NACK/retransmit window costs next
// to the newest-wins path, what throughput looks like when the LAN
// actually drops packets (0 / 5 / 25% loss), and what evicting the oldest
// frame costs once a window is full.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
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

/// Stream updates across the simulated LAN at the given loss rate and QoS;
/// the counter shows how much of the stream actually arrived (best effort
/// thins out, reliable keeps everything at the price of retransmits).
void streamOverLossyLan(benchmark::State& state, net::QosClass qos) {
  const double lossRate = static_cast<double>(state.range(0)) / 1000.0;
  core::CodCluster::Config cfg;
  cfg.link.lossRate = lossRate;
  cfg.link.jitterSec = 200e-6;
  core::CodCluster cluster(cfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  CountingLp pub, sub;
  cbA.attach(pub);
  cbB.attach(sub);
  const auto h = cbA.publishObjectClass(pub, "bench.reliable");
  const auto s = cbB.subscribeObjectClass(sub, "bench.reliable", qos);
  cluster.runUntil([&] { return cbB.connected(s); }, 30.0);
  const core::AttributeSet attrs = sampleAttrs();
  for (auto _ : state) {
    cbA.updateAttributeValues(h, attrs, cluster.now());
    cluster.step(0.001);
  }
  // Drain the retransmit pipeline so `delivered` reflects the guarantee.
  for (int i = 0; i < 2000 && sub.received < static_cast<std::uint64_t>(
                                  state.iterations());
       ++i)
    cluster.step(0.01);
  state.counters["delivered"] = static_cast<double>(sub.received);
  state.counters["deliveredPct"] =
      100.0 * static_cast<double>(sub.received) /
      static_cast<double>(state.iterations());
  state.counters["retransmits"] =
      static_cast<double>(cbA.stats().reliable.retransmitsSent);
  state.counters["nacks"] = static_cast<double>(cbB.stats().reliable.nacksSent);
}

void BM_StreamBestEffort(benchmark::State& state) {
  streamOverLossyLan(state, net::QosClass::kBestEffort);
}

void BM_StreamReliableOrdered(benchmark::State& state) {
  streamOverLossyLan(state, net::QosClass::kReliableOrdered);
}

/// Transport that discards outbound traffic: isolates the CB send path.
class NullTransport final : public net::Transport {
 public:
  net::NodeAddr localAddress() const override { return {1, 1}; }
  void send(const net::NodeAddr&, std::span<const std::uint8_t> bytes) override {
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

/// Pure send-path overhead of reliable fan-out vs BM_FanOutSendOnly in
/// bench_cb_routing.cpp: same encode-once/patch-channel-id loop plus one
/// window copy per update. Subscriber acks are injected periodically so
/// the window prunes the way it does on a healthy link.
void BM_FanOutSendOnlyReliable(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  auto transport = std::make_unique<NullTransport>();
  NullTransport* net = transport.get();
  core::CommunicationBackbone cb("pub", std::move(transport));
  CountingLp pub;
  cb.attach(pub);
  const auto h = cb.publishObjectClass(pub, "bench.data");
  for (std::uint32_t i = 0; i < fan; ++i) {
    net->inject({10 + i, 1},
                core::encode(core::ChannelConnectionMsg{
                    100 + i, h, 1 + i, "bench.data",
                    net::QosClass::kReliableOrdered}));
  }
  cb.tick(0.0);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    cb.updateAttributeValues(h, attrs, t);
    ++seq;
    if ((seq & 0xFF) == 0) {
      // Periodic cumulative acks from every subscriber.
      state.PauseTiming();
      for (std::uint32_t i = 0; i < fan; ++i) {
        net->inject({10 + i, 1},
                    core::encode(core::WindowAckMsg{1 + i, seq, false}));
      }
      cb.tick(t);
      state.ResumeTiming();
    }
    t += 1e-6;
  }
  state.counters["fan"] = fan;
  const auto& rs = cb.stats().reliable;
  state.counters["windowResidual"] = static_cast<double>(
      rs.framesBuffered - rs.framesPruned - rs.sendWindowEvictions);
  state.counters["bytes"] =
      benchmark::Counter(static_cast<double>(net->bytesSent),
                         benchmark::Counter::kIsRate);
}

/// A window pinned at its frame cap with no acks arriving: every update
/// evicts the oldest frame to admit the new one. The frame cap is the
/// send window's only memory bound, so this is what a subscriber that
/// stops acking costs its publisher per update. The window is filled to
/// its net::kSendWindowFrames cap before timing starts.
void BM_OverflowEvictOldest(benchmark::State& state) {
  auto transport = std::make_unique<NullTransport>();
  NullTransport* net = transport.get();
  core::CommunicationBackbone cb("pub", std::move(transport));
  CountingLp pub;
  cb.attach(pub);
  const auto h = cb.publishObjectClass(pub, "bench.data");
  net->inject({10, 1}, core::encode(core::ChannelConnectionMsg{
                           100, h, 1, "bench.data",
                           net::QosClass::kReliableOrdered}));
  cb.tick(0.0);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (std::size_t i = 0; i < net::kSendWindowFrames; ++i) {
    cb.updateAttributeValues(h, attrs, t);
    t += 1e-6;
  }
  cb.flushBatches();
  for (auto _ : state) {
    cb.updateAttributeValues(h, attrs, t);
    t += 1e-6;
  }
  state.counters["evictions"] =
      static_cast<double>(cb.stats().reliable.sendWindowEvictions);
}

}  // namespace

BENCHMARK(BM_StreamBestEffort)->Arg(0)->Arg(50)->Arg(250);
BENCHMARK(BM_StreamReliableOrdered)->Arg(0)->Arg(50)->Arg(250);
BENCHMARK(BM_FanOutSendOnlyReliable)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_OverflowEvictOldest);
