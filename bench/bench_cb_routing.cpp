// E3 — Communication Backbone routing (Figs. 1 & 2): cost of pushing an
// attribute update through a virtual channel, for the same-computer fast
// path vs the cross-host path, plus codec microbenchmarks.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/protocol.hpp"
#include "net/transport.hpp"
#include "sim/object_classes.hpp"

namespace {

using namespace cod;

class NullLp : public core::LogicalProcess {
 public:
  NullLp() : core::LogicalProcess("lp") {}
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
  a.set("slew", -0.2);
  a.set("boomPitch", 0.8);
  a.set("cableLen", 6.0);
  a.set("engineOn", true);
  a.set("alarms", std::int64_t{0});
  return a;
}

/// The first `n` (by name) of the crane state's 23 attributes.
core::AttributeSet craneAttrs(std::size_t n) {
  const core::AttributeSet crane = sim::encodeCraneState(sim::CraneStateMsg{});
  core::AttributeSet a;
  for (const auto& [name, value] : crane) {
    if (a.size() == n) break;
    a.set(name, value);
  }
  return a;
}

/// Local fast path: publisher and subscriber on one CB.
void BM_LocalFastPathUpdate(benchmark::State& state) {
  core::CodCluster cluster;
  auto& cb = cluster.addComputer("onebox");
  NullLp pub, sub;
  cb.attach(pub);
  cb.attach(sub);
  const auto h = cb.publishObjectClass(pub, "bench.data");
  cb.subscribeObjectClass(sub, "bench.data");
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    cb.updateAttributeValues(h, attrs, t);
    cb.tick(t);
    t += 1e-4;
  }
  state.counters["delivered"] = static_cast<double>(sub.received);
}

/// Local fast path with wide registration tables: the per-update
/// publication/subscription lookups are hash-table hits now (they were
/// O(log n) ordered-map walks), so the cost must stay flat as the tables
/// grow to state.range(0) co-registered pub/sub pairs — including the
/// 10k-pair mass-connect scale. No tick runs in the loop (delivery walks
/// every subscription), so the mailbox fills to kMailboxLimit and each
/// update then evicts its oldest reflection.
void BM_LocalFastPathUpdateWideTables(benchmark::State& state) {
  const int tables = static_cast<int>(state.range(0));
  core::CodCluster cluster;
  auto& cb = cluster.addComputer("onebox");
  NullLp pub, sub;
  cb.attach(pub);
  cb.attach(sub);
  const auto h = cb.publishObjectClass(pub, "bench.data");
  cb.subscribeObjectClass(sub, "bench.data");
  for (int i = 0; i < tables; ++i) {
    const std::string cls = "bench.filler." + std::to_string(i);
    cb.publishObjectClass(pub, cls);
    cb.subscribeObjectClass(sub, cls);
  }
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    cb.updateAttributeValues(h, attrs, t);
    t += 1e-4;
  }
  state.counters["tables"] = tables;
}

/// Cross-host path: update serialized, sent over the simulated LAN,
/// decoded and delivered on the far CB, for an update of state.range(0)
/// crane-state attributes (2, 8, 23) — the slope is the per-attribute
/// price of the send and receive paths.
void BM_CrossHostUpdate(benchmark::State& state) {
  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  NullLp pub, sub;
  cbA.attach(pub);
  cbB.attach(sub);
  const auto h = cbA.publishObjectClass(pub, "bench.data");
  const auto s = cbB.subscribeObjectClass(sub, "bench.data");
  cluster.runUntil([&] { return cbB.connected(s); }, 5.0);
  const core::AttributeSet attrs =
      craneAttrs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    cbA.updateAttributeValues(h, attrs, cluster.now());
    cluster.step(0.001);  // latency 200 us: delivered within one slice
  }
  state.counters["attrs"] = static_cast<double>(attrs.size());
  state.counters["delivered"] = static_cast<double>(sub.received);
}

/// Fan-out: one publisher, N subscribing computers.
void BM_FanOutUpdate(benchmark::State& state) {
  const int fan = static_cast<int>(state.range(0));
  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("pub");
  NullLp pub;
  cbA.attach(pub);
  const auto h = cbA.publishObjectClass(pub, "bench.data");
  std::vector<std::unique_ptr<NullLp>> subs;
  std::vector<core::SubscriptionHandle> handles;
  for (int i = 0; i < fan; ++i) {
    auto& cb = cluster.addComputer("sub" + std::to_string(i));
    subs.push_back(std::make_unique<NullLp>());
    cb.attach(*subs.back());
    handles.push_back(cb.subscribeObjectClass(*subs.back(), "bench.data"));
  }
  cluster.runUntil(
      [&] {
        for (std::size_t i = 0; i < handles.size(); ++i)
          if (!cluster.cb(i + 1).connected(handles[i])) return false;
        return true;
      },
      10.0);
  const core::AttributeSet attrs = sampleAttrs();
  for (auto _ : state) {
    cbA.updateAttributeValues(h, attrs, cluster.now());
    cluster.step(0.001);
  }
  state.counters["fan"] = fan;
}

/// Transport that discards outbound traffic: isolates the CB send path
/// (serialization + per-channel fan-out) from the simulated LAN.
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

/// Pure update fan-out: updateAttributeValues() against N established
/// channels, no LAN in the way — the path the encode-once/patch-channel-id
/// fast path optimizes. Each update is flushed at once, so an iteration
/// prices one update's staging plus its flush: N bare datagrams, one per
/// peer. The datagram economics of coalescing are bench_batching's
/// BM_FrameFlush.
void BM_FanOutSendOnly(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  auto transport = std::make_unique<NullTransport>();
  NullTransport* net = transport.get();
  core::CommunicationBackbone cb("pub", std::move(transport));
  NullLp pub;
  cb.attach(pub);
  const auto h = cb.publishObjectClass(pub, "bench.data");
  for (std::uint32_t i = 0; i < fan; ++i) {
    net->inject({10 + i, 1},
                core::encode(core::ChannelConnectionMsg{100 + i, h, 1 + i,
                                                        "bench.data"}));
  }
  cb.tick(0.0);
  const core::AttributeSet attrs = sampleAttrs();
  double t = 0.0;
  for (auto _ : state) {
    cb.updateAttributeValues(h, attrs, t);
    cb.flushBatches();
    t += 1e-6;
  }
  state.counters["fan"] = fan;
  state.counters["bytes"] =
      benchmark::Counter(static_cast<double>(net->bytesSent),
                         benchmark::Counter::kIsRate);
}

/// Timer phase at rest: tick() on a CB holding state.range(0) established
/// reliable in-channels and as many reliable out-channels, with nothing
/// due (no traffic in flight, every keep-alive fresh, discovery done).
/// The walk skips entries whose deadline has not come, so this should
/// stay near-flat in the channel count.
void BM_TickQuietReliableChannels(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::CodCluster::Config ccfg;
  ccfg.cb.refreshIntervalSec = 0.0;  // no re-discovery once connected
  core::CodCluster cluster(ccfg);
  auto& cbA = cluster.addComputer("a");
  auto& cbB = cluster.addComputer("b");
  NullLp lpA, lpB;
  cbA.attach(lpA);
  cbB.attach(lpB);
  std::vector<core::SubscriptionHandle> subsA, subsB;
  constexpr auto kReliable = net::QosClass::kReliableOrdered;
  for (int i = 0; i < n; ++i) {
    const std::string out = "bench.a." + std::to_string(i);
    const std::string in = "bench.b." + std::to_string(i);
    cbA.publishObjectClass(lpA, out, kReliable);
    cbB.publishObjectClass(lpB, in, kReliable);
    subsB.push_back(cbB.subscribeObjectClass(lpB, out, kReliable));
    subsA.push_back(cbA.subscribeObjectClass(lpA, in, kReliable));
  }
  const bool wired = cluster.runUntil(
      [&] {
        for (int i = 0; i < n; ++i)
          if (!cbA.connected(subsA[i]) || !cbB.connected(subsB[i]))
            return false;
        return true;
      },
      30.0);
  if (!wired) {
    state.SkipWithError("channels did not connect");
    return;
  }
  cluster.step(1.0);  // acks settle
  // Off the cluster's tick grid: a deadline a rounding error past the
  // last cluster tick fires in this first tick, not in the timed ones.
  const double now = cluster.now() + 1e-4;
  cbA.tick(now);
  for (auto _ : state) cbA.tick(now);
  state.counters["channels"] = n;
}

void BM_EncodeUpdateMsg(benchmark::State& state) {
  const core::AttributeSet attrs = sampleAttrs();
  core::UpdateMsg msg;
  msg.channelId = 7;
  msg.timestamp = 1.5;
  msg.payload = attrs.encode();
  for (auto _ : state) {
    ++msg.seq;
    benchmark::DoNotOptimize(core::encode(msg));
  }
}

void BM_DecodeUpdateMsg(benchmark::State& state) {
  const core::AttributeSet attrs = sampleAttrs();
  core::UpdateMsg msg;
  msg.channelId = 7;
  msg.seq = 1;
  msg.timestamp = 1.5;
  msg.payload = attrs.encode();
  const auto bytes = core::encode(msg);
  for (auto _ : state) {
    auto decoded = core::decode(bytes);
    benchmark::DoNotOptimize(decoded);
    auto set = core::AttributeSet::decode(decoded->update.payload);
    benchmark::DoNotOptimize(set);
  }
}

}  // namespace

BENCHMARK(BM_LocalFastPathUpdate);
BENCHMARK(BM_LocalFastPathUpdateWideTables)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(10240);
BENCHMARK(BM_CrossHostUpdate)->Arg(2)->Arg(8)->Arg(23);
BENCHMARK(BM_FanOutUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(7);
BENCHMARK(BM_FanOutSendOnly)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_TickQuietReliableChannels)->Arg(16)->Arg(128)->Arg(1024);
BENCHMARK(BM_EncodeUpdateMsg);
BENCHMARK(BM_DecodeUpdateMsg);
