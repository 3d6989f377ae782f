// Tick-coalesced update batching, an extension of E3 (CB routing): the
// paper's surround view runs at 16 fps with three graphical computers and
// pushes 3+ attribute sets per frame (crane state, platform pose, sync
// messages). Without coalescing, every update costs one datagram per
// virtual channel; with the CB's per-peer send coalescer, a frame's worth
// of traffic to one peer rides a single kBatch container.
//
// BM_FrameFlush measures a simulated frame (3 publications updated, then
// the tick flush) at fan-out 4 and 16. The headline counter is
// pkts/frame: fan, one container per peer, where one datagram per frame
// would cost 3*fan. BM_DecodeBatchContainer prices the receive-side
// unpack.

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

class NullLp : public core::LogicalProcess {
 public:
  NullLp() : core::LogicalProcess("lp") {}
};

core::AttributeSet sampleAttrs() {
  core::AttributeSet a;
  a.set("carrierPos", math::Vec3{1, 2, 3});
  a.set("heading", 0.5);
  a.set("speed", 3.2);
  a.set("boomPitch", 0.8);
  a.set("cableLen", 6.0);
  a.set("engineOn", true);
  return a;
}

/// Transport that counts outbound datagrams/bytes and replays injected
/// datagrams (for channel setup); the network itself is out of the picture.
class CountingTransport final : public net::Transport {
 public:
  net::NodeAddr localAddress() const override { return {1, 1}; }
  void send(const net::NodeAddr&, std::span<const std::uint8_t> bytes) override {
    ++packets;
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
  std::uint64_t packets = 0;
  std::uint64_t bytesSent = 0;
  std::deque<net::Datagram> inbound;
};

/// One simulated frame: 3 publications updated, then the tick flush.
/// arg: fan-out.
void BM_FrameFlush(benchmark::State& state) {
  const std::uint32_t fan = static_cast<std::uint32_t>(state.range(0));
  auto transport = std::make_unique<CountingTransport>();
  CountingTransport* net = transport.get();
  core::CommunicationBackbone cb("pub", std::move(transport));
  NullLp pub;
  cb.attach(pub);
  constexpr int kPubsPerFrame = 3;
  core::PublicationHandle pubs[kPubsPerFrame];
  for (int p = 0; p < kPubsPerFrame; ++p)
    pubs[p] = cb.publishObjectClass(pub, "bench.cls" + std::to_string(p));
  std::uint32_t chan = 1;
  for (std::uint32_t i = 0; i < fan; ++i) {
    for (int p = 0; p < kPubsPerFrame; ++p) {
      net->inject({10 + i, 1},
                  core::encode(core::ChannelConnectionMsg{
                      100 * (i + 1) + static_cast<std::uint32_t>(p), pubs[p],
                      chan++, "bench.cls" + std::to_string(p)}));
    }
  }
  cb.tick(0.0);
  net->packets = 0;
  net->bytesSent = 0;
  const core::AttributeSet attrs = sampleAttrs();
  // Virtual time stays put: the fake subscribers never heartbeat back, so
  // advancing the clock would let the channels time out mid-run (the flush
  // point is per tick, not per second, so the measurement is unaffected).
  const double t = 1e-4;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    for (int p = 0; p < kPubsPerFrame; ++p)
      cb.updateAttributeValues(pubs[p], attrs, t);
    cb.tick(t);
    ++frames;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames) * kPubsPerFrame);
  state.counters["fan"] = fan;
  state.counters["pkts/frame"] =
      static_cast<double>(net->packets) / static_cast<double>(frames);
  state.counters["bytes/pkt"] = net->packets == 0
                                    ? 0.0
                                    : static_cast<double>(net->bytesSent) /
                                          static_cast<double>(net->packets);
}

/// Receive side: unpack-and-decode cost of a 16-update container vs 16
/// bare frames through the generic decoder.
void BM_DecodeBatchContainer(benchmark::State& state) {
  const core::AttributeSet attrs = sampleAttrs();
  core::BatchMsg batch;
  for (std::uint64_t i = 0; i < 16; ++i) {
    core::UpdateMsg u;
    u.channelId = 7;
    u.seq = i + 1;
    u.timestamp = 0.1 * static_cast<double>(i);
    u.payload = attrs.encode();
    batch.frames.push_back(core::encode(u));
  }
  const auto bytes = core::encode(batch);
  for (auto _ : state) {
    auto msg = core::decode(bytes);
    benchmark::DoNotOptimize(msg);
    for (const auto& frame : msg->batch.frames) {
      auto sub = core::decode(frame);
      benchmark::DoNotOptimize(sub);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}

}  // namespace

BENCHMARK(BM_FrameFlush)->Arg(4)->Arg(16)->ArgName("fan");
BENCHMARK(BM_DecodeBatchContainer);
