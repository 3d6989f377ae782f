#include "net/impair.hpp"

#include <chrono>
#include <utility>

namespace cod::net {

namespace {

double steadySeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ImpairedTransport::ImpairedTransport(std::unique_ptr<Transport> inner,
                                     ImpairmentConfig cfg, Clock clock)
    : inner_(std::move(inner)),
      cfg_(cfg),
      clock_(clock ? std::move(clock) : Clock(&steadySeconds)),
      rng_(cfg.seed) {}

void ImpairedTransport::send(const NodeAddr& dst,
                             std::span<const std::uint8_t> bytes) {
  pump();
  offer(/*isBroadcast=*/false, dst, 0, bytes);
}

void ImpairedTransport::broadcast(std::uint16_t port,
                                  std::span<const std::uint8_t> bytes) {
  pump();
  offer(/*isBroadcast=*/true, NodeAddr{}, port, bytes);
}

std::optional<Datagram> ImpairedTransport::receive() {
  pump();
  if (!cfg_.impairReceive) return inner_->receive();
  // Duplex mode: drain the socket fully through the inbound model —
  // losses vanish here, survivors wait out their delay in a release
  // queue. Draining everything available keeps the kernel buffer from
  // backing up while held datagrams age.
  while (std::optional<Datagram> d = inner_->receive()) {
    ++stats_.offeredRx;
    if (rng_.chance(cfg_.lossPct / 100.0)) {
      ++stats_.droppedRx;
      continue;
    }
    double delay = cfg_.delayMinSec;
    if (cfg_.delayMaxSec > cfg_.delayMinSec)
      delay = rng_.uniform(cfg_.delayMinSec, cfg_.delayMaxSec);
    rxQueue_.push(HeldRx{clock_() + delay, nextOrder_++, std::move(*d)});
  }
  if (rxQueue_.empty() || rxQueue_.top().dueSec > clock_())
    return std::nullopt;
  Datagram out = std::move(const_cast<HeldRx&>(rxQueue_.top()).dgram);
  rxQueue_.pop();
  return out;
}

void ImpairedTransport::offer(bool isBroadcast, const NodeAddr& dst,
                              std::uint16_t port,
                              std::span<const std::uint8_t> bytes) {
  ++stats_.offered;
  if (rng_.chance(cfg_.lossPct / 100.0)) {
    ++stats_.dropped;
    return;
  }
  const double now = clock_();
  double delay = cfg_.delayMinSec;
  if (cfg_.delayMaxSec > cfg_.delayMinSec)
    delay = rng_.uniform(cfg_.delayMinSec, cfg_.delayMaxSec);
  if (rng_.chance(cfg_.reorderPct / 100.0)) {
    ++stats_.reordered;
    delay += cfg_.reorderHoldSec;
  }
  if (rng_.chance(cfg_.duplicatePct / 100.0)) {
    // The copy trails the original so the receiver's dedup sees it as a
    // late duplicate, the common real-network shape.
    ++stats_.duplicated;
    hold(isBroadcast, dst, port, bytes, now + delay + cfg_.reorderHoldSec);
  }
  if (delay <= 0.0) {
    // Undelayed datagrams forward straight through — no copy, no queue.
    if (isBroadcast) {
      inner_->broadcast(port, bytes);
    } else {
      inner_->send(dst, bytes);
    }
    return;
  }
  hold(isBroadcast, dst, port, bytes, now + delay);
}

void ImpairedTransport::hold(bool isBroadcast, const NodeAddr& dst,
                             std::uint16_t port,
                             std::span<const std::uint8_t> bytes,
                             double dueSec) {
  ++stats_.delayed;
  queue_.push(Held{dueSec, nextOrder_++, isBroadcast, dst, port,
                  {bytes.begin(), bytes.end()}});
}

void ImpairedTransport::forward(const Held& h) {
  if (h.isBroadcast) {
    inner_->broadcast(h.port, h.bytes);
  } else {
    inner_->send(h.dst, h.bytes);
  }
}

void ImpairedTransport::pump() {
  if (queue_.empty()) return;
  const double now = clock_();
  while (!queue_.empty() && queue_.top().dueSec <= now) {
    const Held h = queue_.top();
    queue_.pop();
    forward(h);
  }
}

}  // namespace cod::net
