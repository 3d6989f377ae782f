// Userspace network impairment on real sockets.
//
// CI cannot `tc netem` the loopback interface, so the multi-process soak
// harness injects loss, duplication, reordering and delay itself:
// ImpairedTransport decorates any Transport (in practice UdpTransport) and
// applies a seeded impairment model on the *send* side, before bytes reach
// the real socket. Everything above it — CB, reliable layer, telemetry —
// sees a genuinely lossy network with none of the omniscience SimNetwork
// has: a dropped datagram is simply never sent, the transport's stats
// cannot attribute it, and loss is observable only through the reliable
// layer's NACK/retransmit counters (exactly the real-deployment contract
// that transport.hpp documents for framesDropped).
//
// Delayed and reordered datagrams are parked in a release-time queue that
// is pumped on every send/receive call — the CB polls receive() at least
// once per tick, which bounds the added release jitter by the tick period.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "math/rng.hpp"
#include "net/transport.hpp"

namespace cod::net {

/// Impairment model, applied per outbound datagram. Percentages are
/// 0..100 (not 0..1) so command-line flags read naturally.
struct ImpairmentConfig {
  /// Probability a datagram is silently dropped, %.
  double lossPct = 0.0;
  /// Probability a datagram is sent twice (second copy after
  /// `reorderHoldSec`), %.
  double duplicatePct = 0.0;
  /// Probability a datagram is held back `reorderHoldSec` so datagrams
  /// sent after it overtake it on the wire, %.
  double reorderPct = 0.0;
  /// Fixed extra one-way latency applied to every datagram, seconds.
  /// 0 sends immediately (plus any reorder hold).
  double delayMinSec = 0.0;
  /// Upper bound of uniform extra jitter on top of delayMinSec, seconds.
  double delayMaxSec = 0.0;
  /// How long a reordered (or duplicated) datagram is held, seconds.
  double reorderHoldSec = 0.02;
  /// Also apply loss and delay (not reordering/duplication) to INBOUND
  /// datagrams, making the impairment duplex. Send-side-only models a
  /// congested uplink; duplex models a node whose whole link is bad —
  /// the starved-node soak drill. An inbound drop is as invisible to the
  /// layers above as real network loss: the datagram simply never
  /// arrives.
  bool impairReceive = false;
  std::uint64_t seed = 1;
};

/// Ground truth of what the impairment layer did — the soak driver's
/// reference when it checks that protocol-derived loss estimates track
/// the injected rate. Deliberately NOT part of TransportStats: nothing
/// above the transport may read these to "attribute" loss.
struct ImpairmentStats {
  std::uint64_t offered = 0;     // datagrams entering the layer
  std::uint64_t dropped = 0;     // never sent
  std::uint64_t duplicated = 0;  // extra copies enqueued
  std::uint64_t reordered = 0;   // held for overtaking
  std::uint64_t delayed = 0;     // entered the release queue at all
  std::uint64_t offeredRx = 0;   // inbound datagrams (impairReceive only)
  std::uint64_t droppedRx = 0;   // inbound datagrams never delivered up
  double injectedLossPct() const {
    return offered == 0
               ? 0.0
               : 100.0 * static_cast<double>(dropped) /
                     static_cast<double>(offered);
  }
};

class ImpairedTransport final : public Transport {
 public:
  /// Monotonic seconds; injectable so unit tests control time. Defaults
  /// to std::chrono::steady_clock (the soak harness runs on wall clock).
  using Clock = std::function<double()>;

  ImpairedTransport(std::unique_ptr<Transport> inner, ImpairmentConfig cfg,
                    Clock clock = {});

  NodeAddr localAddress() const override { return inner_->localAddress(); }
  void send(const NodeAddr& dst, std::span<const std::uint8_t> bytes) override;
  /// Broadcast is impaired as one event (one loss roll for the whole
  /// fan-out): discovery broadcasts are retried on a timer anyway, and a
  /// per-receiver roll would need the address plan this decorator does
  /// not know.
  void broadcast(std::uint16_t port,
                 std::span<const std::uint8_t> bytes) override;
  std::optional<Datagram> receive() override;

  /// The inner transport's counters — the impairment layer adds none of
  /// its own here (see ImpairmentStats).
  const TransportStats* stats() const override { return inner_->stats(); }

  const ImpairmentStats& impairmentStats() const { return stats_; }
  Transport& inner() { return *inner_; }

  /// Release every held datagram whose time has come. Called internally
  /// by send/receive; exposed for tests and drain-at-shutdown.
  void pump();
  /// Held datagrams not yet released (outbound and delayed inbound).
  std::size_t heldCount() const { return queue_.size() + rxQueue_.size(); }

 private:
  struct Held {
    double dueSec = 0.0;
    std::uint64_t order = 0;  // FIFO tie-break for equal due times
    bool isBroadcast = false;
    NodeAddr dst;
    std::uint16_t port = 0;
    std::vector<std::uint8_t> bytes;
    bool operator>(const Held& o) const {
      if (dueSec != o.dueSec) return dueSec > o.dueSec;
      return order > o.order;
    }
  };

  /// Roll the model for one datagram; forwards now or enqueues copies.
  void offer(bool isBroadcast, const NodeAddr& dst, std::uint16_t port,
             std::span<const std::uint8_t> bytes);
  void forward(const Held& h);
  void hold(bool isBroadcast, const NodeAddr& dst, std::uint16_t port,
            std::span<const std::uint8_t> bytes, double dueSec);

  /// A delayed inbound datagram waiting out its extra latency.
  struct HeldRx {
    double dueSec = 0.0;
    std::uint64_t order = 0;
    Datagram dgram;
    bool operator>(const HeldRx& o) const {
      if (dueSec != o.dueSec) return dueSec > o.dueSec;
      return order > o.order;
    }
  };

  std::unique_ptr<Transport> inner_;
  ImpairmentConfig cfg_;
  Clock clock_;
  math::Rng rng_;
  ImpairmentStats stats_;
  std::priority_queue<Held, std::vector<Held>, std::greater<Held>> queue_;
  std::priority_queue<HeldRx, std::vector<HeldRx>, std::greater<HeldRx>>
      rxQueue_;
  std::uint64_t nextOrder_ = 0;
};

}  // namespace cod::net
