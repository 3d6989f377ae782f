// Real-socket transport: UDP over loopback (or a real LAN).
//
// The COD address space (HostId, port) is mapped onto real UDP ports:
//   udpPort = basePort + host * portsPerHost + port
// so a whole simulated "rack" of computers can run as one or many OS
// processes on 127.0.0.1. LAN broadcast is emulated by unicasting to every
// host slot, which preserves the CB discovery protocol's semantics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace cod::net {

/// Address-mapping scheme shared by all endpoints of one deployment.
struct UdpConfig {
  std::string bindIp = "127.0.0.1";
  std::uint16_t basePort = 47000;
  std::uint16_t portsPerHost = 32;
  std::uint16_t maxHosts = 16;
  /// Optional per-host interface map: host h binds and is reached at
  /// hostIps[h] when h < hostIps.size(), falling back to bindIp. One
  /// address plan can then span several loopback aliases (127.0.0.1 /
  /// 127.0.0.2) or real interfaces. UDP ports stay globally unique
  /// across the plan (basePort + host*portsPerHost + port regardless of
  /// IP), so the source port alone still identifies the sender.
  std::vector<std::string> hostIps;
};

/// Reserve a collision-free base port for a `slots`-wide address plan by
/// binding port 0 and reading back the kernel-assigned port — never by
/// picking a constant. Fixed base ports collide the moment two test lanes
/// (or a test and a soak run) share a machine; the kernel's ephemeral
/// allocator hands out a port that is free *now*, and the remaining
/// `slots - 1` ports of the plan are probe-bound before the base is
/// accepted, so the whole range was observably free at once. Retries with
/// a fresh kernel port when the range is torn; throws std::system_error
/// after `attempts` failures.
std::uint16_t pickEphemeralBasePort(std::uint16_t slots,
                                    const std::string& bindIp = "127.0.0.1",
                                    int attempts = 16);

/// A non-blocking UDP socket implementing the Transport interface.
class UdpTransport final : public Transport {
 public:
  /// Binds immediately; throws std::system_error on failure.
  UdpTransport(const UdpConfig& cfg, HostId host, std::uint16_t port);
  ~UdpTransport() override;

  NodeAddr localAddress() const override { return addr_; }
  void send(const NodeAddr& dst, std::span<const std::uint8_t> bytes) override;
  void broadcast(std::uint16_t port, std::span<const std::uint8_t> bytes) override;
  std::optional<Datagram> receive() override;

  /// Native scatter-gather: one sendmsg(2) with an iovec per part — the
  /// batch flush's container header and staged frame spans go to the
  /// kernel without being linearized first.
  void sendv(const NodeAddr& dst, std::span<const ByteSpan> parts) override;
  int pollableFd() const override { return fd_; }

  const TransportStats* stats() const override { return &stats_; }

  /// The UDP port this socket is actually bound to, read back from the
  /// kernel (getsockname) rather than recomputed from the address plan.
  std::uint16_t boundUdpPort() const;

 private:
  std::uint16_t udpPortFor(const NodeAddr& a) const;
  std::optional<NodeAddr> addrForUdpPort(std::uint16_t udpPort) const;
  const std::string& ipForHost(HostId h) const;
  void toSockaddr(const NodeAddr& a, void* sa) const;
  void countSent(std::size_t bytes, std::uint32_t frames);

  UdpConfig cfg_;
  NodeAddr addr_;
  int fd_ = -1;
  TransportStats stats_;
};

}  // namespace cod::net
