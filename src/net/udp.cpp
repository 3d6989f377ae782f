#include "net/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace cod::net {

namespace {

/// Bind one probe socket on `ip`:`port` (0 = kernel-assigned). Returns the
/// fd (caller closes) and writes the bound port back, or -1 on failure.
int bindProbe(const std::string& ip, std::uint16_t port,
              std::uint16_t& boundPort) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    return -1;
  }
  boundPort = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

std::uint16_t pickEphemeralBasePort(std::uint16_t slots,
                                    const std::string& bindIp, int attempts) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::uint16_t base = 0;
    const int baseFd = bindProbe(bindIp, 0, base);
    if (baseFd < 0)
      throw std::system_error(errno, std::generic_category(),
                              "pickEphemeralBasePort: probe bind");
    std::vector<int> probes{baseFd};
    bool rangeFree = base != 0 && 65535 - base >= slots - 1;
    for (std::uint16_t i = 1; rangeFree && i < slots; ++i) {
      std::uint16_t got = 0;
      const int fd =
          bindProbe(bindIp, static_cast<std::uint16_t>(base + i), got);
      if (fd < 0) {
        rangeFree = false;
      } else {
        probes.push_back(fd);
      }
    }
    for (const int fd : probes) ::close(fd);
    if (rangeFree) return base;
  }
  throw std::system_error(EADDRINUSE, std::generic_category(),
                          "pickEphemeralBasePort: no free port range");
}

UdpTransport::UdpTransport(const UdpConfig& cfg, HostId host,
                           std::uint16_t port)
    : cfg_(cfg), addr_{host, port} {
  if (host >= cfg.maxHosts)
    throw std::out_of_range("UdpTransport: host id exceeds maxHosts");
  if (port >= cfg.portsPerHost)
    throw std::out_of_range("UdpTransport: port exceeds portsPerHost");

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "socket");

  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(udpPortFor(addr_));
  if (::inet_pton(AF_INET, ipForHost(host).c_str(), &sa.sin_addr) != 1) {
    ::close(fd_);
    throw std::invalid_argument("UdpTransport: bad bind IP");
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    const int err = errno;
    ::close(fd_);
    throw std::system_error(err, std::generic_category(), "bind");
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint16_t UdpTransport::boundUdpPort() const {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    return 0;
  return ntohs(bound.sin_port);
}

std::uint16_t UdpTransport::udpPortFor(const NodeAddr& a) const {
  return static_cast<std::uint16_t>(cfg_.basePort + a.host * cfg_.portsPerHost +
                                    a.port);
}

const std::string& UdpTransport::ipForHost(HostId h) const {
  return h < cfg_.hostIps.size() ? cfg_.hostIps[h] : cfg_.bindIp;
}

std::optional<NodeAddr> UdpTransport::addrForUdpPort(
    std::uint16_t udpPort) const {
  if (udpPort < cfg_.basePort) return std::nullopt;
  const std::uint16_t off = static_cast<std::uint16_t>(udpPort - cfg_.basePort);
  const NodeAddr a{static_cast<HostId>(off / cfg_.portsPerHost),
                   static_cast<std::uint16_t>(off % cfg_.portsPerHost)};
  if (a.host >= cfg_.maxHosts) return std::nullopt;
  return a;
}

void UdpTransport::toSockaddr(const NodeAddr& a, void* out) const {
  auto* sa = static_cast<sockaddr_in*>(out);
  std::memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(udpPortFor(a));
  ::inet_pton(AF_INET, ipForHost(a.host).c_str(), &sa->sin_addr);
}

void UdpTransport::countSent(std::size_t bytes, std::uint32_t frames) {
  ++stats_.packetsSent;
  stats_.bytesSent += bytes;
  stats_.framesSent += frames;
}

void UdpTransport::send(const NodeAddr& dst,
                        std::span<const std::uint8_t> bytes) {
  sockaddr_in sa;
  toSockaddr(dst, &sa);
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (n >= 0) {
    countSent(bytes.size(), framesInDatagram(bytes));
  } else {
    // Local sendto() failure (e.g. ENOBUFS). Not framesDropped: that
    // counter means *inbound* loss to the telemetry monitor, and a real
    // socket cannot attribute network loss at all (transport.hpp).
    ++stats_.packetsDropped;
  }
}

void UdpTransport::broadcast(std::uint16_t port,
                             std::span<const std::uint8_t> bytes) {
  // Emulated LAN broadcast: unicast to the same CB port on every host slot.
  for (HostId h = 0; h < cfg_.maxHosts; ++h) {
    const NodeAddr dst{h, port};
    if (dst == addr_) continue;
    send(dst, bytes);
  }
}

std::optional<Datagram> UdpTransport::receive() {
  std::uint8_t buf[65536];
  for (;;) {
    sockaddr_in from{};
    socklen_t fromLen = sizeof(from);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&from), &fromLen);
    if (n < 0) return std::nullopt;  // EWOULDBLOCK or transient error: no data
    // A datagram from outside our address plan is discarded, not reported
    // as "no data": the caller drains until nullopt, so returning here
    // would strand every datagram queued behind it until the next drain.
    const auto src = addrForUdpPort(ntohs(from.sin_port));
    if (!src) continue;
    Datagram d;
    d.src = *src;
    d.dst = addr_;
    d.payload.assign(buf, buf + n);
    ++stats_.packetsReceived;
    stats_.bytesReceived += d.payload.size();
    stats_.framesReceived += framesInDatagram(d.payload);
    return d;
  }
}

}  // namespace cod::net
