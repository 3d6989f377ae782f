// Real-socket smoke tests over 127.0.0.1 (the deployment path; everything
// protocol-level is tested on SimNetwork).
#include "net/udp.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <thread>

namespace cod::net {
namespace {

UdpConfig testConfig() {
  UdpConfig cfg;
  cfg.portsPerHost = 4;
  cfg.maxHosts = 4;
  // Kernel-assigned, not constant: parallel test lanes (or a concurrent
  // soak run) must not race each other for a fixed port range.
  cfg.basePort = pickEphemeralBasePort(
      static_cast<std::uint16_t>(cfg.portsPerHost * cfg.maxHosts));
  return cfg;
}

std::optional<Datagram> receiveWithRetry(Transport& t, int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    if (auto d = t.receive()) return d;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

TEST(UdpTransport, SendReceiveLoopback) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 0);
  UdpTransport b(cfg, 1, 0);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  a.send({1, 0}, payload);
  const auto d = receiveWithRetry(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, payload);
  EXPECT_EQ(d->src, (NodeAddr{0, 0}));
  EXPECT_EQ(d->dst, (NodeAddr{1, 0}));
}

TEST(UdpTransport, EmulatedBroadcastReachesAllHosts) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 1);
  UdpTransport b(cfg, 1, 1);
  UdpTransport c(cfg, 2, 1);
  a.broadcast(1, std::vector<std::uint8_t>{42});
  EXPECT_TRUE(receiveWithRetry(b).has_value());
  EXPECT_TRUE(receiveWithRetry(c).has_value());
  // The sender does not hear its own broadcast.
  EXPECT_FALSE(a.receive().has_value());
}

TEST(UdpTransport, NonBlockingReceiveOnEmpty) {
  UdpTransport a(testConfig(), 3, 0);
  EXPECT_FALSE(a.receive().has_value());
}

TEST(UdpTransport, RejectsOutOfPlanAddresses) {
  const UdpConfig cfg = testConfig();
  EXPECT_THROW(UdpTransport(cfg, 99, 0), std::out_of_range);
  EXPECT_THROW(UdpTransport(cfg, 0, 99), std::out_of_range);
}

TEST(UdpTransport, EphemeralBasePortPlanBindsAndReadsBack) {
  const UdpConfig cfg = testConfig();
  EXPECT_NE(cfg.basePort, 0);
  // The address plan maps onto real ports exactly as computed, confirmed
  // by reading the bound port back from the kernel rather than trusting
  // the arithmetic.
  UdpTransport a(cfg, 2, 3);
  EXPECT_EQ(a.boundUdpPort(),
            cfg.basePort + 2 * cfg.portsPerHost + 3);
  // Every slot of the reserved plan is genuinely bindable.
  UdpTransport b(cfg, 0, 0);
  UdpTransport c(cfg, 3, 3);
  EXPECT_EQ(b.boundUdpPort(), cfg.basePort);
  EXPECT_EQ(c.boundUdpPort(),
            cfg.basePort + 3 * cfg.portsPerHost + 3);
}

TEST(UdpTransport, StatsCount) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 2);
  UdpTransport b(cfg, 1, 2);
  a.send({1, 2}, std::vector<std::uint8_t>{1, 2, 3});
  ASSERT_TRUE(receiveWithRetry(b).has_value());
  EXPECT_EQ(a.stats()->packetsSent, 1u);
  EXPECT_EQ(a.stats()->bytesSent, 3u);
  EXPECT_EQ(a.stats()->framesSent, 1u);  // a bare frame counts as one
  EXPECT_EQ(b.stats()->packetsReceived, 1u);
  EXPECT_EQ(b.stats()->framesReceived, 1u);
}

TEST(UdpTransport, SendvGathersToOneDatagram) {
  // A scatter-gather send must land as ONE datagram whose payload is the
  // concatenation of the parts — exactly what send() of the linearized
  // buffer produces. The CB's batch flush sends through this.
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 3);
  UdpTransport b(cfg, 1, 3);
  const std::vector<std::uint8_t> h{0xAA, 0xBB};
  std::vector<std::uint8_t> mid(100);
  for (std::size_t i = 0; i < mid.size(); ++i)
    mid[i] = static_cast<std::uint8_t>(1 + i);
  const std::vector<std::uint8_t> tail{0xEE};
  std::vector<std::uint8_t> linear;
  linear.insert(linear.end(), h.begin(), h.end());
  linear.insert(linear.end(), mid.begin(), mid.end());
  linear.insert(linear.end(), tail.begin(), tail.end());

  const std::array<ByteSpan, 3> parts{ByteSpan{h}, ByteSpan{mid},
                                      ByteSpan{tail}};
  a.sendv({1, 3}, parts);
  const auto d = receiveWithRetry(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, linear);
  EXPECT_FALSE(b.receive().has_value()) << "sendv split into >1 datagram";
}

TEST(UdpTransport, ForeignDatagramDoesNotEndTheDrain) {
  // The CB drains its socket with `while (auto d = receive())`. A
  // datagram from a port outside the address plan must be skipped, not
  // reported as an empty socket, or everything queued behind it would
  // wait for the next tick.
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 0);
  UdpTransport b(cfg, 1, 0);

  // A plain socket on a kernel-chosen port outside the plan (a port
  // inside it would map to a plan address; bind again until it does not,
  // holding the rejects so the kernel cannot hand them out again).
  const int planEnd = cfg.basePort + cfg.maxHosts * cfg.portsPerHost;
  int foreign = -1;
  std::vector<int> rejects;
  for (int attempt = 0; attempt < 16 && foreign < 0; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in any{};
    any.sin_family = AF_INET;
    any.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&any), sizeof(any)), 0);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
    const int port = ntohs(bound.sin_port);
    if (port >= cfg.basePort && port < planEnd) {
      rejects.push_back(fd);
    } else {
      foreign = fd;
    }
  }
  for (const int fd : rejects) ::close(fd);
  ASSERT_GE(foreign, 0) << "no port outside the address plan";

  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(b.boundUdpPort());
  const std::uint8_t junk[] = {0xDE, 0xAD};
  ASSERT_EQ(::sendto(foreign, junk, sizeof(junk), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to)),
            static_cast<ssize_t>(sizeof(junk)));
  ::close(foreign);
  const std::vector<std::uint8_t> payload{7, 8, 9};
  a.send({1, 0}, payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // One drain, as one tick runs it.
  std::vector<Datagram> drained;
  while (auto d = b.receive()) drained.push_back(std::move(*d));
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].payload, payload);
  EXPECT_EQ(drained[0].src, (NodeAddr{0, 0}));
  EXPECT_EQ(b.stats()->packetsReceived, 1u);
}

}  // namespace
}  // namespace cod::net
