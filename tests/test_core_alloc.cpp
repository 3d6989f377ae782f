// Heap allocations per delivered update on the CB's steady-state paths.
//
// This suite is its own binary on purpose: the counting global operator
// new/delete below replace the allocator for every object in the
// executable, and no other suite should run under them.
//
// Two CBs on loopback UDP publish prebuilt updates after a warm-up, and
// every allocation made while the measured loop runs (the publish calls
// and every tick() of both CBs) is divided by the updates delivered. The
// receive path must cost a constant number of allocations whatever the
// attribute count: the transport's receive buffer, one attribute vector
// and one shared reflection for a remote best-effort update; one
// attribute vector and one shared reflection on the local fast path.
// The allocator also records the largest single request, which bounds
// what a publisher that never ticks can stage.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/cb.hpp"
#include "net/udp.hpp"
#include "sim/object_classes.hpp"

namespace {

std::uint64_t gAllocs = 0;
std::size_t gLargest = 0;  // largest single request while counting
bool gCounting = false;

void* countedAlloc(std::size_t n) {
  if (gCounting) {
    ++gAllocs;
    if (n > gLargest) gLargest = n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form that pairs with the deletes below, nothrow included: a
// sanitizer runtime's own nothrow new would not pair with free().
void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cod::core {
namespace {

double wallClock() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class CountingLp : public LogicalProcess {
 public:
  CountingLp() : LogicalProcess("lp") {}
  std::uint64_t delivered = 0;
  void reflectAttributeValues(const std::string&, const AttributeSet&,
                              double) override {
    ++delivered;
  }
};

enum class Path { kRemoteBestEffort, kRemoteReliable, kLocal };

AttributeSet twoAttributes() { return {{"n", 7}, {"x", 1.5}}; }

AttributeSet craneState() {
  sim::CraneStateMsg m;
  m.state.carrierPosition = {1.0, 2.0, 3.0};
  m.state.engineOn = true;
  m.boomTip = {4.0, 5.0, 6.0};
  m.simTimeSec = 12.5;
  return sim::encodeCraneState(m);
}

constexpr int kWarmUp = 200;
constexpr int kMeasured = 1000;

net::UdpConfig loopbackPlan() {
  net::UdpConfig cfg;
  cfg.portsPerHost = 4;
  cfg.maxHosts = 4;
  cfg.basePort = net::pickEphemeralBasePort(
      static_cast<std::uint16_t>(cfg.portsPerHost * cfg.maxHosts));
  return cfg;
}

CommunicationBackbone::Config fastDiscovery() {
  CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.01;  // fast discovery for a quick test
  return cbCfg;
}

/// Two CBs on loopback UDP: `pub` publishes "alloc.data" on A, and `sub`
/// subscribes on B, or on A for the local fast path.
struct Rig {
  explicit Rig(Path path)
      : plan(loopbackPlan()),
        cbA("alloc-a", std::make_unique<net::UdpTransport>(plan, 0, 1),
            fastDiscovery()),
        cbB("alloc-b", std::make_unique<net::UdpTransport>(plan, 1, 1),
            fastDiscovery()),
        subCb(path == Path::kLocal ? cbA : cbB) {
    const net::QosClass qos = path == Path::kRemoteReliable
                                  ? net::QosClass::kReliableOrdered
                                  : net::QosClass::kBestEffort;
    h = cbA.publishObjectClass(pub, "alloc.data", qos);
    sh = subCb.subscribeObjectClass(sub, "alloc.data", qos);
  }

  void tickBoth() {
    cbA.tick(wallClock());
    cbB.tick(wallClock());
  }

  /// Connect the channel, then publish until every reusable buffer on
  /// the path has reached its steady size. False if it never connects.
  bool warmUp(const AttributeSet& attrs) {
    const double connectDeadline = wallClock() + 5.0;
    while (!subCb.connected(sh) && wallClock() < connectDeadline) {
      tickBoth();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!subCb.connected(sh)) {
      ADD_FAILURE() << "channel did not connect over loopback";
      return false;
    }
    for (int i = 0; i < kWarmUp; ++i) {
      cbA.updateAttributeValues(h, attrs, wallClock());
      tickBoth();
    }
    for (int i = 0; i < 10; ++i) tickBoth();
    return true;
  }

  net::UdpConfig plan;
  CommunicationBackbone cbA;
  CommunicationBackbone cbB;
  CommunicationBackbone& subCb;
  CountingLp pub;
  CountingLp sub;
  PublicationHandle h = 0;
  SubscriptionHandle sh = 0;
};

/// Allocations per delivered update over kMeasured publishes of `attrs`.
double allocsPerUpdate(Path path, const AttributeSet& attrs) {
  Rig rig(path);
  if (!rig.warmUp(attrs)) return 0.0;

  const std::uint64_t before = rig.sub.delivered;
  gAllocs = 0;
  gCounting = true;
  for (int i = 0; i < kMeasured; ++i) {
    rig.cbA.updateAttributeValues(rig.h, attrs, wallClock());
    rig.tickBoth();
  }
  const double drainDeadline = wallClock() + 1.0;
  while (rig.sub.delivered - before < kMeasured && wallClock() < drainDeadline)
    rig.tickBoth();
  gCounting = false;
  const std::uint64_t delivered = rig.sub.delivered - before;
  // Loopback may drop under scheduling pressure, never much.
  EXPECT_GE(delivered, static_cast<std::uint64_t>(kMeasured * 9 / 10));
  if (delivered == 0) return 0.0;
  return static_cast<double>(gAllocs) / static_cast<double>(delivered);
}

void report(const char* path, double small, double crane) {
  std::printf("allocations per delivered update, %s: 2 attributes %.2f, "
              "crane state (23) %.2f\n",
              path, small, crane);
  ::testing::Test::RecordProperty(std::string(path) + "_2attr",
                                  std::to_string(small));
  ::testing::Test::RecordProperty(std::string(path) + "_crane",
                                  std::to_string(crane));
}

TEST(CbAlloc, RemoteBestEffortCostsThreePerUpdateAtAnySize) {
  const AttributeSet crane = craneState();
  ASSERT_EQ(crane.size(), 23u);
  const double small = allocsPerUpdate(Path::kRemoteBestEffort, twoAttributes());
  const double large = allocsPerUpdate(Path::kRemoteBestEffort, crane);
  report("remote best-effort", small, large);
  // Receive buffer, attribute vector, shared reflection.
  EXPECT_LE(small, 3.2);
  EXPECT_LE(large, 3.2);
  EXPECT_NEAR(small, large, 0.2);
}

TEST(CbAlloc, LocalFastPathCostsTwoPerUpdateAtAnySize) {
  const double small = allocsPerUpdate(Path::kLocal, twoAttributes());
  const double large = allocsPerUpdate(Path::kLocal, craneState());
  report("local fast path", small, large);
  // Attribute vector, shared reflection.
  EXPECT_LE(small, 2.2);
  EXPECT_LE(large, 2.2);
  EXPECT_NEAR(small, large, 0.2);
}

TEST(CbAlloc, RemoteReliableDoesNotGrowWithAttributeCount) {
  const double small = allocsPerUpdate(Path::kRemoteReliable, twoAttributes());
  const double large = allocsPerUpdate(Path::kRemoteReliable, craneState());
  report("remote reliable", small, large);
  EXPECT_NEAR(small, large, 0.2);
}

TEST(CbAlloc, UntickedPublisherStagesAtMostOneContainerPerPeer) {
  // A publisher that never ticks or flushes still sends: each container
  // leaves when the next frame would push it past the byte budget. What
  // it holds staged is one container per peer, so no buffer on the path
  // ever asks for more than a container's worth of bytes.
  Rig rig(Path::kRemoteBestEffort);
  const AttributeSet attrs = twoAttributes();
  ASSERT_TRUE(rig.warmUp(attrs));
  gAllocs = 0;
  gLargest = 0;
  gCounting = true;
  for (int i = 0; i < 100000; ++i)
    rig.cbA.updateAttributeValues(rig.h, attrs, wallClock());
  gCounting = false;
  std::printf("100000 unticked updates: %llu allocations, largest %zu B\n",
              static_cast<unsigned long long>(gAllocs), gLargest);
  EXPECT_LE(gLargest, 2 * kBatchByteBudget);
  EXPECT_GT(rig.cbA.stats().batch.budgetFlushes, 0u);
}

TEST(CbAlloc, IdleTicksAllocateNothing) {
  CountingLp lp;
  CommunicationBackbone cb(
      "idle", std::make_unique<net::UdpTransport>(
                  [] {
                    net::UdpConfig cfg;
                    cfg.portsPerHost = 1;
                    cfg.maxHosts = 1;
                    cfg.basePort = net::pickEphemeralBasePort(1);
                    return cfg;
                  }(),
                  0, 0));
  cb.publishObjectClass(lp, "alloc.idle");
  for (int i = 0; i < 10; ++i) cb.tick(wallClock());
  gAllocs = 0;
  gCounting = true;
  for (int i = 0; i < 1000; ++i) cb.tick(wallClock());
  gCounting = false;
  std::printf("allocations per idle tick: %.3f\n",
              static_cast<double>(gAllocs) / 1000.0);
  EXPECT_LE(gAllocs, 10u);
}

}  // namespace
}  // namespace cod::core
