// Quickstart: two Logical Processes on two computers of a COD cluster,
// wired transparently by the Communication Backbone.
//
// A "sensor" LP publishes the object class "demo.telemetry"; a "monitor" LP
// on another computer subscribes to it. Neither knows the other exists —
// the CBs discover each other with the broadcast/acknowledge protocol and
// build a virtual channel (paper §2).
//
//   $ ./quickstart

#include <cstdio>

#include "core/cluster.hpp"
#include "core/value.hpp"

using namespace cod;

namespace {

/// Publishes a counter + sine wave every 50 ms of virtual time.
class SensorLp final : public core::LogicalProcess {
 public:
  SensorLp() : core::LogicalProcess("sensor") {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    pub_ = cb.publishObjectClass(*this, "demo.telemetry");
  }

  void step(double now) override {
    if (now < next_) return;
    next_ = now + 0.05;
    core::AttributeSet attrs;
    attrs.set("count", static_cast<std::int64_t>(count_++));
    attrs.set("wave", std::sin(now));
    backbone()->updateAttributeValues(pub_, attrs, now);
  }

 private:
  core::PublicationHandle pub_ = core::kInvalidHandle;
  double next_ = 0.0;
  std::int64_t count_ = 0;
};

/// Receives telemetry as reflect callbacks.
class MonitorLp final : public core::LogicalProcess {
 public:
  MonitorLp() : core::LogicalProcess("monitor") {}

  void bind(core::CommunicationBackbone& cb) {
    cb.attach(*this);
    sub_ = cb.subscribeObjectClass(*this, "demo.telemetry");
  }

  void reflectAttributeValues(const std::string& className,
                              const core::AttributeSet& attrs,
                              double timestamp) override {
    ++received_;
    if (received_ % 20 == 1) {
      std::printf("  [monitor] %s @t=%.2f  count=%lld wave=%+.3f\n",
                  className.c_str(), timestamp,
                  static_cast<long long>(attrs.getInt("count")),
                  attrs.getDouble("wave"));
    }
  }

  std::uint64_t received() const { return received_; }

 private:
  core::SubscriptionHandle sub_ = core::kInvalidHandle;
  std::uint64_t received_ = 0;
};

}  // namespace

int main() {
  std::printf("COD quickstart: 2 computers, 2 LPs, 1 virtual channel\n");

  core::CodCluster cluster;
  auto& cbA = cluster.addComputer("sensor-pc");
  auto& cbB = cluster.addComputer("monitor-pc");

  SensorLp sensor;
  sensor.bind(cbA);
  MonitorLp monitor;
  monitor.bind(cbB);

  // Run five virtual seconds; the CBs discover each other in the first
  // broadcast interval and the updates flow thereafter.
  cluster.step(5.0);

  std::printf("monitor received %llu updates\n",
              static_cast<unsigned long long>(monitor.received()));
  std::printf("sensor-pc CB: broadcasts=%llu channelsOut=%llu updatesSent=%llu\n",
              static_cast<unsigned long long>(cbA.stats().broadcastsSent),
              static_cast<unsigned long long>(cbA.stats().channelsEstablishedOut),
              static_cast<unsigned long long>(cbA.stats().updatesSent));
  std::printf("monitor-pc CB: channelsIn=%llu updatesDelivered=%llu\n",
              static_cast<unsigned long long>(cbB.stats().channelsEstablishedIn),
              static_cast<unsigned long long>(cbB.stats().updatesDelivered));
  return monitor.received() > 0 ? 0 : 1;
}
