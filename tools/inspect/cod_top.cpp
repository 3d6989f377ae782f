// cod_top — live, read-only cluster health dashboard.
//
// Joins a running COD rack as one more LP (CB discovery does the rest),
// subscribes ONLY `cod.telemetry`, publishes NOTHING — attaching and
// detaching a cod_top must be invisible to the cluster's data plane. The
// screen is the same renderTable() the instructor station shows (with
// the tick-phase hot column when nodes profile), plus the alarm tail,
// redrawn in place with ANSI every --refresh seconds.
//
//   cod_top --base-port=47000 --host=15
//   cod_top --base-port=47000 --host=15 --refresh=0.5 --duration=30
//
// --host must be a slot no real node occupies (the last slot of the
// rack's --max-hosts plan is the convention). --duration=0 runs until
// interrupted; --frames=N exits after N redraws (smoke tests).
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "core/cb.hpp"
#include "net/udp.hpp"
#include "telemetry/monitor.hpp"
#include "tools/soak/soak_common.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace cod;
  try {
    const soak::Args args(
        argc, argv,
        {"base-port", "bind-ip", "cb-port", "duration", "expected-interval",
         "frames", "host", "host-ips", "max-hosts", "name", "plain",
         "ports-per-host", "refresh", "silent-after"});

    net::UdpConfig ucfg;
    ucfg.bindIp = args.str("bind-ip", "127.0.0.1");
    ucfg.hostIps = soak::splitCsv(args.str("host-ips", ""));
    ucfg.basePort =
        static_cast<std::uint16_t>(std::stoul(args.required("base-port")));
    ucfg.portsPerHost =
        static_cast<std::uint16_t>(args.integer("ports-per-host", 4));
    ucfg.maxHosts = static_cast<std::uint16_t>(args.integer("max-hosts", 16));
    const auto host = static_cast<net::HostId>(
        args.integer("host", ucfg.maxHosts - 1));
    const auto cbPort = static_cast<std::uint16_t>(args.integer("cb-port", 1));

    const double refresh = args.num("refresh", 1.0);
    const double duration = args.num("duration", 0.0);
    const long long maxFrames = args.integer("frames", 0);
    const bool plain = args.has("plain");  // no ANSI clear (piped output)

    auto udp = std::make_unique<net::UdpTransport>(ucfg, host, cbPort);
    std::fprintf(stderr, "cod_top: joined %s:%u (host %u, read-only)\n",
                 ucfg.bindIp.c_str(), udp->boundUdpPort(), host);

    core::CommunicationBackbone::Config cbCfg;
    cbCfg.broadcastIntervalSec = 0.05;
    cbCfg.refreshIntervalSec = 0.5;
    core::CommunicationBackbone cb(args.str("name", "cod-top"),
                                   std::move(udp), cbCfg);

    telemetry::MonitorConfig mc;
    mc.expectedIntervalSec = args.num("expected-interval", 1.0);
    mc.silentAfterIntervals = args.num("silent-after", 3.0);
    telemetry::HealthMonitor mon(mc);
    mon.bind(cb);  // subscribe-only; this process never publishes a class

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    double nextDraw = 0.0;
    long long frames = 0;
    double now = 0.0;
    while (g_stop == 0 && (duration <= 0.0 || now < duration)) {
      now = soak::wallSec();
      cb.tick(now);
      if (now >= nextDraw) {
        nextDraw = now + refresh;
        ++frames;
        if (!plain) std::fputs("\x1b[2J\x1b[H", stdout);
        std::fputs(mon.renderTable().c_str(), stdout);
        std::fputs(mon.renderAlarms(8).c_str(), stdout);
        std::fflush(stdout);
        if (maxFrames > 0 && frames >= maxFrames) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cod_top: %s\n", e.what());
    return 2;
  }
}
