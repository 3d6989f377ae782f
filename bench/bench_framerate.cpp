// E1 — the paper's headline result (§4): "the frame rate of the surrounded
// view is 16 frame-per-second with totally 3235 polygons inside the virtual
// scene", with three display computers behind a synchronization server.
//
// Reproduction: three software-rasterizer channels render the training scene
// in parallel threads (standing in for the three display PCs). Under the
// swap barrier a frame completes when the *slowest* channel finishes plus
// the FRAME_READY/SWAP exchange; free-running channels present as soon as
// they finish. We sweep the polygon count and report both rates. Absolute
// fps depends on this machine; the paper's shape — sync fps < free fps,
// fps falling as polygons grow — is what must reproduce. The last line,
// `COD_BENCH_SUMMARY {json}`, carries the table for bench/run_all.sh.

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "render/rasterizer.hpp"
#include "sim/object_classes.hpp"
#include "sim/scene_builder.hpp"

using namespace cod;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr int kFrames = 30;  // timed frames per polygon count

struct Channel {
  sim::BuiltScene built;
  render::SurroundRig rig;
  render::Rasterizer raster;
  render::Framebuffer fb{kWidth, kHeight};
  int index = 0;

  explicit Channel(const scenario::Course& course, std::size_t polys, int idx)
      : built(sim::buildTrainingScene(course, polys)), index(idx) {
    rig.setPose({course.craneParkPosition.x, course.craneParkPosition.y, 2.6},
                math::Quat{});
  }

  double renderOnce() {
    const auto t0 = Clock::now();
    fb.clear();
    raster.render(built.scene, rig.channel(static_cast<std::size_t>(index)),
                  fb);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }
};

/// Virtual-time cost of one FRAME_READY/SWAP barrier exchange, measured on
/// the simulated LAN with a fine tick so protocol latency is not quantized
/// away. This stands in for the 2001 LAN round trip.
double measureBarrierLatency() {
  core::CodCluster::Config cfg;
  cfg.tickIntervalSec = 0.0002;
  core::CodCluster cluster(cfg);
  auto& cbS = cluster.addComputer("sync");
  auto& cbD = cluster.addComputer("display");

  struct ReadyLp : core::LogicalProcess {
    ReadyLp() : core::LogicalProcess("d") {}
  } display;
  struct SyncLp : core::LogicalProcess {
    SyncLp() : core::LogicalProcess("s") {}
    core::CommunicationBackbone* cb = nullptr;
    core::PublicationHandle swapPub = core::kInvalidHandle;
    void reflectAttributeValues(const std::string&, const core::AttributeSet& a,
                                double ts) override {
      cb->updateAttributeValues(swapPub, a, ts);
    }
  } server;

  cbD.attach(display);
  const auto readyPub = cbD.publishObjectClass(display, sim::kClassSyncReady);
  const auto swapSub = cbD.subscribeObjectClass(display, sim::kClassSyncSwap);
  cbS.attach(server);
  server.cb = &cbS;
  server.swapPub = cbS.publishObjectClass(server, sim::kClassSyncSwap);
  cbS.subscribeObjectClass(server, sim::kClassSyncReady);
  cluster.runUntil([&] { return cbD.connected(swapSub); }, 5.0);
  // Measure 100 ready→swap round trips in virtual time.
  double total = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double t0 = cluster.now();
    core::AttributeSet a;
    a.set("frame", i);
    cbD.updateAttributeValues(readyPub, a, t0);
    cluster.runUntil(
        [&] {
          const core::Reflection* r = cbD.latest(swapSub);
          return r != nullptr && r->attrs.getInt("frame") == i;
        },
        t0 + 1.0);
    total += cluster.now() - t0;
  }
  return total / 100.0;
}

}  // namespace

int main() {
  const scenario::Course course = scenario::standardLicensureCourse();
  const double barrierSec = measureBarrierLatency();

  std::printf("E1: surround-view frame rate vs polygon count\n");
  std::printf("(3 channels, %dx%d per channel, swap-barrier latency "
              "%.2f ms)\n\n",
              kWidth, kHeight, barrierSec * 1e3);
  std::printf("%10s %14s %14s %14s %10s\n", "polygons", "slowest-ch(ms)",
              "fps(sync)", "fps(free,min)", "overhead");
  std::string rows;

  for (const std::size_t polys : {500u, 1000u, 2000u, 3235u, 6500u, 13000u}) {
    std::vector<std::unique_ptr<Channel>> channels;
    for (int i = 0; i < 3; ++i)
      channels.push_back(std::make_unique<Channel>(course, polys, i));
    // Warm up, then time kFrames frames rendered in parallel (one thread per
    // display computer, as on the real rack).
    for (auto& c : channels) c->renderOnce();
    const int frames = kFrames;
    double maxChannelTotal = 0.0;   // free-run: slowest channel's own pace
    double barrierTotal = 0.0;      // sync: max over channels per frame
    std::vector<double> channelTotals(channels.size(), 0.0);
    for (int f = 0; f < frames; ++f) {
      std::vector<std::future<double>> futs;
      futs.reserve(channels.size());
      for (auto& c : channels) {
        futs.push_back(std::async(std::launch::async,
                                  [&c] { return c->renderOnce(); }));
      }
      double slowest = 0.0;
      for (std::size_t i = 0; i < futs.size(); ++i) {
        const double t = futs[i].get();
        channelTotals[i] += t;
        slowest = std::max(slowest, t);
      }
      barrierTotal += slowest + barrierSec;
    }
    for (const double t : channelTotals)
      maxChannelTotal = std::max(maxChannelTotal, t);
    const double fpsSync = frames / barrierTotal;
    const double fpsFreeMin = frames / maxChannelTotal;
    const double slowestMs = 1e3 * barrierTotal / frames - 1e3 * barrierSec;
    std::printf("%10zu %14.2f %14.1f %14.1f %9.1f%%\n", polys, slowestMs,
                fpsSync, fpsFreeMin, 100.0 * (1.0 - fpsSync / fpsFreeMin));
    char row[160];
    std::snprintf(row, sizeof row,
                  "%s{\"polygons\":%zu,\"slowest_channel_ms\":%.4f,"
                  "\"fps_sync\":%.2f,\"fps_free_min\":%.2f}",
                  rows.empty() ? "" : ",", polys, slowestMs, fpsSync,
                  fpsFreeMin);
    rows += row;
  }
  std::printf("\npaper reference: 16 fps at 3235 polygons (TNT2 M64, 2001); "
              "expect the same shape, not the same absolutes\n");
  std::printf("COD_BENCH_SUMMARY {\"bench\":\"framerate\",\"channels\":3,"
              "\"width\":%d,\"height\":%d,\"frames\":%d,"
              "\"barrier_ms\":%.4f,\"rows\":[%s]}\n",
              kWidth, kHeight, kFrames, barrierSec * 1e3, rows.c_str());
  return 0;
}
