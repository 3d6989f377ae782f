// The three workloads. Each drives the stack only through public API and
// fills a Result; report.cpp prints it.
#pragma once

#include <optional>
#include <string>

#include "report.hpp"

namespace perfbench {

/// rack_exam: the default 8-computer CraneSimulatorApp on SimNetwork runs
/// the careful-profile licensure exam in 1/16 s frames, repeatedly.
Result runRackExam(const RunArgs& args);

/// Shape of a mesh workload: `nodes` CBs on loopback UdpTransports in a
/// full mesh, each publishing `classes` streams at `rateHz` (the last
/// `reliableClasses` of them reliable-ordered) that every other node
/// subscribes to, optionally behind a seeded send-side loss.
struct MeshParams {
  int nodes = 8;
  int classes = 4;
  int reliableClasses = 1;
  double rateHz = 200.0;
  double lossPct = 0.0;
  /// Timed windows per run, each on a freshly built mesh repeating the
  /// same schedule; --seconds is split evenly between them. Even, so a
  /// traced run gets as many traced windows as untraced ones.
  int windows = 20;
  /// Longest the post-window drain may take to complete every stream.
  double drainMaxSec = 2.0;
};

/// udp_mesh / lossy_mesh parameters; nullopt for any other name.
std::optional<MeshParams> meshParams(const std::string& workload);

Result runMesh(const RunArgs& args, const MeshParams& p);

}  // namespace perfbench
