// perfbench — the repository's benchmark driver.
//
//   perfbench --workload <rack_exam|udp_mesh|lossy_mesh> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload in this process, checks its outputs, prints every
// metric by name and unit, and ends with one JSON line. --trace 0 reports
// the end-to-end metrics; --trace 1 arms the CB tick-phase profiler and
// reports the per-layer metrics plus the layer-sum table. Exit code 0 only
// when every output was correct. See README.md for the workloads.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rack_exam|udp_mesh|lossy_mesh> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();

  try {
    perfbench::Result r;
    if (args.workload == "rack_exam") {
      r = perfbench::runRackExam(args);
    } else if (const auto mesh = perfbench::meshParams(args.workload)) {
      r = perfbench::runMesh(args, *mesh);
    } else {
      return usage();
    }
    return perfbench::printResult(args, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
