// Shared vocabulary of the multi-process UDP soak harness: the flag
// parser, the probe object-class naming and the report grammar both
// binaries agree on.
//
// A soak *node* (soak_node.cpp) is one computer of the paper's rack as a
// real OS process on real loopback sockets; the *driver*
// (soak_driver.cpp) spawns N of them, injects a mid-run failure, and
// turns their end-of-run reports into a pass/fail verdict. The report is
// a line-oriented text file (first token = record kind) so a human can
// read exactly what the driver judged:
//
//   node <name>
//   role <role>
//   probe-published <finalSeq>      (all roles but mass)
//   probe <peer> segment <idx> first=<f> last=<l> count=<c> gaps=<g>
//   probe-summary <peer> segments=<n> dups=<d>
//   channels-mass out=<o> in=<i> live=<l>     (mass only: this node's
//                                              mass.* channels at exit)
//   mass-class <class> reflections=<n> sources=<s>  (mass only)
//   self-counters updates=<u> data=<d> retx=<r>  (ground truth: the
//                                              node's own StatRegistry
//                                              snapshot at exit)
//   repair spurious-nacks=<n> reorder-window-max-ms=<ms> peer-dups=<n>
//                                   (receiver-side NACK timing, and the
//                                    duplicates peers reported back;
//                                    parsed by key, gated on nothing)
//   status-updates <n>              (instructor only)
//   alarm <KIND> <node>             (monitor host only, feed order)
//   loss-est <node> <pct> data=<d> retx=<r> dups=<n>  (monitor host only;
//                                    pct is duplicate-corrected: losses =
//                                    retx - dups reported by receivers)
//   mon-counters <node> updates=<u> data=<d> retx=<r>  (monitor host:
//                                              the monitor's last view of
//                                              <node>'s self-counters)
//   mon-channels <node> out=<o> in=<i>        (monitor host: peak count
//                                              of <node>'s mass.*
//                                              channels seen through
//                                              telemetry over the run)
//   latency p50=<ms> p90=<ms> p99=<ms> max=<ms> samples=<n>
//                                   (whole-run sampled publish->release
//                                    latency; only when --trace-sample
//                                    produced samples)
//   exit ok                         (always last: truncation marker)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cod::soak {

/// Reliable probe streams: every node publishes kProbeClassPrefix + its
/// own name and subscribes to each peer's. The driver's 100%-in-order
/// verdict is computed over these streams.
inline const std::string kProbeClassPrefix = "soak.probe.";

/// Mass-connect object classes: kMassClassPrefix + <k> for k in
/// [0, --mass-classes). Class k is published by nodes k%N and (k+1)%N of
/// an N-node mass rack and subscribed by every node, so the rack opens
/// exactly C*2*(N-1) network channels — the node's MassLp and the
/// driver's expected-channel-count verdict both derive from this one
/// assignment rule.
inline const std::string kMassClassPrefix = "mass.c";

/// One publisher incarnation of a probe stream, as the subscriber saw it:
/// the record behind the report's `probe ... segment` lines, written by
/// the node and parsed back by the driver — one definition so the two
/// sides cannot drift. A publisher restart shows up as a sequence drop,
/// which opens a new segment; within a segment a reliable channel owes
/// strict +1 increments (gaps counts every missing number).
struct Segment {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t count = 0;
  std::uint64_t gaps = 0;
};

/// Monotonic wall-clock seconds since the process's first call.
inline double wallSec() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Minimal `--key=value` flag parser (no bare values, no short options —
/// the driver composes child command lines, so the grammar stays trivial).
/// `known` lists every key the binary reads; any other key throws
/// "unknown flag --<key>", so a misspelt gate cannot silently stay off.
class Args {
 public:
  Args(int argc, char** argv, const std::vector<std::string>& known) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw std::invalid_argument("expected --key=value, got: " + arg);
      // Assignments via assign(): GCC 12's -Werror=restrict false-fires
      // on operator=(const char*) after substr (GCC PR105329).
      const std::size_t eq = arg.find('=');
      std::string key, value;
      if (eq == std::string::npos) {
        key.assign(arg, 2, std::string::npos);
        value.push_back('1');  // boolean flag
      } else {
        key.assign(arg, 2, eq - 2);
        value.assign(arg, eq + 1, std::string::npos);
      }
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::invalid_argument("unknown flag --" + key);
      values_[key] = value;
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string required(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end())
      throw std::invalid_argument("missing required flag --" + key);
    return it->second;
  }

  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  std::int64_t integer(const std::string& key, std::int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

inline std::vector<std::string> splitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? csv.size() - start
                                                     : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// "key=value" token → value; nullopt when the token has a different key.
inline std::optional<std::string> kvToken(const std::string& token,
                                          const std::string& key) {
  if (token.rfind(key + "=", 0) != 0) return std::nullopt;
  return token.substr(key.size() + 1);
}

}  // namespace cod::soak
