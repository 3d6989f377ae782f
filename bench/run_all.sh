#!/usr/bin/env bash
# Run every benchmark binary and drop per-bench baseline files next to the
# build tree: Google-Benchmark binaries emit machine-readable
# BENCH_<name>.json, self-driving scenario benches emit BENCH_<name>.log.
#
#   usage: bench/run_all.sh [build-dir] [output-dir]
#
# Defaults: build-dir=build, output-dir=<build-dir>/bench-baselines.
#
# Every bench runs even if an earlier one fails (a mid-list failure must
# not hide the rest), a pass/fail summary table closes the run so a
# failure cannot be scrolled past, and the script exits non-zero if ANY
# bench failed — CI gates on this exit code.
set -uo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}/bench-baselines}"
BENCH_DIR="${BUILD_DIR}/bench"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found — configure and build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

# Discover built benches instead of duplicating the target lists from
# bench/CMakeLists.txt. Google-Benchmark binaries (identified by their
# libbenchmark link) emit JSON; self-driving main() benches emit logs.
declare -a names statuses
failed=0
found=0
for bin in "${BENCH_DIR}"/bench_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  found=1
  b="$(basename "${bin}")"
  # No `grep -q`: under pipefail an early grep exit can SIGPIPE ldd and
  # fail the pipeline even though the library was found.
  if ldd "${bin}" 2>/dev/null | grep libbenchmark >/dev/null; then
    out="${OUT_DIR}/BENCH_${b#bench_}.json"
    echo "== ${b} -> ${out}"
    "${bin}" --benchmark_out="${out}" --benchmark_out_format=json >/dev/null
    rc=$?
  else
    out="${OUT_DIR}/BENCH_${b#bench_}.log"
    echo "== ${b} -> ${out}"
    "${bin}" > "${out}"
    rc=$?
    # Scenario benches that print a machine-readable COD_BENCH_SUMMARY
    # {json} line also get a BENCH_<name>.json baseline, same as the
    # Google-Benchmark binaries — CI diffs trajectories off the JSON
    # without parsing the human log.
    summary="$(grep -h '^COD_BENCH_SUMMARY ' "${out}" | tail -n1)"
    if [[ -n "${summary}" ]]; then
      printf '%s\n' "${summary#COD_BENCH_SUMMARY }" \
        > "${OUT_DIR}/BENCH_${b#bench_}.json"
    fi
  fi
  names+=("${b}")
  statuses+=("${rc}")
  # One machine-readable result line per bench, greppable by CI.
  printf 'COD_BENCH_RESULT {"bench":"%s","exit":%d,"baseline":"%s"}\n' \
    "${b}" "${rc}" "${out}"
  if [[ "${rc}" -ne 0 ]]; then
    echo "== ${b} FAILED (exit ${rc})" >&2
    failed=1
  fi
done

if [[ "${found}" -eq 0 ]]; then
  echo "error: no bench_* binaries under ${BENCH_DIR} — build first" >&2
  exit 1
fi

# Baselines regression hunts diff against: the reliable-channel numbers
# (vs best effort, and the price of evicting the oldest frame from a full
# send window), the batching numbers (datagrams per frame and bytes per
# datagram at fan-out 4 and 16), the telemetry overhead share
# (bench_telemetry exits non-zero past its 2% budget), the CB routing
# numbers (the wide-table lookups must stay flat 1 -> 10k registered
# pairs), the flight-recorder numbers (bench_trace exits non-zero past
# its 1% recorder-share budget)
# and the flight-data archive numbers (bench_archive exits non-zero past
# its 1% append-share budget, and prices the cod_inspect replay path).
# Warn (stderr) if any was not produced — e.g. Google Benchmark missing,
# so the gbench binaries were never built. Not fatal: the scenario-bench
# .log baselines above are still valid without them.
for required in BENCH_reliable.json BENCH_batching.json BENCH_telemetry.json \
                BENCH_cb_routing.json BENCH_trace.json BENCH_archive.json; do
  if [[ ! -s "${OUT_DIR}/${required}" ]]; then
    bench_bin="bench_${required#BENCH_}"
    bench_bin="${bench_bin%.json}"
    echo "warning: ${required} missing — ${bench_bin} did not run" >&2
    echo "         (is Google Benchmark installed?)" >&2
  fi
done

echo
echo "== bench summary ======================"
for i in "${!names[@]}"; do
  if [[ "${statuses[$i]}" -eq 0 ]]; then
    printf '  %-24s PASS\n' "${names[$i]}"
  else
    printf '  %-24s FAIL (exit %s)\n' "${names[$i]}" "${statuses[$i]}"
  fi
done
echo "======================================="

if [[ "${failed}" -ne 0 ]]; then
  echo "error: at least one bench failed (see summary above)" >&2
  exit 1
fi
echo "baselines written to ${OUT_DIR}/"
