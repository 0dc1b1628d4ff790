#!/usr/bin/env bash
# Runs the E2/E3/E10/E11/E13/E14/E15/E16 benchmark suites (Release build) and
# writes JSON baselines at the repo root: BENCH_overlay.json,
# BENCH_query_types.json, BENCH_moft_scan.json, BENCH_obs_overhead.json,
# BENCH_agg_cache.json (cold build + warm cached-vs-uncached
# aggregate latency), and BENCH_estimator.json (estimator off/on
# end-to-end latency plus the EstimateQuery-only derivation). The benches sweep a `threads` axis (1 vs 4 via Engine/Database
# num_threads), so the baselines carry the serial-vs-parallel
# comparison; counters record problem size
# (polygons, samples, points) alongside.
#
# Each run also executes with PIET_OBS=1 and writes the merged metrics
# registry (work counters: rows scanned, overlay cells visited, cache
# hits/misses) to BENCH_<name>_metrics.json next to the timing baseline, so
# a perf regression can be split into "more work" vs "slower work". The
# dumps go through the shared exporter (src/obs/export.h): point
# PIET_OBS_OUT at a .prom path instead to get Prometheus text that
# examples/pietstat renders as a dashboard.
#
# bench_moft_scan (E10+E14) gates on storage-tier identity before timing:
# raw vs blocked vs compressed vs mmap-spilled block scans must be
# bit-identical or the bench exits non-zero; its counters carry
# bytes_per_sample, compression_ratio, decodes and zonemap skips.
#
# Usage: scripts/bench.sh [extra benchmark args...]
#   BUILD_DIR=...  build directory (default build-bench, Release)
#   FILTER=regex   forwarded as --benchmark_filter
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
JOBS="${JOBS:-$(nproc)}"

echo "== configure (${BUILD_DIR}, Release) =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "== build benches =="
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target bench_overlay bench_query_types bench_moft_scan \
  bench_obs_overhead bench_agg_cache bench_estimator

extra_args=()
if [[ -n "${FILTER:-}" ]]; then
  extra_args+=("--benchmark_filter=${FILTER}")
fi

# --benchmark_out keeps the JSON clean: the shape reports print to stdout,
# the machine-readable baseline goes to the file. PIET_OBS_OUT makes the
# bench dump the metrics snapshot on exit (see bench/obs_dump.h).
run_bench() {
  local name="$1"
  shift
  echo "== ${name} -> BENCH_${name#bench_}.json (+ metrics) =="
  PIET_OBS=1 PIET_OBS_OUT="BENCH_${name#bench_}_metrics.json" \
    "${BUILD_DIR}/bench/${name}" \
    --benchmark_out="BENCH_${name#bench_}.json" \
    --benchmark_out_format=json \
    --benchmark_format=console \
    "$@"
}

run_bench bench_overlay "${extra_args[@]}" "$@"
run_bench bench_query_types "${extra_args[@]}" "$@"
run_bench bench_moft_scan "${extra_args[@]}" "$@"
run_bench bench_obs_overhead "${extra_args[@]}" "$@"
run_bench bench_agg_cache "${extra_args[@]}" "$@"
run_bench bench_estimator "${extra_args[@]}" "$@"

echo "== obs overhead self-check (disabled < 2%, telemetry-on < 5%) =="
PIET_OBS_OVERHEAD_CHECK=1 "${BUILD_DIR}/bench/bench_obs_overhead"

echo "== baselines written: BENCH_overlay.json BENCH_query_types.json" \
     "BENCH_moft_scan.json BENCH_obs_overhead.json" \
     "BENCH_agg_cache.json" \
     "BENCH_estimator.json (+ *_metrics.json) =="
