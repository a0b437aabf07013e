#!/bin/sh
# Full verification: configure, build, test, and run every bench harness
# and example.  A bench or example that exits nonzero fails the script
# (it does not silently continue).
#
# Usage: scripts/check.sh [--fast] [--distributed] [--serve] [--simd MODE]
#                         [--build-dir DIR]
#   --fast        run benches/examples in --smoke mode (tiny inputs); this
#                 is the tier CI uses so the whole suite also fits under
#                 sanitizers.
#   --distributed additionally run the multi-process smoke tier: pac_launch
#                 worlds of 4 real rank processes over the socket backend
#                 (quickstart + transport throughput).
#   --serve       additionally run the serving smoke tier: a live pac_serve
#                 under 8 concurrent pac_client streams with a mid-run hot
#                 reload (scripts/serve_smoke.sh).
#   --simd MODE   on   (default) leave PAC_SIMD alone: runtime dispatch
#                      picks the best level the host supports;
#                 off  force the scalar kernels (PAC_SIMD=0) for the whole
#                      suite;
#                 both run the full suite at the ambient level, then re-run
#                      the kernel/transport equality tests forced scalar.
#   --build-dir   build tree to use (default: build)
# Extra configure arguments can be passed via PAC_CMAKE_ARGS, e.g.
#   PAC_CMAKE_ARGS="-DCMAKE_BUILD_TYPE=Release" scripts/check.sh --fast
set -e
cd "$(dirname "$0")/.."

FAST=0
DISTRIBUTED=0
SERVE=0
SIMD=on
BUILD_DIR=build
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1 ;;
    --distributed) DISTRIBUTED=1 ;;
    --serve) SERVE=1 ;;
    --simd)
      shift; SIMD="$1"
      case "$SIMD" in
        on|off|both) ;;
        *) echo "unknown --simd mode: $SIMD (want on|off|both)" >&2; exit 2 ;;
      esac
      ;;
    --build-dir) shift; BUILD_DIR="$1" ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [ "$SIMD" = off ]; then
  PAC_SIMD=0
  export PAC_SIMD
fi

# Prefer Ninja for fresh build trees, fall back to the platform default
# generator; an existing tree keeps whatever generator configured it.
GENERATOR=""
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
  GENERATOR="-G Ninja"
fi
# shellcheck disable=SC2086  # intentional word splitting of the arg lists
cmake -B "$BUILD_DIR" -S . $GENERATOR ${PAC_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR"
echo "== simd dispatch: $("$BUILD_DIR"/bench/micro_kernels --print-simd) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure
if [ "$SIMD" = both ]; then
  # Second pass forced scalar: the kernel-equality and transport suites
  # must hold at every dispatch level (DESIGN.md's tier contract).
  echo "== re-running kernel/transport suites with PAC_SIMD=0 =="
  PAC_SIMD=0 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'Kernel|Simd|ThreadInvariance|Transport'
fi

SMOKE=""
[ "$FAST" = 1 ] && SMOKE="--smoke"

failures=0
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "== $b $SMOKE =="
  if ! "$b" $SMOKE; then
    echo "!! FAILED: $b $SMOKE" >&2
    failures=$((failures + 1))
  fi
done
# Perf smoke: run the kernel micro-suite once more with a machine-readable
# report.  CI uploads this JSON as the perf artifact; local baselines are
# recorded under bench/baselines/ (see EXPERIMENTS.md).
PERF_JSON="$BUILD_DIR/BENCH_micro_kernels.json"
echo "== perf smoke: bench/micro_kernels $SMOKE -> $PERF_JSON =="
if ! "$BUILD_DIR"/bench/micro_kernels $SMOKE \
    --benchmark_out="$PERF_JSON" --benchmark_out_format=json \
    --benchmark_filter='UpdateWts|UpdateParams|NormalizeRows|OocCycle|OocScan|Crc32' >/dev/null; then
  echo "!! FAILED: perf smoke (bench/micro_kernels)" >&2
  failures=$((failures + 1))
else
  # Ratio-based regression gate against the committed baseline snapshot.
  # Skipped under --simd off (forced-scalar speedups are trivially 1x) and
  # for sanitizer builds (instrumentation distorts kernel-vs-oracle
  # ratios); the dedicated CI perf job is the authoritative gate.
  case "$SIMD,${PAC_CMAKE_ARGS:-}" in
    off,*|*sanitize*)
      echo "== perf gate skipped (simd=$SIMD, sanitized build?) =="
      ;;
    *)
      echo "== perf gate: scripts/bench_diff.py $PERF_JSON =="
      if ! python3 scripts/bench_diff.py "$PERF_JSON"; then
        echo "!! FAILED: perf gate (scripts/bench_diff.py)" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
fi
# Same drill for the serving-path benches: one JSON run of serve_latency,
# then the ratio gate (bench_diff picks the serve baseline automatically —
# the candidate and baseline are matched on shared benchmark pairs).
PERF_SERVE_JSON="$BUILD_DIR/BENCH_serve_latency.json"
echo "== perf smoke: bench/serve_latency $SMOKE -> $PERF_SERVE_JSON =="
if ! "$BUILD_DIR"/bench/serve_latency $SMOKE \
    --benchmark_out="$PERF_SERVE_JSON" --benchmark_out_format=json \
    >/dev/null 2>&1; then
  echo "!! FAILED: perf smoke (bench/serve_latency)" >&2
  failures=$((failures + 1))
else
  case "$SIMD,${PAC_CMAKE_ARGS:-}" in
    off,*|*sanitize*)
      echo "== serve perf gate skipped (simd=$SIMD, sanitized build?) =="
      ;;
    *)
      echo "== perf gate: scripts/bench_diff.py $PERF_SERVE_JSON =="
      if ! python3 scripts/bench_diff.py "$PERF_SERVE_JSON"; then
        echo "!! FAILED: perf gate (scripts/bench_diff.py, serve)" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
fi

# Transport throughput (bench/transport_throughput standalone mode): the
# hybrid-shm-over-socket ratio pairs.  Wall-clock ping-pong under
# sanitizers measures the instrumentation, not the transport — gate skipped
# there like the kernel micros.
PERF_TT_JSON="$BUILD_DIR/BENCH_transport_throughput.json"
echo "== perf smoke: bench/transport_throughput $SMOKE -> $PERF_TT_JSON =="
if ! "$BUILD_DIR"/bench/transport_throughput $SMOKE \
    --benchmark_out="$PERF_TT_JSON" --benchmark_out_format=json \
    --benchmark_filter='/8/|/65536/' >/dev/null 2>&1; then
  echo "!! FAILED: perf smoke (bench/transport_throughput)" >&2
  failures=$((failures + 1))
else
  case "${PAC_CMAKE_ARGS:-}" in
    *sanitize*)
      echo "== transport perf gate skipped (sanitized build) =="
      ;;
    *)
      echo "== perf gate: scripts/bench_diff.py $PERF_TT_JSON =="
      if ! python3 scripts/bench_diff.py "$PERF_TT_JSON"; then
        echo "!! FAILED: perf gate (scripts/bench_diff.py, transport)" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
fi

# Ingest path (bench/data_ingest): binary .pacb load vs ASCII parse of the
# same rows.  Sanitizer instrumentation hits the text parser and the
# memcpy-width binary reader very differently, so the gate skips there.
PERF_INGEST_JSON="$BUILD_DIR/BENCH_data_ingest.json"
echo "== perf smoke: bench/data_ingest $SMOKE -> $PERF_INGEST_JSON =="
if ! "$BUILD_DIR"/bench/data_ingest $SMOKE \
    --benchmark_out="$PERF_INGEST_JSON" --benchmark_out_format=json \
    >/dev/null 2>&1; then
  echo "!! FAILED: perf smoke (bench/data_ingest)" >&2
  failures=$((failures + 1))
else
  case "${PAC_CMAKE_ARGS:-}" in
    *sanitize*)
      echo "== ingest perf gate skipped (sanitized build) =="
      ;;
    *)
      echo "== perf gate: scripts/bench_diff.py $PERF_INGEST_JSON =="
      if ! python3 scripts/bench_diff.py "$PERF_INGEST_JSON"; then
        echo "!! FAILED: perf gate (scripts/bench_diff.py, ingest)" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
fi

# Try-parallel search throughput (bench/search_tries): the reported times
# are *modeled* virtual seconds, so the G2-over-G1 ratio is deterministic
# and machine-independent — the gate runs on every tier (no simd/sanitizer
# skip needed).
PERF_TRIES_JSON="$BUILD_DIR/BENCH_search_tries.json"
echo "== perf smoke: bench/search_tries $SMOKE -> $PERF_TRIES_JSON =="
if ! "$BUILD_DIR"/bench/search_tries $SMOKE \
    --benchmark_out="$PERF_TRIES_JSON" --benchmark_out_format=json \
    >/dev/null 2>&1; then
  echo "!! FAILED: perf smoke (bench/search_tries)" >&2
  failures=$((failures + 1))
else
  echo "== perf gate: scripts/bench_diff.py $PERF_TRIES_JSON =="
  if ! python3 scripts/bench_diff.py "$PERF_TRIES_JSON"; then
    echo "!! FAILED: perf gate (scripts/bench_diff.py, search_tries)" >&2
    failures=$((failures + 1))
  fi
fi

for e in "$BUILD_DIR"/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "== $e =="
  case "$e" in
    */pautoclass_cli)
      # The CLI requires arguments: exercise a generate + classify round trip.
      tmp=$(mktemp -d)
      if "$e" --generate "$tmp/d" --items 200 >/dev/null &&
         "$e" --header "$tmp/d.hd2" --data "$tmp/d.db2" \
              --procs 2 --jlist 2,3 --tries 1 --max-cycles 3 >/dev/null; then
        echo ok
      else
        echo "!! FAILED: $e" >&2
        failures=$((failures + 1))
      fi
      rm -rf "$tmp"
      ;;
    *)
      if "$e" >/dev/null; then
        echo ok
      else
        echo "!! FAILED: $e" >&2
        failures=$((failures + 1))
      fi
      ;;
  esac
done

if [ "$DISTRIBUTED" = 1 ]; then
  # Both process backends: the socket mesh, then hybrid (same-host rank
  # pairs over shm rings — everything on one box, so ALL pairs route shm).
  for backend in socket hybrid; do
    for cmd in \
        "examples/quickstart --items 1200 --tries 2" \
        "bench/transport_throughput --smoke"; do
      echo "== pac_launch -n 4 --backend $backend $BUILD_DIR/$cmd =="
      # shellcheck disable=SC2086  # intentional word splitting of the args
      if "$BUILD_DIR"/tools/pac_launch -n 4 --backend "$backend" \
          "$BUILD_DIR"/${cmd%% *} ${cmd#* } >/dev/null; then
        echo ok
      else
        echo "!! FAILED: pac_launch -n 4 --backend $backend $cmd" >&2
        failures=$((failures + 1))
      fi
    done
  done
fi

if [ "$DISTRIBUTED" = 1 ]; then
  # Out-of-core smoke: the determinism contract end to end.  Convert a
  # generated dataset to .pacb, cluster it fully resident, then again
  # chunk-backed under a 1 MB budget (the 1.28 MB of column data cannot all
  # fit, so chunks really evict mid-E-step), then once more chunk-backed on
  # 2 real socket-backend processes.  All three checkpoints must be
  # byte-identical — same trajectories, same leaderboard, same bits.  J = 5
  # runs one full 4-class vector of the lanes = classes M-step plus a
  # remainder class.
  echo "== out-of-core smoke: pac_convert + budgeted runs =="
  tmp=$(mktemp -d)
  ooc_args="--jlist 5 --tries 1 --max-cycles 5 --procs 2"
  # shellcheck disable=SC2086  # intentional word splitting of $ooc_args
  if "$BUILD_DIR"/examples/pautoclass_cli --generate "$tmp/ooc" \
        --items 80000 >/dev/null &&
     "$BUILD_DIR"/tools/pac_convert --in "$tmp/ooc.db2" \
        --header "$tmp/ooc.hd2" --out "$tmp/ooc.pacb" \
        --chunk-rows 4096 >/dev/null &&
     "$BUILD_DIR"/examples/pautoclass_cli --data "$tmp/ooc.pacb" \
        $ooc_args --checkpoint "$tmp/resident.ckpt" >/dev/null &&
     "$BUILD_DIR"/examples/pautoclass_cli --data "$tmp/ooc.pacb" \
        $ooc_args --data-budget-mb 1 \
        --checkpoint "$tmp/chunked.ckpt" >/dev/null &&
     PAC_DATA_BUDGET_MB=1 "$BUILD_DIR"/tools/pac_launch -n 2 \
        --backend socket "$BUILD_DIR"/examples/pautoclass_cli \
        --data "$tmp/ooc.pacb" $ooc_args \
        --checkpoint "$tmp/launched.ckpt" >/dev/null &&
     cmp -s "$tmp/resident.ckpt" "$tmp/chunked.ckpt" &&
     cmp -s "$tmp/resident.ckpt" "$tmp/launched.ckpt"; then
    echo ok
  else
    echo "!! FAILED: out-of-core smoke (resident/chunked checkpoints differ or a run failed)" >&2
    failures=$((failures + 1))
  fi
  rm -rf "$tmp"
fi

if [ "$SERVE" = 1 ]; then
  echo "== serving smoke tier: scripts/serve_smoke.sh =="
  if sh scripts/serve_smoke.sh --build-dir "$BUILD_DIR"; then
    echo ok
  else
    echo "!! FAILED: scripts/serve_smoke.sh" >&2
    failures=$((failures + 1))
  fi
fi

if [ "$failures" -gt 0 ]; then
  echo "!! $failures bench/example binar(ies) failed" >&2
  exit 1
fi
echo "all checks passed"
