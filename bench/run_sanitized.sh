#!/usr/bin/env sh
# Build a slice of the test binaries under a sanitizer and run them.
#
#   bench/run_sanitized.sh              # address+undefined (default)
#   A3CS_SANITIZE=thread bench/run_sanitized.sh
#   A3CS_SANITIZE=undefined bench/run_sanitized.sh   # UBSan-only, numeric slice
#
# Every pass starts with the a3cs-lint stage (see docs/STATIC_ANALYSIS.md) so
# invariant violations fail fast before any sanitizer compile, and builds with
# -DA3CS_WERROR=ON so warnings fail too.
#
# The default ASan/UBSan pass covers the util + obs layers (atomic metrics,
# the shared trace writer, the profiler's thread-local cursors), the
# checkpoint subsystem (sectioned container parsing of adversarial bytes,
# the full save/restore round-trip) and the training-health guard (fault
# injection, rollback recovery), the perf observability layer (bench
# registry, BENCH_*.json diffing, Chrome trace export — perf_test), the
# fleet supervisor (protocol/frontier units plus the kill/hang/corrupt
# resume e2e suite — fleet_test, fleet_resume_test), and finishes with an
# end-to-end fault-injection smoke of cosearch_full --guard=heal, a fleet
# kill-one smoke (cosearch_fleet under A3CS_FLEET_KILL), plus a perf smoke
# (bench_kernels in smoke mode, self-diffed through bench_report --check
# and --chrome-check). The TSan pass
# instead targets the parallel execution layer: the thread pool itself plus
# every kernel and subsystem that dispatches onto it (GEMM/im2col, VecEnv
# stepping, the top-K NAS backward, the DAS predictor sweep) and the guard's
# cross-thread pieces (the global FaultInjector, the metrics it bumps), run
# with A3CS_THREADS=4 so the pool actually fans out. The standalone UBSan
# pass sweeps the numeric layers — tensor kernels, nn layers/optimizers, the
# NAS/DAS/accel math — where signed overflow and bad float casts would hide.
#
# Every pass finishes with a kernel-backend stage: the numeric tier-1 slice
# reruns under each backend the host supports (probed via `bench_kernels
# --backends`), scalar and avx2, so both get the same sanitizer coverage
# whatever the default (auto) resolved to above; hosts without AVX2/FMA
# rerun scalar only.
set -eu

SAN="${A3CS_SANITIZE:-address}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-san-$SAN"
SMOKE=""

if [ "$SAN" = "thread" ]; then
  TESTS="thread_pool_test tensor_test arcade_test determinism_test guard_test das_test"
  # Skip the (wall-clock) stall-watchdog cases: TSan's slowdown makes any
  # timing threshold meaningless.
  GUARD_FILTER="-*Stall*"
  export A3CS_THREADS="${A3CS_THREADS:-4}"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
elif [ "$SAN" = "undefined" ]; then
  TESTS="tensor_test nn_layers_test nn_optim_test nn_zoo_test rl_test nas_test accel_test das_test core_test"
  GUARD_FILTER=""
else
  TESTS="util_test obs_test thread_pool_test ckpt_test io_test guard_test guard_recovery_test perf_test fleet_test fleet_resume_test"
  GUARD_FILTER=""
  SMOKE="cosearch_full cosearch_fleet bench_kernels bench_report"
fi

cmake -B "$BUILD" -S "$ROOT" -DA3CS_SANITIZE="$SAN" -DA3CS_WERROR=ON >/dev/null

# Lint first: a determinism/serialization/concurrency violation fails the
# run before we spend minutes on instrumented compiles. The cross-TU graph
# families (layering, lock order, serialization coverage — the `lint_graph`
# ctest) run on their own first: they skip the per-file rule engine, so an
# architectural violation fails in milliseconds.
cmake --build "$BUILD" -j "$(nproc)" --target a3cs_lint >/dev/null
echo "== a3cs_lint --graph-only =="
"$BUILD/tools/a3cs_lint/a3cs_lint" --repo-root "$ROOT" --graph-only
echo "== a3cs_lint =="
"$BUILD/tools/a3cs_lint/a3cs_lint" --repo-root "$ROOT"

# shellcheck disable=SC2086
cmake --build "$BUILD" -j "$(nproc)" --target $TESTS $SMOKE

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

status=0
for t in $TESTS; do
  echo "== $t ($SAN${A3CS_THREADS:+, A3CS_THREADS=$A3CS_THREADS}) =="
  if [ -n "$GUARD_FILTER" ] && [ "$t" = "guard_test" ]; then
    "$BUILD/tests/$t" --gtest_filter="$GUARD_FILTER" || status=$?
  else
    "$BUILD/tests/$t" || status=$?
  fi
done

# End-to-end guard smoke (ASan pass only): inject a persistent NaN weight
# into a tiny real pipeline run and require the heal-mode guard to finish it
# via checkpoint rollback (an abort would crash out non-zero). See
# docs/ROBUSTNESS.md.
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== guard fault-injection smoke ($SAN) =="
  CKPT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_guard_smoke.XXXXXX")"
  A3CS_SCALE="${A3CS_SCALE:-0.05}" \
  A3CS_GUARD=heal A3CS_GUARD_SKIPS=1 A3CS_GUARD_SOFTENS=1 \
  A3CS_FAULT_NAN_PARAM=5 \
  A3CS_CKPT_DIR="$CKPT_DIR" A3CS_CKPT_EVERY_ITERS=2 A3CS_CKPT_KEEP=8 \
    "$BUILD/examples/cosearch_full" Catch || status=$?
  rm -rf "$CKPT_DIR"
fi

# Perf observability smoke (ASan pass only): run the kernel bench suite in
# smoke mode with a Chrome trace, self-diff its JSON artifact through
# bench_report --check (must be all-ok) and validate the trace with
# --chrome-check. See docs/BENCHMARKING.md.
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== perf observability smoke ($SAN) =="
  PERF_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_perf_smoke.XXXXXX")"
  A3CS_BENCH_SMOKE=1 A3CS_PROFILE_CHROME="$PERF_DIR/trace.json" \
    "$BUILD/bench/bench_kernels" --json "$PERF_DIR/kernels.json" || status=$?
  if [ "$status" -eq 0 ]; then
    "$BUILD/tools/bench_report/bench_report" --check \
      --baseline "$PERF_DIR/kernels.json" \
      --current "$PERF_DIR/kernels.json" || status=$?
    "$BUILD/tools/bench_report/bench_report" \
      --chrome-check "$PERF_DIR/trace.json" || status=$?
  fi
  rm -rf "$PERF_DIR"
fi

# Fleet kill-one smoke (ASan pass only): run a 2-worker fleet, kill worker 0
# at iteration 3 via the deterministic fault injector, and require the
# supervisor to restart it from its checkpoint ring and finish the whole run
# with exit 0 and a non-empty merged frontier (docs/FLEET.md).
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== fleet kill-one smoke ($SAN) =="
  FLEET_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_fleet_smoke.XXXXXX")"
  A3CS_FLEET_KILL=0@3 \
    "$BUILD/examples/cosearch_fleet" Catch --workers 2 --frames 64 \
    --backoff 0.05 --out "$FLEET_DIR" >/dev/null || status=$?
  if [ "$status" -eq 0 ]; then
    [ -s "$FLEET_DIR/frontier.txt" ] || { echo "smoke: frontier.txt missing"; status=1; }
    grep -q '^point ' "$FLEET_DIR/frontier.txt" || { echo "smoke: frontier has no points"; status=1; }
  fi
  rm -rf "$FLEET_DIR"
fi

# Kernel-backend stage: rerun the numeric tier-1 slice under every backend
# the host supports, so the scalar reference and the per-TU SIMD kernels
# (src/tensor/backend/kernels_avx2.cc) both see the sanitizer. Probe the
# host first — bench_kernels --backends prints one usable backend per line.
if [ "$status" -eq 0 ]; then
  cmake --build "$BUILD" -j "$(nproc)" --target bench_kernels \
    tensor_test nn_layers_test determinism_test backend_check_test >/dev/null
  for b in $("$BUILD/bench/bench_kernels" --backends); do
    for t in tensor_test nn_layers_test determinism_test backend_check_test; do
      echo "== $t ($SAN, A3CS_BACKEND=$b) =="
      A3CS_BACKEND="$b" "$BUILD/tests/$t" || status=$?
    done
  done
fi
exit "$status"
