#!/usr/bin/env bash
# Full verification sweep: a Release tree running the whole test suite, a
# Release tree building every target with warnings as errors, a
# ThreadSanitizer tree running the concurrency-heavy tests (ctest label
# `sanitize`), and a pair of SIMD configuration trees exercising the DP
# kernel family at both extremes. Usage:
#
#   tools/check.sh            # all trees
#   tools/check.sh release    # Release tree + full suite only
#   tools/check.sh werror     # Release tree, PCMAX_WERROR=ON, all targets
#   tools/check.sh tsan       # TSan tree + `ctest -L sanitize` only
#   tools/check.sh simd       # forced -mavx2 tree + PCMAX_DISABLE_SIMD tree
#
# The Release run repeats the `bench-smoke`, `service`, `service-sharded`,
# `chaos`, `variants`, and `headers` labels explicitly at the end so bench
# bit-rot (flag parsing, the paper replay, JSON export), batch-service
# regressions, sharding equivalence drift (the differential byte-equality
# blitz in tests/service_shard_equivalence_test.cpp plus the SolveFuture
# suite), chaos-harness drift (the soak in tests/chaos_soak_test.cpp storms
# every registered fault site), and non-self-contained public headers
# (tools/check_headers.sh) fail loudly even when someone trims the main
# ctest invocation. The TSan tree picks the chaos soak and the async
# SolveFuture stress up twice: they carry `sanitize` alongside their own
# labels. It also repeats the team-episode tests (Executor::run_team, the
# spin-then-block Barrier, the team DP sweep) and the service overload
# suite (coalescing followers, breaker probes) three times.
#
# Build trees live in build-check/, build-werror/, build-simd/,
# build-nosimd/, and build-tsan/ so they never clobber a developer's main
# build/ directory.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
mode="${1:-all}"

run_release() {
  echo "== Release tree: full suite =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-check -j "$jobs"
  ctest --test-dir build-check --output-on-failure -j "$jobs"
  echo "== Release tree: bench smoke =="
  ctest --test-dir build-check --output-on-failure -L bench-smoke
  echo "== Release tree: service suite =="
  ctest --test-dir build-check --output-on-failure -L service
  echo "== Release tree: sharding equivalence + async futures =="
  ctest --test-dir build-check --output-on-failure -L service-sharded
  echo "== Release tree: chaos soak =="
  ctest --test-dir build-check --output-on-failure -L chaos
  echo "== Release tree: problem variants (capacity + incremental) =="
  ctest --test-dir build-check --output-on-failure -L variants
  echo "== Release tree: header self-containment =="
  ctest --test-dir build-check --output-on-failure -L headers
}

run_werror() {
  # Release optimisation runs the flow analyses behind -Wrestrict and
  # -Wmaybe-uninitialized that a debug tree skips, so this tree is Release.
  echo "== Release tree, warnings as errors: every target =="
  cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release -DPCMAX_WERROR=ON
  cmake --build build-werror -j "$jobs"
}

run_simd() {
  # Two trees at the extremes of the kernel dispatch (see
  # docs/performance.md): one compiled with an explicit -mavx2 so the AVX2
  # scan kernel is definitely built, and one with PCMAX_DISABLE_SIMD=ON so
  # the AVX2 kernel is compiled out and `auto` resolves to SWAR. Both run
  # the kernel-sensitive tests — the DpPathCrossCheck suite asserts that
  # every DP path (bottom-up, scan-per-level, team sweep) on SWAR and AVX2
  # fills the per-entry enumeration reference's values byte for byte and
  # reconstructs its schedule, and the example, bisection and solver tests
  # reconstruct schedules from their own kernel's values — so these trees
  # catch a miscompiled kernel and a broken degradation to SWAR
  # respectively.
  local simd_tests=(ptas_dp_crosscheck_test ptas_kernel_dispatch_test
                    ptas_config_enum_test ptas_dp_test ptas_dp_example_test
                    ptas_bisection_test ptas_solver_test)
  echo "== SIMD tree (-mavx2): DP kernel tests =="
  cmake -B build-simd -S . -DCMAKE_BUILD_TYPE=Release \
    -DPCMAX_SIMD_FLAGS=-mavx2
  cmake --build build-simd -j "$jobs" --target "${simd_tests[@]}"
  for t in "${simd_tests[@]}"; do "./build-simd/tests/$t"; done
  echo "== No-SIMD tree (PCMAX_DISABLE_SIMD=ON): DP kernel tests =="
  cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
    -DPCMAX_DISABLE_SIMD=ON
  cmake --build build-nosimd -j "$jobs" --target "${simd_tests[@]}"
  for t in "${simd_tests[@]}"; do "./build-nosimd/tests/$t"; done
}

run_tsan() {
  echo "== ThreadSanitizer tree: ctest -L sanitize =="
  # Every thread here is one of pcmax's own (the work-stealing pool, the
  # barrier, the service), so TSan sees all of their synchronisation.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPCMAX_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L sanitize
  echo "== ThreadSanitizer tree: team episodes, 3 repeats =="
  # run_team contract and stress (both executors, nested teams, member
  # exceptions, back-to-back teams with pool churn), the spin-then-block
  # barrier, and the team DP sweep cross-checks (the TeamSweep_* cases of
  # DpPathCrossCheck). Their interleavings vary from run to run, so they
  # repeat.
  ctest --test-dir build-tsan --output-on-failure -L sanitize \
    -R 'Team|Barrier\.' --repeat until-fail:3
  echo "== ThreadSanitizer tree: service overload, 3 repeats =="
  # The coalescing path (a leader and its parked followers under the shard's
  # inflight_mutex in SolveService::handle and conclude_leadership,
  # re-dispatch after a degraded leader) and the breaker's half-open probe
  # race between workers. A lost follower or a wedged probe shows only in
  # some interleavings, and the coalescing test once failed 1 run in 20 on
  # such a race, so these repeat as well.
  ctest --test-dir build-tsan --output-on-failure -L sanitize \
    -R 'ServiceOverload\.' --repeat until-fail:3
  echo "== ThreadSanitizer tree: sharding equivalence + async futures =="
  ctest --test-dir build-tsan --output-on-failure -L service-sharded
  echo "== ThreadSanitizer tree: problem variants =="
  # The variant differential suite drives IncrementalSession's prepared
  # submissions and the capacity adapter through live service threads.
  ctest --test-dir build-tsan --output-on-failure -L variants
}

case "$mode" in
  all) run_release; run_werror; run_simd; run_tsan ;;
  release) run_release ;;
  werror) run_werror ;;
  tsan) run_tsan ;;
  simd) run_simd ;;
  *) echo "usage: tools/check.sh [all|release|werror|tsan|simd]" >&2; exit 2 ;;
esac

echo "check.sh: all requested suites passed"
