# Figure/table reproduction harnesses (plain executables with CLI flags) and
# google-benchmark microbenchmarks. All default flag values are sized so that
# `for b in build/bench/*; do $b; done` completes in minutes.
function(pcmax_add_bench name)
  if(NOT EXISTS ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
    message(STATUS "skipping ${name} (source not written yet)")
    return()
  endif()
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    pcmax_harness pcmax_sim pcmax_mip pcmax_exact pcmax_algo pcmax_core
    pcmax_parallel pcmax_obs pcmax_util)
endfunction()

# NO_MAIN: the bench provides its own main() (e.g. to add flags like --json
# on top of the google-benchmark ones) instead of benchmark::benchmark_main.
function(pcmax_add_micro name)
  cmake_parse_arguments(ARG "NO_MAIN" "" "" ${ARGN})
  if(NOT EXISTS ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
    message(STATUS "skipping ${name} (source not written yet)")
    return()
  endif()
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    pcmax_harness pcmax_sim pcmax_mip pcmax_exact pcmax_algo pcmax_core
    pcmax_parallel pcmax_obs pcmax_util benchmark::benchmark)
  if(NOT ARG_NO_MAIN)
    target_link_libraries(${name} PRIVATE benchmark::benchmark_main)
  endif()
endfunction()

pcmax_add_bench(table1_dp_example)
pcmax_add_bench(fig2_speedup_m20_n100)
pcmax_add_bench(fig3_speedup_m10_n50)
pcmax_add_bench(fig4_speedup_m10_n30)
pcmax_add_bench(fig5_approx_ratios)
pcmax_add_bench(scaling_analysis)
pcmax_add_bench(baselines_shootout)
pcmax_add_bench(robustness_analysis)
pcmax_add_bench(epsilon_sweep)
pcmax_add_micro(micro_dp NO_MAIN)
pcmax_add_micro(micro_parallel)

# Smoke-test registrations: tiny Release runs of the reproduction benches so
# `ctest -L bench-smoke` catches bench bit-rot without paying full bench cost.
# A paper replay: the per-entry enumeration kernel (the default
# --faithful-kernel) through the whole figure pipeline, plus a threaded
# parallel-ptas solve of every instance that must match the sequential
# makespan (--verify-threads). Small exact budgets keep it to seconds.
add_test(NAME bench_smoke_fig4_replay
         COMMAND fig4_speedup_m10_n30 --trials 1 --verify-threads
                 --ip-probe-seconds 0.2 --ip-total-seconds 0.5)
add_test(NAME bench_smoke_micro_dp
         COMMAND micro_dp --benchmark_filter=BM_DpBottomUp
                 --benchmark_min_time=0.01
                 --json ${CMAKE_BINARY_DIR}/bench/smoke_micro.json)
# A malformed flag is reported as `error: <what>` with a non-zero exit, the
# way the pcmax CLI reports it, instead of aborting the process.
add_test(NAME bench_smoke_bad_flag COMMAND fig5_approx_ratios --bogus)
set_tests_properties(bench_smoke_bad_flag PROPERTIES
                     PASS_REGULAR_EXPRESSION "^error: ")
set_tests_properties(bench_smoke_fig4_replay bench_smoke_micro_dp
                     bench_smoke_bad_flag
                     PROPERTIES LABELS "bench-smoke" TIMEOUT 120)
