// Reproduces paper Figure 4 (a, b): m = 10, n = 30 — the paper's worst case
// for speedup vs IP (small instances that exact solvers dispatch quickly).
#include "speedup_bench_common.hpp"

int main(int argc, char** argv) {
  return pcmax::run_main([&] {
    return pcmax::benchapp::run_speedup_figure("Figure 4", 10, 30, argc, argv);
  });
}
