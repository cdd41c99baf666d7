// Reproduces paper Figure 3 (a, b, c): m = 10, n = 50 — the paper's best
// case for speedup vs IP (CPLEX took ~105 s on U(1,10n) there).
#include "speedup_bench_common.hpp"

int main(int argc, char** argv) {
  return pcmax::run_main([&] {
    return pcmax::benchapp::run_speedup_figure("Figure 3", 10, 50, argc, argv);
  });
}
