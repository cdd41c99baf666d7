// Reproduces paper Figure 2 (a, b, c): speedup and running times for
// instances with 20 machines and 100 jobs across the four speedup families.
#include "speedup_bench_common.hpp"

int main(int argc, char** argv) {
  return pcmax::run_main([&] {
    return pcmax::benchapp::run_speedup_figure("Figure 2", 20, 100, argc, argv);
  });
}
