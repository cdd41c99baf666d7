// Reproduces paper Table I and Figure 1: the worked DP example with
// N = (2,3) (two rounded jobs of size 6, three of size 11) and T = 30 —
// the full DP-table, the anti-diagonal levels, and the assignment of the
// level entries to four processors.
#include <iostream>
#include <sstream>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

static int run_bench(int argc, char** argv) {
  CliParser cli("Reproduces paper Table I and Figure 1: the worked DP example "
                "(no flags).");
  if (!cli.parse(argc, argv)) return 0;

  RoundedInstance rounded;
  rounded.params = RoundingParams::make(30, 4);
  rounded.class_index = {6, 11};
  rounded.class_size = {6, 11};
  rounded.class_count = {2, 3};
  rounded.class_jobs = {{0, 1}, {2, 3, 4}};
  rounded.total_long_jobs = 5;

  const StateSpace space({2, 3}, std::size_t{1} << 20);
  const ConfigSet configs = enumerate_configs(rounded, space, std::size_t{1} << 20);
  const DpRun run = dp_bottom_up(rounded, space, configs);

  std::cout << "=== Table I / Figure 1: DP example, N = (2,3), sizes {6,11}, "
               "T = 30 ===\n\n";

  std::cout << "machine configurations C (paper Eq. 7, zero config excluded):\n  ";
  for (std::size_t c = 0; c < configs.count(); ++c) {
    const auto s = configs.config(c);
    std::cout << "(" << s[0] << "," << s[1] << ") ";
  }
  std::cout << "\n\n";

  TablePrinter table({"v = (v1,v2)", "index", "level d(v)", "OPT(v)", "processor"});
  std::vector<int> digits(2);
  constexpr unsigned kProcessors = 4;  // the paper's illustration
  std::vector<std::size_t> level_cursor(
      static_cast<std::size_t>(space.max_level()) + 1, 0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    space.decode(i, digits);
    const int level = space.level_of(i);
    const unsigned processor = static_cast<unsigned>(
        level_cursor[static_cast<std::size_t>(level)]++ % kProcessors);
    // Streamed rather than `"(" + std::to_string(...)`, which GCC 12 flags
    // under -Werror=restrict.
    std::ostringstream vector;
    vector << '(' << digits[0] << ',' << digits[1] << ')';
    std::ostringstream processor_name;
    processor_name << 'P' << processor;
    table.add_row({vector.str(), std::to_string(i), std::to_string(level),
                   std::to_string(run.table.value(i)), processor_name.str()});
  }
  std::cout << table.to_string() << "\n";

  std::cout << "anti-diagonal widths q_l (Figure 1 levels): ";
  for (std::size_t q : space.level_histogram()) std::cout << q << " ";
  std::cout << "\nOPT(N) = OPT(2,3) = " << run.machines_needed << " machines\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main([&] { return run_bench(argc, argv); });
}
