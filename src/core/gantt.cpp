#include "core/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace pcmax {

std::string render_gantt(const Instance& instance, const Schedule& schedule,
                         const GanttOptions& options) {
  PCMAX_REQUIRE(options.width >= 8, "gantt width must be at least 8 columns");
  schedule.validate(instance);

  const Time makespan = schedule.makespan(instance);
  PCMAX_CHECK(makespan > 0, "a validated non-empty schedule has positive makespan");
  const double scale = static_cast<double>(options.width) /
                       static_cast<double>(makespan);

  std::ostringstream os;
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    os << 'm' << machine << ' ';
    // Align machine labels up to 2 digits.
    if (machine < 10) os << ' ';
    os << '|';

    Time elapsed = 0;
    int printed_columns = 0;
    for (int job : schedule.jobs_on(machine)) {
      const Time t = instance.time(job);
      // Cumulative rounding keeps total row width faithful to the load.
      const int end_column =
          static_cast<int>(static_cast<double>(elapsed + t) * scale + 0.5);
      int block = std::max(1, end_column - printed_columns);
      std::string label;
      if (options.show_job_ids) {
        // Appended rather than `"j" + std::to_string(job)`, which GCC 12
        // flags under -Werror=restrict.
        label = 'j';
        label += std::to_string(job);
      }
      if (static_cast<int>(label.size()) + 2 <= block) {
        const int pad = block - static_cast<int>(label.size());
        os << std::string(static_cast<std::size_t>(pad / 2), '#') << label
           << std::string(static_cast<std::size_t>(pad - pad / 2), '#');
      } else {
        os << std::string(static_cast<std::size_t>(block), '#');
      }
      os << '|';
      printed_columns += block + 1;
      elapsed += t;
    }
    os << "  load " << schedule.load(instance, machine);
    if (schedule.load(instance, machine) == makespan) os << "  <- makespan";
    os << '\n';
  }
  os << "scale: " << options.width << " cols = " << makespan << " time units\n";
  return os.str();
}

}  // namespace pcmax
