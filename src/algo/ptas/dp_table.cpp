#include "algo/ptas/dp_table.hpp"

#include "util/error.hpp"

namespace pcmax {

DpTable::DpTable(std::size_t size, DpTableMode mode)
    : values_(size, kUnset) {
  // Choices store encoded offsets, which are < size; keep them in int32.
  PCMAX_REQUIRE(size < static_cast<std::size_t>(kInfeasible),
                "DP table too large for the int32 choice encoding");
  if (mode == DpTableMode::kValuesAndChoices) {
    choices_ = TableBuffer<std::int32_t>(size, kNoChoice);
  }
}

}  // namespace pcmax
