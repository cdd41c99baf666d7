// The DP table of Algorithm 2/3 and the shared per-entry kernel.
//
// Entry v holds OPT(v): the minimum number of machines that schedule the
// rounded long jobs given by count vector v with makespan at most T
// (paper Eq. 4). The table stores values only. The reconstruction walk
// (reconstruct.hpp) recovers each machine's configuration from them, so a
// feasible search probe's table is all the schedule needs.
//
// The per-entry scan comes in a small family of kernels (DpKernel below):
// the paper-faithful per-entry enumeration, the SWAR packed-fits scan (one
// config word per iteration), and a runtime-dispatched AVX2 kernel that
// tests 4 packed config words (32 digit bytes) per vector op and
// vectorises the min reduction as well. A config set whose digits do not
// fit a byte falls back to a per-dimension scalar fits test. All of them
// compute the same minimum over the fitting configs, so every kernel fills
// byte-identical tables.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <span>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/state_space.hpp"
#include "util/table_buffer.hpp"

namespace pcmax {

/// What one DpTable stores per entry: values only. Nothing reads it;
/// pcmaxbench's next change drops it with the two option fields that name it.
enum class DpTableMode {
  kValuesOnly,
};

/// Flat, cache-line-aligned storage of the OPT values.
class DpTable {
 public:
  /// Value of an entry that has not been computed yet.
  static constexpr std::int32_t kUnset = -1;
  /// Value of an entry no configuration sequence can reach. With valid
  /// rounding every single-job config fits (c*u <= t <= T), so reachable
  /// tables never contain this; it exists for defensive completeness.
  static constexpr std::int32_t kInfeasible = INT32_MAX;

  /// Allocates a table with `size` unset entries.
  explicit DpTable(std::size_t size) : values_(size, kUnset) {}

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  [[nodiscard]] std::int32_t value(std::size_t index) const { return values_[index]; }

  void set(std::size_t index, std::int32_t value) { values_[index] = value; }

  /// Raw value array for hot loops (read-only view of computed entries).
  [[nodiscard]] const std::int32_t* values_data() const { return values_.data(); }

 private:
  TableBuffer<std::int32_t> values_;
};

/// Which configuration-scan kernel the DP uses per entry.
enum class DpKernel {
  /// Automatic: resolve to the fastest kernel the host supports
  /// (select_best_kernel()) once per DP run. This is the default and the
  /// historical name of the global-config-scan strategy, kept so existing
  /// call sites keep their meaning ("scan the precomputed set C with the
  /// best available fits test").
  kGlobalConfigs,
  /// Re-enumerate C_v per entry, exactly as paper Algorithm 3 Line 17
  /// ("C_{v^i} <- all machine configurations of vector v^i"). Much more
  /// per-entry work — this is the cost profile the paper measured, and the
  /// profile the speedup figures replay.
  kPerEntryEnum,
  /// SWAR packed fits: one 8-byte config word per iteration
  /// (subtract + high-bit mask over ConfigSet::packed).
  kSwar,
  /// AVX2: 4 packed config words (32 digit bytes) per 256-bit op, masked
  /// predecessor gather, vectorised canonical-argmin reduction.
  kAvx2,
};

/// Stable lowercase name of a kernel ("auto", "per-entry-enum", "swar",
/// "avx2") for JSON output and metrics notes.
const char* dp_kernel_name(DpKernel kernel);

/// True iff the kernel's code path is compiled into this binary. kAvx2
/// requires an x86-64 build without PCMAX_DISABLE_SIMD; the others are
/// always compiled.
bool dp_kernel_compiled(DpKernel kernel);

/// True iff the kernel is compiled in AND the host CPU supports its ISA
/// (cpuid probe for kAvx2; always true for the portable ones).
bool dp_kernel_supported(DpKernel kernel);

/// The fastest supported packed-scan kernel on this host: kAvx2 when the
/// CPU has AVX2, else kSwar. Never returns a kernel that
/// dp_kernel_supported() rejects.
DpKernel select_best_kernel();

/// Maps a requested kernel to the one the DP will actually run:
/// kGlobalConfigs -> select_best_kernel(); an unsupported kAvx2 degrades to
/// kSwar; everything else is identity. The result always satisfies
/// dp_kernel_supported().
DpKernel resolve_dp_kernel(DpKernel requested);

/// Statistics of one DP execution.
struct DpStats {
  std::uint64_t entries_computed = 0;  ///< table entries evaluated
  std::uint64_t config_scans = 0;      ///< config candidates inspected
  std::uint64_t configs_pruned = 0;    ///< candidates skipped by the level bound
  std::uint64_t simd_blocks = 0;       ///< full vector blocks processed
  std::uint64_t scalar_fallbacks = 0;  ///< entries a vector kernel degraded on
  std::size_t table_size = 0;          ///< sigma
  std::size_t config_count = 0;        ///< |C|
  int levels = 0;                      ///< n' + 1 anti-diagonals
  DpKernel kernel = DpKernel::kGlobalConfigs;  ///< resolved kernel that ran
};

/// Per-worker scan counter bundle threaded through compute_entry.
/// simd_blocks counts full-width vector iterations of the AVX2 kernel;
/// scalar_fallbacks counts entries where the AVX2 kernel had to degrade to
/// the SWAR or scalar path (unpackable config set, or a level prefix
/// shorter than the vector width). The SWAR kernel never counts a
/// fallback, not even on an unpackable set: the scalar path is its
/// documented behaviour there, not a degradation.
struct DpScanCounters {
  std::uint64_t scans = 0;
  std::uint64_t pruned = 0;
  std::uint64_t simd_blocks = 0;
  std::uint64_t scalar_fallbacks = 0;
};

/// Folds one worker's scan counters into run-level stats.
inline void accumulate_scan_counters(DpStats& stats,
                                     const DpScanCounters& counters) {
  stats.config_scans += counters.scans;
  stats.configs_pruned += counters.pruned;
  stats.simd_blocks += counters.simd_blocks;
  stats.scalar_fallbacks += counters.scalar_fallbacks;
}

namespace detail {

/// High bits of the SWAR packed-fits test (see ConfigSet::packed).
inline constexpr std::uint64_t kSwarHigh = 0x8080808080808080ull;

/// Distance (in configs) of the software prefetch ahead of the SWAR scan.
/// 16 configs is two cache lines of packed words — far enough to cover the
/// gather latency, near enough to stay inside the level prefix most scans.
inline constexpr std::size_t kSwarPrefetchDist = 16;

/// SWAR packed-fits scan over configs [begin, end): folds the predecessor
/// value of every fitting config into the running minimum `best`. Shared
/// by the SWAR kernel and the tail of the AVX2 kernel.
inline void swar_scan_range(std::size_t index, std::uint64_t pvh,
                            const std::uint64_t* packed,
                            const std::size_t* offsets,
                            const std::int32_t* values, std::size_t begin,
                            std::size_t end, std::int32_t& best) {
  for (std::size_t c = begin; c < end; ++c) {
    // Prefetch the predecessor value a few configs ahead. Non-fitting
    // configs can have offset > index, so guard the subtraction — the
    // prefetch must never form a wild address.
    if (c + kSwarPrefetchDist < end &&
        offsets[c + kSwarPrefetchDist] <= index) {
      __builtin_prefetch(values + (index - offsets[c + kSwarPrefetchDist]));
    }
    if (((pvh - packed[c]) & kSwarHigh) == kSwarHigh) {
      const std::int32_t predecessor = values[index - offsets[c]];
      assert(predecessor != DpTable::kUnset &&
             "DP ordering violated: predecessor not computed");
      best = std::min(best, predecessor);
    }
  }
}

/// AVX2 scan over configs [0, count): same contract as swar_scan_range
/// over the full range. Implemented in dp_simd.cpp with a per-function
/// target("avx2") attribute; must only be called when
/// dp_kernel_supported(DpKernel::kAvx2). simd_blocks is incremented once
/// per full 4-config vector block.
void entry_scan_avx2(std::size_t index, std::uint64_t pvh,
                     const std::uint64_t* packed, const std::size_t* offsets,
                     const std::int32_t* values, std::size_t count,
                     std::uint64_t& simd_blocks, std::int32_t& best);

}  // namespace detail

/// Evaluates the recurrence for entry `index` with digits `v` on
/// anti-diagonal `level` (= digit sum of v) against the global config set:
/// OPT(v) = 1 + min over { s in C : s <= v } of OPT(v-s). Only the
/// level-bounded prefix of the (level-sorted) set is scanned — configs of
/// level > `level` cannot fit. Entry 0 (v = 0) must be handled by the
/// caller (OPT = 0). All predecessor entries must already be computed.
///
/// `kernel` selects the fits-test realisation and must already be resolved
/// (resolve_dp_kernel); anything but kAvx2 scans with SWAR. kAvx2 degrades
/// to SWAR (counting a scalar_fallback) when the level prefix is shorter
/// than the vector width. An unpackable set (more than 8 classes, or a
/// digit above 127) runs the per-dimension scalar fits test under every
/// kernel, and kAvx2 counts that as a fallback too. All kernels produce
/// identical results.
inline std::int32_t compute_entry(std::size_t index, std::span<const int> v,
                                  int level, const ConfigSet& configs,
                                  const std::int32_t* values,
                                  DpScanCounters& counters,
                                  DpKernel kernel = DpKernel::kSwar) {
  std::int32_t best = DpTable::kInfeasible;
  const auto dims = static_cast<std::size_t>(configs.dims);
  const std::size_t* offsets = configs.offsets.data();
  const std::size_t count = configs.prefix_count(level);
  counters.scans += count;
  counters.pruned += configs.count() - count;
  const bool vector_kernel = kernel == DpKernel::kAvx2;
  if (configs.packable) {
    // Packed fits test (see ConfigSet::packed): every byte of the bytewise
    // difference keeps its high bit iff s <= v in that dimension.
    std::uint64_t pv = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      pv |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(v[d])) << (8 * d);
    }
    const std::uint64_t pvh = pv | detail::kSwarHigh;
    const std::uint64_t* packed = configs.packed.data();
    if (vector_kernel && count >= 4) {
      detail::entry_scan_avx2(index, pvh, packed, offsets, values, count,
                              counters.simd_blocks, best);
    } else {
      if (vector_kernel) ++counters.scalar_fallbacks;
      detail::swar_scan_range(index, pvh, packed, offsets, values, 0, count,
                              best);
    }
  } else {
    if (vector_kernel) ++counters.scalar_fallbacks;  // unpackable set
    const int* digits = configs.digits.data();
    for (std::size_t c = 0; c < count; ++c) {
      const int* s = digits + c * dims;
      bool fits = true;
      for (std::size_t d = 0; d < dims; ++d) {
        if (s[d] > v[d]) {
          fits = false;
          break;
        }
      }
      if (fits) {
        const std::int32_t predecessor = values[index - offsets[c]];
        assert(predecessor != DpTable::kUnset &&
               "DP ordering violated: predecessor not computed");
        best = std::min(best, predecessor);
      }
    }
  }
  return best == DpTable::kInfeasible ? best : best + 1;
}

/// Paper-faithful variant of compute_entry: re-enumerates C_v for this entry
/// (Alg. 3 Lines 17-19) instead of scanning a precomputed global set; the
/// same minimum, so the two kernels fill identical tables. Nothing is
/// level-pruned here (the enumeration never materialises non-fitting
/// candidates), so `pruned` of this kernel is always 0.
inline std::int32_t compute_entry_enumerated(std::size_t index,
                                             std::span<const int> v,
                                             const RoundedInstance& rounded,
                                             const StateSpace& space,
                                             const std::int32_t* values,
                                             std::uint64_t& scans) {
  std::int32_t best = DpTable::kInfeasible;
  scans += for_each_config_within(rounded, space, v, [&](std::size_t offset) {
    const std::int32_t predecessor = values[index - offset];
    assert(predecessor != DpTable::kUnset &&
           "DP ordering violated: predecessor not computed");
    best = std::min(best, predecessor);
  });
  return best == DpTable::kInfeasible ? best : best + 1;
}

}  // namespace pcmax
