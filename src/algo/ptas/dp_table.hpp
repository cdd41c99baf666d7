// The DP table of Algorithm 2/3 and the shared per-entry kernel.
//
// Entry v holds OPT(v): the minimum number of machines that schedule the
// rounded long jobs given by count vector v with makespan at most T
// (paper Eq. 4). Alongside each value the table can store the argmin
// configuration id, which the reconstruction step walks backwards from N to
// recover the actual machine assignment (paper Alg. 1, Line 26). Search
// probes that only need OPT(N) allocate values-only tables (kValuesOnly),
// halving table memory and write traffic.
//
// The per-entry scan comes in a small family of kernels (DpKernel below):
// the paper-faithful per-entry enumeration, the SWAR packed-fits scan (one
// config word per iteration), and a runtime-dispatched AVX2 kernel that
// tests 4 packed config words (32 digit bytes) per vector op and
// vectorises the argmin reduction as well. A config set whose digits do
// not fit a byte falls back to a per-dimension scalar fits test. All of
// them implement the same canonical argmin (min predecessor value, ties
// towards the smallest encoded offset), so every kernel fills
// byte-identical tables.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <span>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/state_space.hpp"
#include "util/table_buffer.hpp"

namespace pcmax {

/// What one DpTable stores per entry.
enum class DpTableMode {
  /// Values and argmin choices — required for reconstruction.
  kValuesAndChoices,
  /// Values only — sufficient for feasibility probes (the bisection only
  /// reads OPT(N)); no choice array is allocated.
  kValuesOnly,
};

/// Flat storage of OPT values and (optionally) argmin configuration choices.
/// Storage is structure-of-arrays — values and choices live in separate
/// cache-line-aligned buffers, so values-only probes stream values
/// contiguously and the SIMD gathers never pull choice bytes into cache.
class DpTable {
 public:
  /// Value of an entry that has not been computed yet.
  static constexpr std::int32_t kUnset = -1;
  /// Value of an entry no configuration sequence can reach. With valid
  /// rounding every single-job config fits (c*u <= t <= T), so reachable
  /// tables never contain this; it exists for defensive completeness.
  static constexpr std::int32_t kInfeasible = INT32_MAX;
  /// Choice value meaning "no configuration chosen" (origin or infeasible).
  /// Otherwise the choice of entry v is the *encoded offset* of the
  /// canonical argmin configuration s (i.e. encode(s)): among all fitting
  /// configs of minimum predecessor value, the one with the smallest
  /// encoded offset. The canonical rule is order-independent, so every DP
  /// kernel — level-sorted scan, unsorted scan, per-entry enumeration —
  /// fills identical tables, and the reconstruction walk computes the
  /// predecessor index as `index - choice` and recovers s by decoding the
  /// offset, independent of which kernel filled the table.
  static constexpr std::int32_t kNoChoice = -1;

  /// Allocates a table with `size` unset entries (size must fit in the
  /// int32 choice encoding).
  explicit DpTable(std::size_t size,
                   DpTableMode mode = DpTableMode::kValuesAndChoices);

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// True iff the table stores argmin choices (kValuesAndChoices mode).
  [[nodiscard]] bool has_choices() const { return !choices_.empty(); }

  [[nodiscard]] std::int32_t value(std::size_t index) const { return values_[index]; }

  /// Argmin choice of an entry; the table must have been allocated in
  /// kValuesAndChoices mode.
  [[nodiscard]] std::int32_t choice(std::size_t index) const {
    assert(has_choices() && "choice() on a values-only table");
    return choices_[index];
  }

  void set(std::size_t index, std::int32_t value, std::int32_t choice) {
    values_[index] = value;
    if (!choices_.empty()) choices_[index] = choice;
  }

  /// Raw value array for hot loops (read-only view of computed entries).
  [[nodiscard]] const std::int32_t* values_data() const { return values_.data(); }

 private:
  TableBuffer<std::int32_t> values_;
  TableBuffer<std::int32_t> choices_;  ///< empty in kValuesOnly mode
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

/// Computed value/choice pair for one entry.
struct EntryResult {
  std::int32_t value;
  std::int32_t choice;
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

/// SWAR packed-fits scan over configs [begin, end): folds every fitting
/// config into the canonical (min predecessor value, ties to smallest
/// offset) argmin held in best/best_choice. Shared by the SWAR kernel and
/// the tail of the AVX2 kernel, so the tail stays bit-compatible for free.
inline void swar_scan_range(std::size_t index, std::uint64_t pvh,
                            const std::uint64_t* packed,
                            const std::size_t* offsets,
                            const std::int32_t* values, std::size_t begin,
                            std::size_t end, std::int32_t& best,
                            std::int32_t& best_choice) {
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
      const auto choice = static_cast<std::int32_t>(offsets[c]);
      if (predecessor < best || (predecessor == best && choice < best_choice)) {
        best = predecessor;
        best_choice = choice;
      }
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
                     std::uint64_t& simd_blocks, std::int32_t& best,
                     std::int32_t& best_choice);

}  // namespace detail

/// Evaluates the recurrence for entry `index` with digits `v` on
/// anti-diagonal `level` (= digit sum of v) against the global config set:
/// OPT(v) = 1 + min over { s in C : s <= v } of OPT(v-s), argmin broken
/// canonically towards the smallest encoded offset. Only the level-bounded
/// prefix of the (level-sorted) set is scanned — configs of level > `level`
/// cannot fit. Entry 0 (v = 0) must be handled by the caller (OPT = 0). All
/// predecessor entries must already be computed.
///
/// `kernel` selects the fits-test realisation and must already be resolved
/// (resolve_dp_kernel); anything but kAvx2 scans with SWAR. kAvx2 degrades
/// to SWAR (counting a scalar_fallback) when the level prefix is shorter
/// than the vector width. An unpackable set (more than 8 classes, or a
/// digit above 127) runs the per-dimension scalar fits test under every
/// kernel, and kAvx2 counts that as a fallback too. All kernels produce
/// identical results.
inline EntryResult compute_entry(std::size_t index, std::span<const int> v,
                                 int level, const ConfigSet& configs,
                                 const std::int32_t* values,
                                 DpScanCounters& counters,
                                 DpKernel kernel = DpKernel::kSwar) {
  std::int32_t best = DpTable::kInfeasible;
  std::int32_t best_choice = DpTable::kNoChoice;
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
                              counters.simd_blocks, best, best_choice);
    } else {
      if (vector_kernel) ++counters.scalar_fallbacks;
      detail::swar_scan_range(index, pvh, packed, offsets, values, 0, count,
                              best, best_choice);
    }
  } else {
    if (vector_kernel) ++counters.scalar_fallbacks;  // unpackable set
    // Canonical argmin: min value, ties towards the smallest encoded
    // offset. The explicit tie-break makes the result independent of the
    // scan order (the level sort interleaves offsets across levels).
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
        const auto choice = static_cast<std::int32_t>(offsets[c]);
        if (predecessor < best ||
            (predecessor == best && choice < best_choice)) {
          best = predecessor;
          best_choice = choice;
        }
      }
    }
  }
  if (best == DpTable::kInfeasible) return {DpTable::kInfeasible, DpTable::kNoChoice};
  return {best + 1, best_choice};
}

/// Paper-faithful variant of compute_entry: re-enumerates C_v for this entry
/// (Alg. 3 Lines 17-19) instead of scanning a precomputed global set. The
/// enumeration visits configs in lexicographic order of s — which equals
/// increasing encoded-offset order — so keeping the first minimum already
/// yields the canonical (min value, smallest offset) argmin, and the two
/// kernels produce identical tables. Nothing is level-pruned here (the
/// enumeration never materialises non-fitting candidates), so `pruned` of
/// this kernel is always 0.
inline EntryResult compute_entry_enumerated(std::size_t index,
                                            std::span<const int> v,
                                            const RoundedInstance& rounded,
                                            const StateSpace& space,
                                            const std::int32_t* values,
                                            std::uint64_t& scans) {
  std::int32_t best = DpTable::kInfeasible;
  std::int32_t best_choice = DpTable::kNoChoice;
  scans += for_each_config_within(rounded, space, v, [&](std::size_t offset) {
    const std::int32_t predecessor = values[index - offset];
    assert(predecessor != DpTable::kUnset &&
           "DP ordering violated: predecessor not computed");
    if (predecessor < best) {
      best = predecessor;
      best_choice = static_cast<std::int32_t>(offset);
    }
  });
  if (best == DpTable::kInfeasible) return {DpTable::kInfeasible, DpTable::kNoChoice};
  return {best + 1, best_choice};
}

}  // namespace pcmax
