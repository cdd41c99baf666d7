// The vectorised DP scan kernel and the runtime kernel selector.
//
// The AVX2 kernel vectorises the whole per-entry consider loop, not just
// the fits test: each 256-bit iteration packs 4 config words (32 digit
// bytes), computes the SWAR subtract+mask fits test bytewise, gathers the
// predecessor values of the fitting lanes with a masked gather, and folds
// them through a 32-bit vector min. Lanes that fail the fits test keep the
// gather's kInfeasible source value, so they never win the min.
//
// The kernel carries a per-function target attribute instead of a global
// -mavx2 flag, so one binary holds every kernel and select_best_kernel()
// picks at runtime via cpuid. PCMAX_DISABLE_SIMD (or a non-x86 target)
// compiles the kernel out; the entry point remains as a hard-failing stub
// so the inline dispatcher in dp_table.hpp always links, and
// dp_kernel_supported() reports it unavailable so it is unreachable.

#include "algo/ptas/dp_table.hpp"

#include "util/error.hpp"

#if !defined(PCMAX_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define PCMAX_SIMD_X86 1
#include <immintrin.h>
#endif

namespace pcmax {

const char* dp_kernel_name(DpKernel kernel) {
  switch (kernel) {
    case DpKernel::kGlobalConfigs: return "auto";
    case DpKernel::kPerEntryEnum: return "per-entry-enum";
    case DpKernel::kSwar: return "swar";
    case DpKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

bool dp_kernel_compiled(DpKernel kernel) {
#if defined(PCMAX_SIMD_X86)
  constexpr bool kHaveAvx2 = true;
#else
  constexpr bool kHaveAvx2 = false;
#endif
  return kernel != DpKernel::kAvx2 || kHaveAvx2;
}

bool dp_kernel_supported(DpKernel kernel) {
  if (!dp_kernel_compiled(kernel)) return false;
#if defined(PCMAX_SIMD_X86)
  if (kernel == DpKernel::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return true;
}

DpKernel select_best_kernel() {
  return dp_kernel_supported(DpKernel::kAvx2) ? DpKernel::kAvx2 : DpKernel::kSwar;
}

DpKernel resolve_dp_kernel(DpKernel requested) {
  switch (requested) {
    case DpKernel::kGlobalConfigs:
    case DpKernel::kAvx2:
      return select_best_kernel();
    default:
      return requested;
  }
}

namespace detail {

#if defined(PCMAX_SIMD_X86)

__attribute__((target("avx2"))) void entry_scan_avx2(
    std::size_t index, std::uint64_t pvh, const std::uint64_t* packed,
    const std::size_t* offsets, const std::int32_t* values, std::size_t count,
    std::uint64_t& simd_blocks, std::int32_t& best) {
  constexpr std::size_t kWidth = 4;  // 4 config words per 256-bit vector
  const __m256i vpvh = _mm256_set1_epi64x(static_cast<long long>(pvh));
  const __m256i vhigh = _mm256_set1_epi64x(static_cast<long long>(kSwarHigh));
  const __m256i vindex = _mm256_set1_epi64x(static_cast<long long>(index));
  // Moves the low dword of each fits qword into the low 128 bits, turning
  // the 4x64-bit fits mask into the 4x32-bit mask the gather expects.
  const __m256i vpick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i vinf = _mm_set1_epi32(DpTable::kInfeasible);
  __m128i vbest = vinf;
  const std::size_t blocks = count / kWidth;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t c = b * kWidth;
    const __m256i vpacked = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(packed + c));
    const __m256i diff = _mm256_sub_epi8(vpvh, vpacked);
    // Qword is all-ones iff every digit byte kept its high bit (s <= v).
    const __m256i fits =
        _mm256_cmpeq_epi64(_mm256_and_si256(diff, vhigh), vhigh);
    if (_mm256_testz_si256(fits, fits)) continue;  // no lane fits
    const __m256i voffs = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + c));
    // index - offset may wrap for non-fitting lanes; the gather mask
    // architecturally suppresses their memory access.
    const __m256i vpred_idx = _mm256_sub_epi64(vindex, voffs);
    const __m128i mask128 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(fits, vpick));
    vbest = _mm_min_epi32(
        vbest, _mm256_mask_i64gather_epi32(vinf, values, vpred_idx, mask128, 4));
  }
  simd_blocks += blocks;
  vbest = _mm_min_epi32(vbest, _mm_shuffle_epi32(vbest, _MM_SHUFFLE(1, 0, 3, 2)));
  vbest = _mm_min_epi32(vbest, _mm_shuffle_epi32(vbest, _MM_SHUFFLE(2, 3, 0, 1)));
  best = std::min(best, _mm_cvtsi128_si32(vbest));
  swar_scan_range(index, pvh, packed, offsets, values, blocks * kWidth, count,
                  best);
}

#else  // !PCMAX_SIMD_X86

// Link-time stub: with vectorisation compiled out, dp_kernel_supported()
// rejects kAvx2 and resolve_dp_kernel() never yields it, so this is
// unreachable through the public API.
void entry_scan_avx2(std::size_t, std::uint64_t, const std::uint64_t*,
                     const std::size_t*, const std::int32_t*, std::size_t,
                     std::uint64_t&, std::int32_t&) {
  PCMAX_REQUIRE(false, "AVX2 DP kernel not compiled into this binary");
}

#endif  // PCMAX_SIMD_X86

}  // namespace detail
}  // namespace pcmax
