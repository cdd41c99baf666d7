// The vectorised DP scan kernel and the runtime kernel selector.
//
// The AVX2 kernel vectorises the whole per-entry consider loop, not just
// the fits test: each 256-bit iteration packs 4 config words (32 digit
// bytes), computes the SWAR subtract+mask fits test
// bytewise, gathers the predecessor values of the fitting lanes with a
// masked gather, and folds (value << 32 | offset) keys through a vector
// signed-64 min. The key encoding makes the canonical argmin (min value,
// ties to smallest encoded offset) a plain integer min: predecessor
// values are non-negative int32s, so every key is non-negative and the
// signed vector min equals the lexicographic (value, offset) order. Lanes
// that fail the fits test are blended to INT64_MAX, which conveniently
// decodes to {kInfeasible, kNoChoice} — no special-casing anywhere.
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

namespace {
// Folds a decoded (value, choice) candidate into the running canonical
// argmin — the same predicate swar_scan_range applies per config.
inline void fold_candidate(std::int32_t value, std::int32_t choice,
                           std::int32_t& best, std::int32_t& best_choice) {
  if (value < best || (value == best && choice < best_choice)) {
    best = value;
    best_choice = choice;
  }
}
}  // namespace

__attribute__((target("avx2"))) void entry_scan_avx2(
    std::size_t index, std::uint64_t pvh, const std::uint64_t* packed,
    const std::size_t* offsets, const std::int32_t* values, std::size_t count,
    std::uint64_t& simd_blocks, std::int32_t& best,
    std::int32_t& best_choice) {
  constexpr std::size_t kWidth = 4;  // 4 config words per 256-bit vector
  const __m256i vpvh = _mm256_set1_epi64x(static_cast<long long>(pvh));
  const __m256i vhigh = _mm256_set1_epi64x(static_cast<long long>(kSwarHigh));
  const __m256i vindex = _mm256_set1_epi64x(static_cast<long long>(index));
  const __m256i vsentinel = _mm256_set1_epi64x(INT64_MAX);
  const __m256i vlow32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  // Moves the low dword of each fits qword into the low 128 bits, turning
  // the 4x64-bit fits mask into the 4x32-bit mask the gather expects.
  const __m256i vpick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i vinf128 = _mm_set1_epi32(DpTable::kInfeasible);
  __m256i vbest = vsentinel;
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
    const __m128i gathered =
        _mm256_mask_i64gather_epi32(vinf128, values, vpred_idx, mask128, 4);
    const __m256i vpred = _mm256_cvtepu32_epi64(gathered);
    __m256i vkey = _mm256_or_si256(_mm256_slli_epi64(vpred, 32),
                                   _mm256_and_si256(voffs, vlow32));
    vkey = _mm256_blendv_epi8(vsentinel, vkey, fits);
    // Signed 64-bit min (valid: every key is non-negative): keep the lane
    // of vbest unless it is strictly greater than vkey's.
    const __m256i gt = _mm256_cmpgt_epi64(vbest, vkey);
    vbest = _mm256_blendv_epi8(vbest, vkey, gt);
  }
  simd_blocks += blocks;
  alignas(32) std::int64_t lanes[kWidth];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  std::int64_t key = lanes[0];
  for (std::size_t i = 1; i < kWidth; ++i) {
    if (lanes[i] < key) key = lanes[i];
  }
  // INT64_MAX (no fitting lane) decodes exactly to {kInfeasible, kNoChoice}.
  fold_candidate(static_cast<std::int32_t>(key >> 32),
                 static_cast<std::int32_t>(
                     static_cast<std::uint32_t>(key & 0xFFFFFFFFll)),
                 best, best_choice);
  swar_scan_range(index, pvh, packed, offsets, values, blocks * kWidth, count,
                  best, best_choice);
}

#else  // !PCMAX_SIMD_X86

// Link-time stub: with vectorisation compiled out, dp_kernel_supported()
// rejects kAvx2 and resolve_dp_kernel() never yields it, so this is
// unreachable through the public API.
void entry_scan_avx2(std::size_t, std::uint64_t, const std::uint64_t*,
                     const std::size_t*, const std::int32_t*, std::size_t,
                     std::uint64_t&, std::int32_t&, std::int32_t&) {
  PCMAX_REQUIRE(false, "AVX2 DP kernel not compiled into this binary");
}

#endif  // PCMAX_SIMD_X86

}  // namespace detail
}  // namespace pcmax
