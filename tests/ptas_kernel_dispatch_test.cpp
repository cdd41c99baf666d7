// The kernel-dispatch contract: the runtime selector picks AVX2 exactly
// when the host (and the build) has it and SWAR otherwise, forcing any
// kernel reproduces the per-entry enumeration reference byte for byte, and
// the degradation accounting (dp.simd_blocks / dp.scalar_fallbacks) matches
// the documented rules. These tests run on every host: the AVX2-specific
// assertions gate on dp_kernel_supported(), so a non-AVX machine (or a
// PCMAX_DISABLE_SIMD build) still exercises the full dispatch surface
// through the degradation to SWAR.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "util/rng.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

constexpr DpKernel kAllKernels[] = {DpKernel::kGlobalConfigs,
                                    DpKernel::kPerEntryEnum, DpKernel::kSwar,
                                    DpKernel::kAvx2};

RoundedInstance make_rounded(const std::vector<Time>& sizes,
                             const std::vector<int>& counts, Time target) {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(target, 4);
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
    rounded.total_long_jobs += counts[d];
  }
  return rounded;
}

void expect_identical_tables(const DpRun& reference, const DpRun& run,
                             const std::string& what) {
  ASSERT_EQ(run.table.size(), reference.table.size()) << what;
  EXPECT_EQ(run.machines_needed, reference.machines_needed) << what;
  for (std::size_t i = 0; i < reference.table.size(); ++i) {
    ASSERT_EQ(run.table.value(i), reference.table.value(i))
        << what << " value at entry " << i;
  }
}

/// The reference every kernel must reproduce: the paper's per-entry
/// enumeration, which shares no fits-test code with the packed kernels.
DpRun reference_run(const RoundedInstance& rounded, const StateSpace& space,
                    const ConfigSet& configs) {
  DpOptions options;
  options.kernel = DpKernel::kPerEntryEnum;
  return dp_bottom_up(rounded, space, configs, options);
}

TEST(KernelDispatch, NamesRoundTrip) {
  // The names land in result notes, metrics JSON and pcmaxbench headers,
  // so they are pinned.
  EXPECT_STREQ(dp_kernel_name(DpKernel::kGlobalConfigs), "auto");
  EXPECT_STREQ(dp_kernel_name(DpKernel::kPerEntryEnum), "per-entry-enum");
  EXPECT_STREQ(dp_kernel_name(DpKernel::kSwar), "swar");
  EXPECT_STREQ(dp_kernel_name(DpKernel::kAvx2), "avx2");
}

TEST(KernelDispatch, SupportImpliesCompiled) {
  for (const DpKernel kernel : kAllKernels) {
    if (dp_kernel_supported(kernel)) {
      EXPECT_TRUE(dp_kernel_compiled(kernel)) << dp_kernel_name(kernel);
    }
  }
  // The portable kernels are unconditionally available.
  EXPECT_TRUE(dp_kernel_supported(DpKernel::kSwar));
  EXPECT_TRUE(dp_kernel_supported(DpKernel::kPerEntryEnum));
}

TEST(KernelDispatch, SelectBestIsAlwaysSupported) {
  const DpKernel best = select_best_kernel();
  EXPECT_TRUE(dp_kernel_supported(best)) << dp_kernel_name(best);
  // AVX2 whenever the host has it, SWAR otherwise.
  EXPECT_EQ(best, dp_kernel_supported(DpKernel::kAvx2) ? DpKernel::kAvx2
                                                       : DpKernel::kSwar)
      << dp_kernel_name(best);
}

TEST(KernelDispatch, ResolveNeverYieldsAnUnsupportedKernel) {
  for (const DpKernel kernel : kAllKernels) {
    const DpKernel resolved = resolve_dp_kernel(kernel);
    EXPECT_TRUE(dp_kernel_supported(resolved))
        << dp_kernel_name(kernel) << " -> " << dp_kernel_name(resolved);
  }
  // Identity for the always-available kernels; the meta value resolves to
  // the host's best.
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kGlobalConfigs), select_best_kernel());
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kPerEntryEnum),
            DpKernel::kPerEntryEnum);
  EXPECT_EQ(resolve_dp_kernel(DpKernel::kSwar), DpKernel::kSwar);
  // AVX2 degrades to SWAR when unsupported.
  if (dp_kernel_supported(DpKernel::kAvx2)) {
    EXPECT_EQ(resolve_dp_kernel(DpKernel::kAvx2), DpKernel::kAvx2);
  } else {
    EXPECT_EQ(resolve_dp_kernel(DpKernel::kAvx2), DpKernel::kSwar);
  }
}

TEST(KernelDispatch, ForcedKernelsAreByteIdenticalOnRandomShapes) {
  Xoshiro256StarStar rng(0x51CCED);
  for (int round = 0; round < 10; ++round) {
    const Time target = uniform_int(rng, 25, 70);
    const int dims = static_cast<int>(uniform_int(rng, 1, 4));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);

    const DpRun reference = reference_run(rounded, space, configs);
    DpOptions swar_options;
    swar_options.kernel = DpKernel::kSwar;
    const DpRun swar = dp_bottom_up(rounded, space, configs, swar_options);

    for (const DpKernel kernel : kAllKernels) {
      DpOptions options;
      options.kernel = kernel;
      const DpRun run = dp_bottom_up(rounded, space, configs, options);
      const std::string what = std::string(dp_kernel_name(kernel)) +
                               " round " + std::to_string(round);
      expect_identical_tables(reference, run, what);
      EXPECT_EQ(run.stats.kernel, resolve_dp_kernel(kernel)) << what;
      // Scan accounting is kernel-independent: every scan kernel inspects
      // the same level prefix, so scans + pruned is conserved exactly.
      if (kernel != DpKernel::kPerEntryEnum) {
        EXPECT_EQ(run.stats.config_scans, swar.stats.config_scans) << what;
        EXPECT_EQ(run.stats.configs_pruned, swar.stats.configs_pruned) << what;
        EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned,
                  (space.size() - 1) * configs.count())
            << what;
      }
      EXPECT_EQ(run.stats.entries_computed, reference.stats.entries_computed)
          << what;
    }
  }
}

TEST(KernelDispatch, SwarBoundaryDigitsMatchScalar) {
  // counts = 127 is the widest packable digit (the high bit must stay
  // spare); the SWAR/AVX2 fits test must agree with the reference right at
  // that boundary.
  const RoundedInstance rounded = make_rounded({2}, {127}, 254);
  const std::vector<int> counts{127};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_TRUE(configs.packable);

  const DpRun reference = reference_run(rounded, space, configs);
  for (const DpKernel kernel : {DpKernel::kSwar, DpKernel::kAvx2}) {
    DpOptions options;
    options.kernel = kernel;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    expect_identical_tables(reference, run, dp_kernel_name(kernel));
  }
}

TEST(KernelDispatch, UnpackableSetDegradesToScalarWithAccounting) {
  // counts > 127 cannot be byte-packed: every kernel falls back to the
  // per-dimension scalar fits test and still produces the reference table,
  // and only AVX2 records the degradation.
  const RoundedInstance rounded = make_rounded({2}, {200}, 400);
  const std::vector<int> counts{200};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_FALSE(configs.packable);

  const DpRun reference = reference_run(rounded, space, configs);

  DpOptions swar_options;
  swar_options.kernel = DpKernel::kSwar;
  const DpRun swar = dp_bottom_up(rounded, space, configs, swar_options);
  expect_identical_tables(reference, swar, "swar");
  // The scalar path is SWAR's documented behaviour on an unpackable set;
  // only AVX2 counts it as a degradation.
  EXPECT_EQ(swar.stats.scalar_fallbacks, 0u);
  EXPECT_EQ(swar.stats.simd_blocks, 0u);

  if (dp_kernel_supported(DpKernel::kAvx2)) {
    DpOptions options;
    options.kernel = DpKernel::kAvx2;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    expect_identical_tables(reference, run, "avx2");
    EXPECT_GT(run.stats.scalar_fallbacks, 0u);
    EXPECT_EQ(run.stats.simd_blocks, 0u);
  }
}

TEST(KernelDispatch, VectorKernelsCountSimdBlocks) {
  // A packable shape with wide level prefixes: a supported AVX2 kernel
  // must actually vectorise (simd_blocks > 0), and SWAR must not.
  const RoundedInstance rounded = make_rounded({5, 7, 9}, {6, 6, 6}, 45);
  const std::vector<int> counts{6, 6, 6};
  const StateSpace space(counts, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ASSERT_TRUE(configs.packable);
  ASSERT_GE(configs.count(), 8u);

  DpOptions swar_options;
  swar_options.kernel = DpKernel::kSwar;
  const DpRun swar = dp_bottom_up(rounded, space, configs, swar_options);
  EXPECT_EQ(swar.stats.simd_blocks, 0u);
  EXPECT_EQ(swar.stats.scalar_fallbacks, 0u);
  if (dp_kernel_supported(DpKernel::kAvx2)) {
    DpOptions options;
    options.kernel = DpKernel::kAvx2;
    const DpRun run = dp_bottom_up(rounded, space, configs, options);
    EXPECT_GT(run.stats.simd_blocks, 0u);
  }
}

}  // namespace
}  // namespace pcmax
