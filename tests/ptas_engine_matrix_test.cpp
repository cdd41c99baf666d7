// Full-matrix equivalence sweep: every DP engine x kernel x epsilon (the
// parallel engines on a 2-thread work-stealing executor) must produce
// schedules with identical makespans on the same instance — the strongest
// statement of the paper's "same guarantees" claim this library can test
// mechanically.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"

namespace pcmax {
namespace {

using MatrixParam = std::tuple<DpEngine, DpKernel, double>;

class PtasEngineMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(PtasEngineMatrix, MatchesTheReferenceMakespan) {
  const auto [engine, kernel, epsilon] = GetParam();

  const bool parallel = engine == DpEngine::kParallelScan ||
                        engine == DpEngine::kParallelBucketed;
  const std::unique_ptr<Executor> executor =
      parallel ? make_executor("workstealing", 2) : make_executor("sequential", 1);
  for (const InstanceFamily family :
       {InstanceFamily::kUniform1To100, InstanceFamily::kUniformMTo2M1}) {
    const Instance instance = generate_instance(family, 4, 18, 2027, 0);
    const std::string what = family_name(family) + " " + executor->name();

    // Reference: plain sequential bisection, global kernel.
    PtasOptions reference_options;
    reference_options.epsilon = epsilon;
    const Time reference = PtasSolver(reference_options).solve(instance).makespan;

    PtasOptions options;
    options.epsilon = epsilon;
    options.engine = engine;
    options.kernel = kernel;
    options.executor = executor.get();
    const SolverResult result = PtasSolver(options).solve(instance);
    result.schedule.validate(instance);
    // Identical search path -> identical makespan.
    EXPECT_EQ(result.makespan, reference) << what;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [engine, kernel, epsilon] = info.param;
  std::string name = dp_engine_name(engine);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += kernel == DpKernel::kGlobalConfigs ? "_global" : "_perentry";
  name += "_e" + std::to_string(static_cast<int>(epsilon * 100));
  // "_w1": one probe per search round. The suffix keeps the case names
  // from when the matrix also swept a speculative multisection width.
  name += "_w1";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, PtasEngineMatrix,
    ::testing::Combine(
        ::testing::Values(DpEngine::kBottomUp, DpEngine::kParallelScan,
                          DpEngine::kParallelBucketed),
        ::testing::Values(DpKernel::kGlobalConfigs, DpKernel::kPerEntryEnum),
        ::testing::Values(0.5, 0.3)),
    matrix_name);

}  // namespace
}  // namespace pcmax
