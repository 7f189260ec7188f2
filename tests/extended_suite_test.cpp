// Tests for the extended kernel pack and the include_extended suite
// option.
#include <gtest/gtest.h>

#include <set>

#include "workload/characterization.hpp"

namespace hetsched {
namespace {

TEST(ExtendedKernelsTest, PackShapeAndNames) {
  const auto extended = make_extended_kernels(0.5);
  EXPECT_EQ(extended.size(), 8u);
  const auto standard = make_standard_kernels(0.5);
  std::set<std::string> names;
  for (const auto& k : standard) names.insert(k->name());
  for (const auto& k : extended) {
    EXPECT_TRUE(names.insert(k->name()).second)
        << "extended kernel name collides: " << k->name();
  }
}

class ExtendedKernelParamTest
    : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<std::unique_ptr<Kernel>>& kernels() {
    static const auto k = make_extended_kernels(0.5);
    return k;
  }
  const Kernel& kernel() const { return *kernels()[GetParam()]; }
};

TEST_P(ExtendedKernelParamTest, ProducesValidDeterministicTrace) {
  const KernelExecution a = execute(kernel(), 11);
  const KernelExecution b = execute(kernel(), 11);
  EXPECT_GT(a.trace.size(), 100u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_GT(a.counters.total_instructions(), a.trace.size());
  for (const MemRef& ref : a.trace) {
    ASSERT_GE(ref.address, 0x1000u);
    ASSERT_LE(ref.address + ref.size, 0x1000u + a.footprint_bytes);
  }
}

TEST_P(ExtendedKernelParamTest, CountersMatchTrace) {
  const KernelExecution exec = execute(kernel(), 12);
  std::uint64_t loads = 0, stores = 0;
  for (const MemRef& ref : exec.trace) {
    (ref.is_write ? stores : loads)++;
  }
  EXPECT_EQ(loads, exec.counters.loads);
  EXPECT_EQ(stores, exec.counters.stores);
  EXPECT_LE(exec.counters.taken_branches, exec.counters.branches);
}

INSTANTIATE_TEST_SUITE_P(
    AllExtended, ExtendedKernelParamTest,
    ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      static const auto kernels = make_extended_kernels(0.5);
      return kernels[param_info.param]->name();
    });

TEST(ExtendedSuiteTest, IncludeExtendedGrowsTheSuite) {
  SuiteOptions options;
  options.kernel_scale = 0.25;
  options.variants_per_kernel = 1;
  const EnergyModel model{CactiModel{}};

  const CharacterizedSuite standard =
      CharacterizedSuite::build(model, options);
  options.include_extended = true;
  const CharacterizedSuite extended =
      CharacterizedSuite::build(model, options);

  EXPECT_EQ(standard.size(), 19u);
  EXPECT_EQ(extended.size(), 27u);
  // The standard prefix characterises identically.
  for (std::size_t i = 0; i < standard.size(); ++i) {
    EXPECT_EQ(standard.benchmark(i).instance.name,
              extended.benchmark(i).instance.name);
    EXPECT_EQ(standard.benchmark(i).best_overall().config,
              extended.benchmark(i).best_overall().config);
  }
  // Every extended benchmark has a full characterisation too.
  for (std::size_t i = standard.size(); i < extended.size(); ++i) {
    EXPECT_EQ(extended.benchmark(i).per_config.size(), 18u);
    EXPECT_GT(extended.benchmark(i).best_overall().energy.total().value(),
              0.0);
  }
}

TEST(ExtendedSuiteTest, MakeSuiteKernelsHonoursOption) {
  SuiteOptions options;
  options.kernel_scale = 0.25;
  EXPECT_EQ(make_suite_kernels(options).size(), 19u);
  options.include_extended = true;
  EXPECT_EQ(make_suite_kernels(options).size(), 27u);
}

}  // namespace
}  // namespace hetsched
