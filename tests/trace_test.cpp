// Tests for src/trace: instrumented execution context, counters, and the
// synthetic kernel suite (parameterised over every kernel).
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "trace/execution_context.hpp"
#include "trace/kernel.hpp"

namespace hetsched {
namespace {

TEST(ExecutionContextTest, AllocationsAre64ByteAlignedAndDisjoint) {
  ExecutionContext ctx(1);
  auto a = ctx.alloc<std::uint32_t>(10);
  auto b = ctx.alloc<std::uint8_t>(3);
  auto c = ctx.alloc<double>(4);
  EXPECT_EQ(a.base_address() % 64, 0u);
  EXPECT_EQ(b.base_address() % 64, 0u);
  EXPECT_EQ(c.base_address() % 64, 0u);
  EXPECT_GE(b.base_address(), a.base_address() + 40);
  EXPECT_GE(c.base_address(), b.base_address() + 3);
}

TEST(ExecutionContextTest, LoadRecordsAddressSizeAndCount) {
  ExecutionContext ctx(1);
  auto a = ctx.alloc<std::uint32_t>(8);
  a.poke(3, 77);
  EXPECT_EQ(a.load(3), 77u);
  ASSERT_EQ(ctx.trace().size(), 1u);
  const MemRef& ref = ctx.trace().front();
  EXPECT_EQ(ref.address, a.base_address() + 12);
  EXPECT_EQ(ref.size, 4);
  EXPECT_FALSE(ref.is_write);
  EXPECT_EQ(ctx.counters().loads, 1u);
  EXPECT_EQ(ctx.counters().stores, 0u);
}

TEST(ExecutionContextTest, StoreRecordsWriteAndUpdatesValue) {
  ExecutionContext ctx(1);
  auto a = ctx.alloc<std::uint16_t>(4);
  a.store(2, 99);
  EXPECT_EQ(a.peek(2), 99);
  ASSERT_EQ(ctx.trace().size(), 1u);
  EXPECT_TRUE(ctx.trace().front().is_write);
  EXPECT_EQ(ctx.trace().front().size, 2);
  EXPECT_EQ(ctx.counters().stores, 1u);
}

TEST(ExecutionContextTest, PokeAndPeekAreUntraced) {
  ExecutionContext ctx(1);
  auto a = ctx.alloc<int>(4);
  a.poke(0, 5);
  EXPECT_EQ(a.peek(0), 5);
  EXPECT_TRUE(ctx.trace().empty());
  EXPECT_EQ(ctx.counters().memory_refs(), 0u);
}

TEST(ExecutionContextTest, BranchCountingTracksTaken) {
  ExecutionContext ctx(1);
  EXPECT_TRUE(ctx.branch(true));
  EXPECT_FALSE(ctx.branch(false));
  EXPECT_TRUE(ctx.branch(true));
  EXPECT_EQ(ctx.counters().branches, 3u);
  EXPECT_EQ(ctx.counters().taken_branches, 2u);
}

TEST(ExecutionContextTest, OpCountsAccumulate) {
  ExecutionContext ctx(1);
  ctx.int_op();
  ctx.int_op(4);
  ctx.fp_op(2);
  EXPECT_EQ(ctx.counters().int_ops, 5u);
  EXPECT_EQ(ctx.counters().fp_ops, 2u);
  EXPECT_EQ(ctx.counters().total_instructions(), 7u);
}

TEST(ExecutionContextTest, TotalInstructionsSumsAllClasses) {
  ExecutionContext ctx(1);
  auto a = ctx.alloc<int>(2);
  a.store(0, 1);
  (void)a.load(0);
  ctx.branch(true);
  ctx.int_op(3);
  ctx.fp_op(2);
  EXPECT_EQ(ctx.counters().total_instructions(), 1u + 1u + 1u + 3u + 2u);
}

TEST(KernelSuiteTest, StandardSuiteHasExpectedShape) {
  const auto kernels = make_standard_kernels();
  EXPECT_EQ(kernels.size(), 19u);
  std::set<std::string> names;
  std::set<Domain> domains;
  for (const auto& k : kernels) {
    names.insert(k->name());
    domains.insert(k->domain());
  }
  EXPECT_EQ(names.size(), kernels.size()) << "kernel names must be unique";
  EXPECT_EQ(domains.size(), 5u) << "all five EEMBC-style domains present";
}

TEST(KernelSuiteTest, DomainNamesRoundTrip) {
  EXPECT_EQ(to_string(Domain::kAutomotive), "automotive");
  EXPECT_EQ(to_string(Domain::kTelecom), "telecom");
  EXPECT_EQ(to_string(Domain::kOffice), "office");
  EXPECT_EQ(to_string(Domain::kConsumer), "consumer");
  EXPECT_EQ(to_string(Domain::kNetworking), "networking");
}

// ---- Parameterised over every kernel in the suite ----

class KernelParamTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<std::unique_ptr<Kernel>>& kernels() {
    static const auto k = make_standard_kernels(0.5);
    return k;
  }
  const Kernel& kernel() const { return *kernels()[GetParam()]; }
};

TEST_P(KernelParamTest, ProducesNonTrivialTrace) {
  const KernelExecution exec = execute(kernel(), 42);
  EXPECT_GT(exec.trace.size(), 100u) << kernel().name();
  EXPECT_GT(exec.footprint_bytes, 0u);
  EXPECT_GT(exec.counters.total_instructions(), exec.trace.size());
}

TEST_P(KernelParamTest, TraceMatchesCounters) {
  const KernelExecution exec = execute(kernel(), 42);
  std::uint64_t loads = 0, stores = 0;
  for (const MemRef& ref : exec.trace) {
    (ref.is_write ? stores : loads)++;
  }
  EXPECT_EQ(loads, exec.counters.loads);
  EXPECT_EQ(stores, exec.counters.stores);
}

TEST_P(KernelParamTest, AddressesStayInsideFootprint) {
  const KernelExecution exec = execute(kernel(), 42);
  for (const MemRef& ref : exec.trace) {
    ASSERT_GE(ref.address, 0x1000u);
    ASSERT_LE(ref.address + ref.size, 0x1000u + exec.footprint_bytes)
        << kernel().name();
  }
}

TEST_P(KernelParamTest, DeterministicForSameSeed) {
  const KernelExecution a = execute(kernel(), 7);
  const KernelExecution b = execute(kernel(), 7);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.counters.total_instructions(),
            b.counters.total_instructions());
}

TEST(KernelSuiteTest, SuiteContainsDataDependentKernels) {
  // Regular kernels (FIR, matmul, FFT, ...) legitimately have
  // data-independent address streams; but a healthy suite must also
  // contain kernels whose traces or branch behaviour react to their
  // input data (table walks, histograms, dithering, parsing, ...).
  const auto kernels = make_standard_kernels(0.5);
  std::size_t data_dependent = 0;
  for (const auto& kernel : kernels) {
    const KernelExecution a = execute(*kernel, 1);
    const KernelExecution b = execute(*kernel, 2);
    if (a.trace != b.trace ||
        a.counters.taken_branches != b.counters.taken_branches) {
      ++data_dependent;
    }
  }
  EXPECT_GE(data_dependent, 8u);
}

TEST_P(KernelParamTest, TakenBranchesNeverExceedBranches) {
  const KernelExecution exec = execute(kernel(), 42);
  EXPECT_LE(exec.counters.taken_branches, exec.counters.branches);
}

TEST_P(KernelParamTest, ScaleChangesWork) {
  const auto small_kernels = make_standard_kernels(0.25);
  const auto big_kernels = make_standard_kernels(1.0);
  const KernelExecution small =
      execute(*small_kernels[GetParam()], 42);
  const KernelExecution big = execute(*big_kernels[GetParam()], 42);
  EXPECT_LT(small.trace.size(), big.trace.size()) << kernel().name();
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelParamTest,
    ::testing::Range<std::size_t>(0, 19),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      static const auto kernels = make_standard_kernels(0.5);
      return kernels[param_info.param]->name();
    });

}  // namespace
}  // namespace hetsched
