// Tests for src/energy: CACTI-style model monotonicity and the Figure-4
// energy model equations, swept across the Table-1 design space.
#include <gtest/gtest.h>

#include <bit>

#include "energy/energy_model.hpp"

namespace hetsched {
namespace {

TEST(CactiModelTest, TagAndIndexBitsAreConsistent) {
  const CactiModel cacti;
  for (const CacheConfig& config : DesignSpace::all()) {
    const std::uint32_t offset_bits =
        static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
    EXPECT_EQ(cacti.index_bits(config) + cacti.tag_bits(config) + offset_bits,
              32u)
        << config.name();
  }
}

TEST(CactiModelTest, ReadEnergyGrowsWithAssociativity) {
  const CactiModel cacti;
  EXPECT_LT(cacti.read_energy({8192, 1, 32}).value(),
            cacti.read_energy({8192, 2, 32}).value());
  EXPECT_LT(cacti.read_energy({8192, 2, 32}).value(),
            cacti.read_energy({8192, 4, 32}).value());
}

TEST(CactiModelTest, ReadEnergyGrowsWithLineSize) {
  const CactiModel cacti;
  EXPECT_LT(cacti.read_energy({4096, 1, 16}).value(),
            cacti.read_energy({4096, 1, 32}).value());
  EXPECT_LT(cacti.read_energy({4096, 1, 32}).value(),
            cacti.read_energy({4096, 1, 64}).value());
}

TEST(CactiModelTest, BaseConfigNearOneNanojoule) {
  const CactiModel cacti;
  const double base = cacti.read_energy(DesignSpace::base_config()).value();
  EXPECT_GT(base, 0.5);
  EXPECT_LT(base, 2.0);
  const double cheapest = cacti.read_energy({2048, 1, 16}).value();
  EXPECT_GT(base / cheapest, 3.0) << "meaningful spread across the space";
}

TEST(CactiModelTest, WriteCostsMoreThanReadAndFillScalesWithLine) {
  const CactiModel cacti;
  for (const CacheConfig& config : DesignSpace::all()) {
    EXPECT_GT(cacti.write_energy(config).value(),
              cacti.read_energy(config).value() * 0.99);
  }
  EXPECT_LT(cacti.fill_energy({8192, 4, 16}).value(),
            cacti.fill_energy({8192, 4, 64}).value());
}

TEST(EnergyModelTest, MissCyclesFollowFigure4Formula) {
  const EnergyModel model{CactiModel{}};
  const auto& p = model.params();
  for (const CacheConfig& config : DesignSpace::all()) {
    const Cycles beats = config.line_bytes / p.beat_bytes;
    EXPECT_EQ(model.stall_cycles_per_miss(config),
              p.miss_latency + beats * p.bandwidth_cycles_per_beat)
        << config.name();
    EXPECT_EQ(model.miss_cycles(config, 10),
              10 * model.stall_cycles_per_miss(config));
  }
  EXPECT_EQ(model.miss_cycles(DesignSpace::base_config(), 0), 0u);
}

TEST(EnergyModelTest, StaticPerCycleProportionalToSize) {
  const EnergyModel model{CactiModel{}};
  const double per_2kb = model.static_per_cycle({2048, 1, 16}).value();
  const double per_4kb = model.static_per_cycle({4096, 1, 16}).value();
  const double per_8kb = model.static_per_cycle({8192, 1, 16}).value();
  EXPECT_NEAR(per_4kb, 2.0 * per_2kb, 1e-12);
  EXPECT_NEAR(per_8kb, 4.0 * per_2kb, 1e-12);
  // E(per KB) = 10% of base dynamic energy / 8 KB.
  const double expected_8kb =
      model.cacti().read_energy(DesignSpace::base_config()).value() * 0.10;
  EXPECT_NEAR(per_8kb, expected_8kb, 1e-12);
}

TEST(EnergyModelTest, MissEnergyDominatesHitEnergy) {
  const EnergyModel model{CactiModel{}};
  for (const CacheConfig& config : DesignSpace::all()) {
    EXPECT_GT(model.miss_energy(config).value(),
              5.0 * model.hit_energy(config).value())
        << config.name();
  }
}

TEST(EnergyModelTest, IdleRateBelowActiveRate) {
  const EnergyModel model{CactiModel{}};
  for (const CacheConfig& config : DesignSpace::all()) {
    EXPECT_GT(model.idle_per_cycle(config).value(),
              model.static_per_cycle(config).value());
    EXPECT_LT(model.idle_per_cycle(config).value(),
              model.static_per_cycle(config).value() +
                  model.params().core_active_per_cycle.value() +
                  model.params().core_idle_per_cycle.value() + 1e-12);
  }
}

TEST(EnergyModelTest, EvaluateDecomposesPerFigure4) {
  const EnergyModel model{CactiModel{}};
  RawCounters counters;
  counters.loads = 6000;
  counters.stores = 2000;
  counters.int_ops = 10000;
  counters.branches = 2000;
  CacheSimResult sim;
  sim.config = CacheConfig{4096, 2, 32};
  sim.stats.accesses = 8000;
  sim.stats.hits = 7600;
  sim.stats.misses = 400;

  const EnergyBreakdown out = model.evaluate(counters, sim);
  EXPECT_EQ(out.miss_cycles, model.miss_cycles(sim.config, 400));
  EXPECT_EQ(out.total_cycles,
            counters.total_instructions() + out.miss_cycles);
  const double expected_dynamic =
      model.hit_energy(sim.config).value() * 7600 +
      model.miss_energy(sim.config).value() * 400;
  EXPECT_NEAR(out.dynamic_energy.value(), expected_dynamic, 1e-9);
  const double expected_static =
      model.static_per_cycle(sim.config).value() *
      static_cast<double>(out.total_cycles);
  EXPECT_NEAR(out.static_energy.value(), expected_static, 1e-6);
  EXPECT_NEAR(out.total().value(),
              out.static_energy.value() + out.dynamic_energy.value() +
                  out.cpu_energy.value(),
              1e-9);
}

TEST(EnergyModelTest, WritebackTermIsOptIn) {
  RawCounters counters;
  counters.loads = 1000;
  CacheSimResult sim;
  sim.config = DesignSpace::base_config();
  sim.stats.accesses = 1000;
  sim.stats.hits = 900;
  sim.stats.misses = 100;
  sim.stats.writebacks = 50;

  const EnergyModel fig4{CactiModel{}};
  EnergyModelParams extended_params;
  extended_params.include_writebacks = true;
  const EnergyModel extended{CactiModel{}, extended_params};

  const double without = fig4.evaluate(counters, sim).dynamic_energy.value();
  const double with =
      extended.evaluate(counters, sim).dynamic_energy.value();
  EXPECT_NEAR(with - without,
              extended.writeback_energy(sim.config).value() * 50, 1e-9);
}

TEST(EnergyModelTest, ZeroMissesMeansNoStallCyclesOrMissEnergy) {
  const EnergyModel model{CactiModel{}};
  RawCounters counters;
  counters.loads = 500;
  counters.int_ops = 500;
  CacheSimResult sim;
  sim.config = CacheConfig{2048, 1, 16};
  sim.stats.accesses = 500;
  sim.stats.hits = 500;
  const EnergyBreakdown out = model.evaluate(counters, sim);
  EXPECT_EQ(out.miss_cycles, 0u);
  EXPECT_EQ(out.total_cycles, counters.total_instructions());
  EXPECT_NEAR(out.dynamic_energy.value(),
              model.hit_energy(sim.config).value() * 500, 1e-9);
}

TEST(EnergyModelTest, CpiScalesInstructionCycles) {
  EnergyModelParams params;
  params.base_cpi = 1.5;
  const EnergyModel model{CactiModel{}, params};
  RawCounters counters;
  counters.int_ops = 1000;
  CacheSimResult sim;
  sim.config = DesignSpace::base_config();
  const EnergyBreakdown out = model.evaluate(counters, sim);
  EXPECT_EQ(out.total_cycles, 1500u);
}

// Property sweep: bigger caches cost more static power per cycle, and the
// energy of a fixed workload is strictly positive in every configuration.
class EnergySweep : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(EnergySweep, AllQuantitiesPositive) {
  const EnergyModel model{CactiModel{}};
  const CacheConfig& config = GetParam();
  EXPECT_GT(model.hit_energy(config).value(), 0.0);
  EXPECT_GT(model.miss_energy(config).value(), 0.0);
  EXPECT_GT(model.static_per_cycle(config).value(), 0.0);
  EXPECT_GT(model.idle_per_cycle(config).value(), 0.0);
  EXPECT_GT(model.writeback_energy(config).value(), 0.0);
  EXPECT_GT(model.stall_cycles_per_miss(config), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, EnergySweep, ::testing::ValuesIn(DesignSpace::all()),
    [](const ::testing::TestParamInfo<CacheConfig>& param_info) {
      return param_info.param.name();
    });

}  // namespace
}  // namespace hetsched
