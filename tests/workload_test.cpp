// Tests for src/workload: suite characterisation, execution-statistics
// derivation, arrival generation, and ANN dataset assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "drained_stream.hpp"
#include "util/stats.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterization.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {
namespace {

// One shared miniature suite for the whole file (characterisation is the
// expensive step).
const CharacterizedSuite& quick_suite() {
  static const CharacterizedSuite suite = [] {
    SuiteOptions options;
    options.kernel_scale = 0.25;
    options.variants_per_kernel = 2;
    return CharacterizedSuite::build(EnergyModel{CactiModel{}}, options);
  }();
  return suite;
}

TEST(CharacterizationTest, SuiteShape) {
  const CharacterizedSuite& suite = quick_suite();
  EXPECT_EQ(suite.size(), 19u * 2u);
  EXPECT_EQ(suite.scheduling_ids().size(), 19u);
  EXPECT_EQ(suite.training_ids().size(), 19u);
  // Scheduling and training ids partition the suite.
  std::set<std::size_t> all;
  for (auto id : suite.scheduling_ids()) all.insert(id);
  for (auto id : suite.training_ids()) all.insert(id);
  EXPECT_EQ(all.size(), suite.size());
}

TEST(CharacterizationTest, EveryBenchmarkCoversTheFullDesignSpace) {
  for (const BenchmarkProfile& b : quick_suite().all()) {
    ASSERT_EQ(b.per_config.size(), 18u) << b.instance.name;
    for (std::size_t i = 0; i < 18; ++i) {
      EXPECT_EQ(b.per_config[i].config, DesignSpace::all()[i]);
      EXPECT_GT(b.per_config[i].energy.total().value(), 0.0);
      EXPECT_GT(b.per_config[i].energy.total_cycles, 0u);
      EXPECT_EQ(b.per_config[i].cache.hits + b.per_config[i].cache.misses,
                b.per_config[i].cache.accesses);
    }
  }
}

TEST(CharacterizationTest, ProfileForLooksUpByConfig) {
  const BenchmarkProfile& b = quick_suite().benchmark(0);
  const CacheConfig config{4096, 2, 32};
  EXPECT_EQ(b.profile_for(config).config, config);
}

TEST(CharacterizationTest, BestOverallIsTheMinimum) {
  for (const BenchmarkProfile& b : quick_suite().all()) {
    const ConfigProfile& best = b.best_overall();
    for (const ConfigProfile& cp : b.per_config) {
      EXPECT_LE(best.energy.total().value(), cp.energy.total().value());
    }
    EXPECT_EQ(b.oracle_best_size(), best.config.size_bytes);
  }
}

TEST(CharacterizationTest, BestForSizeStaysInSize) {
  for (const BenchmarkProfile& b : quick_suite().all()) {
    for (std::uint32_t size : DesignSpace::sizes()) {
      const ConfigProfile& best = b.best_for_size(size);
      EXPECT_EQ(best.config.size_bytes, size);
      for (const ConfigProfile& cp : b.per_config) {
        if (cp.config.size_bytes == size) {
          EXPECT_LE(best.energy.total().value(), cp.energy.total().value());
        }
      }
    }
  }
}

TEST(CharacterizationTest, BaseStatisticsAreConsistent) {
  for (const BenchmarkProfile& b : quick_suite().all()) {
    const ExecutionStatistics& s = b.base_statistics;
    EXPECT_DOUBLE_EQ(s.total_instructions,
                     static_cast<double>(b.counters.total_instructions()));
    EXPECT_GT(s.l1_accesses, 0.0);
    EXPECT_GE(s.l1_misses, s.compulsory_misses > 0 ? 1.0 : 0.0);
    EXPECT_GE(s.l1_miss_rate, 0.0);
    EXPECT_LE(s.l1_miss_rate, 1.0);
    EXPECT_GT(s.working_set_bytes, 0.0);
    EXPECT_LE(s.working_set_bytes, b.footprint_bytes);
    EXPECT_GE(s.load_fraction, 0.0);
    EXPECT_LE(s.load_fraction, 1.0);
    EXPECT_LE(s.mem_intensity, 1.0);
    EXPECT_LE(s.branch_fraction, 1.0);
    // The 18-vector round trip.
    const auto vec = s.to_vector();
    EXPECT_EQ(vec.size(), kNumExecutionStatistics);
    EXPECT_DOUBLE_EQ(vec[0], s.total_instructions);
    EXPECT_DOUBLE_EQ(vec[17], s.branch_fraction);
  }
}

TEST(CharacterizationTest, DeterministicRebuild) {
  SuiteOptions options;
  options.kernel_scale = 0.25;
  options.variants_per_kernel = 1;
  const EnergyModel model{CactiModel{}};
  const CharacterizedSuite a = CharacterizedSuite::build(model, options);
  const CharacterizedSuite b = CharacterizedSuite::build(model, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.benchmark(i).best_overall().energy.total().value(),
              b.benchmark(i).best_overall().energy.total().value());
  }
}

TEST(StatisticsTest, ComputeStatisticsDerivesRatios) {
  RawCounters counters;
  counters.loads = 60;
  counters.stores = 40;
  counters.branches = 50;
  counters.taken_branches = 30;
  counters.int_ops = 300;
  counters.fp_ops = 50;
  CacheSimResult sim;
  sim.config = DesignSpace::base_config();
  sim.stats.accesses = 100;
  sim.stats.hits = 90;
  sim.stats.misses = 10;
  sim.stats.compulsory_misses = 8;
  EnergyBreakdown energy;
  energy.total_cycles = 2000;
  MemTrace trace{{0x1000, 4, false}, {0x1004, 4, true}, {0x1000, 4, false}};

  const ExecutionStatistics s =
      compute_statistics(counters, sim, energy, trace);
  EXPECT_DOUBLE_EQ(s.total_instructions, 500.0);
  EXPECT_DOUBLE_EQ(s.cycles, 2000.0);
  EXPECT_DOUBLE_EQ(s.load_fraction, 0.6);
  EXPECT_DOUBLE_EQ(s.mem_intensity, 100.0 / 500.0);
  EXPECT_DOUBLE_EQ(s.compute_intensity, 350.0 / 500.0);
  EXPECT_DOUBLE_EQ(s.branch_fraction, 50.0 / 500.0);
  EXPECT_DOUBLE_EQ(s.l1_miss_rate, 0.1);
  EXPECT_DOUBLE_EQ(s.working_set_bytes, 8.0);  // two distinct words
}

TEST(ArrivalsTest, CountAndSortedness) {
  ArrivalOptions options;
  options.count = 500;
  const auto arrivals = generated_arrivals({0, 1, 2}, options, 1);
  ASSERT_EQ(arrivals.size(), 500u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].arrival, arrivals[i].arrival);
  }
  for (const JobArrival& a : arrivals) {
    EXPECT_LT(a.benchmark_id, 3u);
  }
}

TEST(ArrivalsTest, UniformMeanGapIsRespected) {
  ArrivalOptions options;
  options.count = 20000;
  options.mean_interarrival_cycles = 1000.0;
  const auto arrivals = generated_arrivals({0}, options, 2);
  const double mean_gap = static_cast<double>(arrivals.back().arrival) /
                          static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean_gap, 1000.0, 25.0);
}

TEST(ArrivalsTest, FixedDistributionIsExactlyPeriodic) {
  ArrivalOptions options;
  options.count = 10;
  options.mean_interarrival_cycles = 100.0;
  options.distribution = InterarrivalDistribution::kFixed;
  const auto arrivals = generated_arrivals({0}, options, 3);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].arrival, (i + 1) * 100);
  }
}

TEST(ArrivalsTest, ExponentialMeanGap) {
  ArrivalOptions options;
  options.count = 20000;
  options.mean_interarrival_cycles = 500.0;
  options.distribution = InterarrivalDistribution::kExponential;
  const auto arrivals = generated_arrivals({0}, options, 4);
  const double mean_gap = static_cast<double>(arrivals.back().arrival) /
                          static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean_gap, 500.0, 15.0);
}

TEST(ArrivalsTest, AllBenchmarksGetSampled) {
  ArrivalOptions options;
  options.count = 2000;
  const std::vector<std::size_t> ids{3, 7, 11, 15};
  const auto arrivals = generated_arrivals(ids, options, 5);
  std::set<std::size_t> seen;
  for (const JobArrival& a : arrivals) seen.insert(a.benchmark_id);
  EXPECT_EQ(seen.size(), ids.size());
}

TEST(ArrivalsTest, BurstinessPreservesLongRunMeanButClustersArrivals) {
  ArrivalOptions smooth;
  smooth.count = 30000;
  smooth.mean_interarrival_cycles = 1000.0;
  ArrivalOptions bursty = smooth;
  bursty.burstiness = 6.0;
  bursty.phase_switch = 0.05;

  const auto a = generated_arrivals({0}, smooth, 7);
  const auto b = generated_arrivals({0}, bursty, 7);
  const double mean_a = static_cast<double>(a.back().arrival) /
                        static_cast<double>(a.size());
  const double mean_b = static_cast<double>(b.back().arrival) /
                        static_cast<double>(b.size());
  // Long-run mean preserved within a few percent...
  EXPECT_NEAR(mean_b, mean_a, 0.15 * mean_a);
  // ...but gap variance is much larger (clustering).
  auto gap_variance = [](const std::vector<JobArrival>& arrivals) {
    RunningStats s;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      s.add(static_cast<double>(arrivals[i].arrival -
                                arrivals[i - 1].arrival));
    }
    return s.variance();
  };
  EXPECT_GT(gap_variance(b), 3.0 * gap_variance(a));
}

TEST(ArrivalsTest, BurstinessOneIsIdentityBehaviour) {
  ArrivalOptions options;
  options.count = 100;
  options.burstiness = 1.0;
  const auto plain = generated_arrivals({0}, options, 8);
  options.phase_switch = 0.9;  // irrelevant when burstiness == 1
  const auto again = generated_arrivals({0}, options, 8);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].arrival, again[i].arrival);
  }
}

TEST(ArrivalsTest, DeterministicForSameSeed) {
  ArrivalOptions options;
  options.count = 100;
  const auto x = generated_arrivals({0, 1}, options, 6);
  const auto y = generated_arrivals({0, 1}, options, 6);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].arrival, y[i].arrival);
    EXPECT_EQ(x[i].benchmark_id, y[i].benchmark_id);
  }
}

TEST(DatasetBuilderTest, SizeTargetEncodingRoundTrips) {
  EXPECT_DOUBLE_EQ(size_to_target(2048), 1.0);
  EXPECT_DOUBLE_EQ(size_to_target(4096), 2.0);
  EXPECT_DOUBLE_EQ(size_to_target(8192), 3.0);
  EXPECT_EQ(target_to_size(1.0), 2048u);
  EXPECT_EQ(target_to_size(2.4), 4096u);
  EXPECT_EQ(target_to_size(2.6), 8192u);
  EXPECT_EQ(target_to_size(-3.0), 2048u) << "clamped below";
  EXPECT_EQ(target_to_size(9.0), 8192u) << "clamped above";
  EXPECT_EQ(size_target_classes().size(), 3u);
}

TEST(DatasetBuilderTest, TransformCompressesCountsOnly) {
  EXPECT_DOUBLE_EQ(transform_statistic(0, 0.0), 0.0);
  EXPECT_NEAR(transform_statistic(0, 1e6), std::log1p(1e6), 1e-12);
  // Ratio columns (>= 14) pass through.
  EXPECT_DOUBLE_EQ(transform_statistic(14, 0.75), 0.75);
  EXPECT_DOUBLE_EQ(transform_statistic(17, 0.1), 0.1);
}

TEST(DatasetBuilderTest, BuildsRowsWithGroupsAndValidTargets) {
  const CharacterizedSuite& suite = quick_suite();
  const Dataset data = build_ann_dataset(suite, suite.training_ids());
  EXPECT_EQ(data.size(), suite.training_ids().size());
  EXPECT_EQ(data.feature_count(), kNumExecutionStatistics);
  EXPECT_EQ(data.groups.size(), data.size());
  for (std::size_t r = 0; r < data.size(); ++r) {
    const double t = data.targets.at(r, 0);
    EXPECT_TRUE(t == 1.0 || t == 2.0 || t == 3.0);
  }
  // Empty id list means "everything".
  const Dataset all = build_ann_dataset(suite, {});
  EXPECT_EQ(all.size(), suite.size());
}

}  // namespace
}  // namespace hetsched
