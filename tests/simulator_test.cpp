// Tests for the event-driven multicore simulator and the four scheduler
// policies, driven by a miniature characterised suite.
#include <gtest/gtest.h>

#include <set>

#include "core/policies.hpp"
#include "core/simulator.hpp"
#include "core/tuning_heuristic.hpp"
#include "drained_stream.hpp"
#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

struct Fixture {
  EnergyModel energy{CactiModel{}};
  CharacterizedSuite suite;
  std::vector<JobArrival> arrivals;

  explicit Fixture(std::size_t jobs = 200,
                   double mean_gap = 60000.0) {
    SuiteOptions options;
    options.kernel_scale = 0.25;
    options.variants_per_kernel = 1;
    suite = CharacterizedSuite::build(energy, options);
    ArrivalOptions arrival_options;
    arrival_options.count = jobs;
    arrival_options.mean_interarrival_cycles = mean_gap;
    arrivals = generated_arrivals(suite.scheduling_ids(), arrival_options, 99);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// A fixed-answer predictor for policy tests.
class FixedPredictor final : public SizePredictor {
 public:
  explicit FixedPredictor(std::uint32_t size) : size_(size) {}
  std::uint32_t predict(std::size_t,
                        const ExecutionStatistics&) const override {
    return size_;
  }

 private:
  std::uint32_t size_;
};

TEST(SimulatorTest, BaseSystemCompletesEveryJob) {
  const Fixture& f = fixture();
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_EQ(result.stall_events, 0u);
  EXPECT_EQ(result.profiling_runs, 0u);
  EXPECT_EQ(result.reconfigurations, 0u) << "base never reconfigures";
  EXPECT_GE(result.makespan, f.arrivals.back().arrival);
}

TEST(SimulatorTest, EnergyBucketsArePositiveAndSumToTotal) {
  const Fixture& f = fixture();
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_GT(result.idle_energy.value(), 0.0);
  EXPECT_GT(result.dynamic_energy.value(), 0.0);
  EXPECT_GT(result.busy_static_energy.value(), 0.0);
  EXPECT_GT(result.cpu_energy.value(), 0.0);
  EXPECT_NEAR(result.total_energy().value(),
              result.idle_energy.value() + result.dynamic_energy.value() +
                  result.busy_static_energy.value() +
                  result.cpu_energy.value() +
                  result.reconfig_energy.value(),
              1e-6);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const Fixture& f = fixture();
  auto run_once = [&] {
    OptimalPolicy policy;
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy);
    return sim.run(f.arrivals);
  };
  const SimulationResult a = run_once();
  const SimulationResult b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_energy().value(), b.total_energy().value());
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.tuning_runs, b.tuning_runs);
}

TEST(SimulatorTest, PerCoreUtilizationIsSane) {
  const Fixture& f = fixture();
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  Cycles total_busy = 0;
  for (const CoreUsage& core : result.per_core) {
    EXPECT_GE(core.utilization, 0.0);
    EXPECT_LE(core.utilization, 1.0 + 1e-9);
    total_busy += core.busy_cycles;
  }
  EXPECT_EQ(total_busy, result.total_execution_cycles);
}

TEST(SimulatorTest, CannotRunTwice) {
  const Fixture& f = fixture();
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  sim.run(f.arrivals);
  EXPECT_DEATH(sim.run(f.arrivals), "precondition");
}

TEST(PolicyTest, ProfilingHappensOncePerBenchmarkOnProfilingCores) {
  const Fixture& f = fixture();
  OptimalPolicy policy;
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  // Every distinct benchmark in the stream is profiled exactly once.
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  EXPECT_EQ(result.profiling_runs, distinct.size());
  for (std::size_t id : distinct) {
    EXPECT_TRUE(sim.table().entry(id).profiled);
  }
}

TEST(PolicyTest, OptimalEventuallyExploresEverything) {
  // 700 arrivals of 19 benchmarks: each recurs ~36 times, comfortably
  // beyond the 18 executions the exhaustive search needs.
  const Fixture f(700);
  OptimalPolicy policy;
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  sim.run(f.arrivals);
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  for (std::size_t id : distinct) {
    EXPECT_TRUE(sim.table().entry(id).fully_explored())
        << f.suite.benchmark(id).instance.name;
  }
}

TEST(PolicyTest, EnergyCentricOnlyUsesPredictedCores) {
  const Fixture& f = fixture();
  // Force every job onto the single 2KB core: cores 1..3 must then only
  // ever run profiling executions (which live on cores 2 and 3).
  FixedPredictor predictor(2048);
  EnergyCentricPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_GT(result.stall_events, 0u) << "single best core must cause stalls";
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  // Core 1 (4KB) runs nothing; cores 2/3 only profiling runs.
  EXPECT_EQ(result.per_core[1].executions, 0u);
  EXPECT_EQ(result.per_core[2].executions + result.per_core[3].executions,
            result.profiling_runs);
  EXPECT_EQ(result.per_core[0].executions,
            f.arrivals.size() - result.profiling_runs);
}

TEST(PolicyTest, ProposedCompletesAndTunes) {
  const Fixture& f = fixture();
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_GT(result.tuning_runs, 0u);
  EXPECT_GT(result.reconfigurations, 0u);
  // The heuristic never needs more than 5 executions per size, so no
  // benchmark can have executed more than 5+5+5 (+1 base) configurations.
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  for (std::size_t id : distinct) {
    EXPECT_LE(sim.table().entry(id).observed_count(), 16u);
  }
}

TEST(PolicyTest, ProposedNeverLeavesPredictedJobsUnfinished) {
  // Degenerate single-size predictor exercises the stall path heavily.
  const Fixture& f = fixture();
  FixedPredictor predictor(8192);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
}

TEST(PolicyTest, PolicyNamesAreStable) {
  BasePolicy base;
  OptimalPolicy optimal;
  FixedPredictor predictor(2048);
  EnergyCentricPolicy ec(predictor);
  ProposedPolicy proposed(predictor);
  EXPECT_EQ(base.name(), "base");
  EXPECT_EQ(optimal.name(), "optimal");
  EXPECT_EQ(ec.name(), "energy-centric");
  EXPECT_EQ(proposed.name(), "proposed");
}

TEST(PolicyTest, HeterogeneousSystemsUseLessEnergyThanBase) {
  const Fixture& f = fixture();
  auto total = [&](SchedulerPolicy& policy, const SystemConfig& system) {
    MulticoreSimulator sim(system, f.suite, f.energy, policy);
    return sim.run(f.arrivals).total_energy().value();
  };
  BasePolicy base;
  OptimalPolicy optimal;
  OracleSizePredictor oracle(f.suite);
  ProposedPolicy proposed(oracle);
  const double base_total = total(base, SystemConfig::fixed_base(4));
  EXPECT_LT(total(optimal, SystemConfig::paper_quadcore()), base_total);
  EXPECT_LT(total(proposed, SystemConfig::paper_quadcore()), base_total);
}

TEST(ExecutionKindTest, Names) {
  EXPECT_EQ(to_string(ExecutionKind::kNormal), "normal");
  EXPECT_EQ(to_string(ExecutionKind::kProfiling), "profiling");
  EXPECT_EQ(to_string(ExecutionKind::kTuning), "tuning");
}

}  // namespace
}  // namespace hetsched
