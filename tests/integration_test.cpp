// End-to-end integration tests: the full Experiment pipeline at reduced
// scale — characterisation → ANN training → four-system simulation —
// checking the cross-module contracts the benches rely on.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

const Experiment& quick_experiment() {
  static const Experiment experiment{ExperimentOptions::quick()};
  return experiment;
}

TEST(ExperimentTest, PipelineProducesTrainedPredictor) {
  const Experiment& e = quick_experiment();
  const PredictorReport& report = e.predictor().report();
  EXPECT_GT(report.dataset_rows, 0u);
  EXPECT_EQ(report.selected_features, 10u);
  EXPECT_GT(report.train_rows, report.validation_rows);
  // A usable predictor: comfortably better than the 1/3 random baseline
  // even at quick-test scale.
  EXPECT_GT(report.train_accuracy, 0.7);
}

// The arrivals a run admits.
class ArrivalRecorder final : public ScheduleObserver {
 public:
  void on_slice(const ScheduledSlice& slice) override { (void)slice; }
  void on_arrival(const ArrivalEvent& event) override {
    arrivals.push_back(event);
  }

  std::vector<ArrivalEvent> arrivals;
};

TEST(ExperimentTest, ArrivalStreamUsesSchedulingIdsOnly) {
  const Experiment& e = quick_experiment();
  ArrivalRecorder recorder;
  e.run("base", &recorder);
  std::set<std::size_t> ids(e.scheduling_ids().begin(),
                            e.scheduling_ids().end());
  for (const ArrivalEvent& a : recorder.arrivals) {
    EXPECT_TRUE(ids.count(a.benchmark_id));
  }
  EXPECT_EQ(recorder.arrivals.size(), e.options().scenario.arrivals.count);
}

TEST(ExperimentTest, AllFourSystemsCompleteTheStream) {
  const Experiment& e = quick_experiment();
  for (const SystemRun& run :
       {e.run("base"), e.run("optimal"), e.run("energy-centric"),
        e.run("proposed")}) {
    EXPECT_EQ(run.result.completed_jobs, e.options().scenario.arrivals.count)
        << run.name;
    EXPECT_GT(run.result.total_energy().value(), 0.0) << run.name;
    EXPECT_GT(run.result.makespan, 0u) << run.name;
  }
}

TEST(ExperimentTest, SystemCharacters) {
  const Experiment& e = quick_experiment();
  const SystemRun base = e.run("base");
  const SystemRun optimal = e.run("optimal");
  const SystemRun ec = e.run("energy-centric");
  const SystemRun proposed = e.run("proposed");

  // Base: homogeneous, no learning machinery.
  EXPECT_EQ(base.result.profiling_runs, 0u);
  EXPECT_EQ(base.result.tuning_runs, 0u);
  // Optimal: exhaustive exploration, never stalls after profiling...
  EXPECT_GT(optimal.result.tuning_runs, ec.result.tuning_runs);
  // ...while the energy-centric system stalls the most.
  EXPECT_GT(ec.result.stall_events, proposed.result.stall_events);
  // Proposed explores fewer configurations than optimal.
  for (std::size_t i = 0; i < proposed.explored_configs.size(); ++i) {
    EXPECT_LE(proposed.explored_configs[i], optimal.explored_configs[i]);
  }
  // Heterogeneous predictive scheduling beats the fixed base system.
  EXPECT_LT(proposed.result.total_energy().value(),
            base.result.total_energy().value());
}

TEST(ExperimentTest, NormalizeComputesRatios) {
  const Experiment& e = quick_experiment();
  const SystemRun base = e.run("base");
  const NormalizedEnergy self = normalize(base.result, base.result);
  EXPECT_DOUBLE_EQ(self.idle, 1.0);
  EXPECT_DOUBLE_EQ(self.dynamic, 1.0);
  EXPECT_DOUBLE_EQ(self.total, 1.0);
  EXPECT_DOUBLE_EQ(self.cycles, 1.0);
  EXPECT_DOUBLE_EQ(self.makespan, 1.0);
}

TEST(ExperimentTest, IdenticalOptionsReproduceBitIdenticalResults) {
  const ExperimentOptions options = ExperimentOptions::quick();
  const Experiment a(options);
  const Experiment b(options);
  const SimulationResult ra = a.run("proposed").result;
  const SimulationResult rb = b.run("proposed").result;
  EXPECT_DOUBLE_EQ(ra.total_energy().value(), rb.total_energy().value());
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.stall_events, rb.stall_events);
  EXPECT_EQ(ra.total_execution_cycles, rb.total_execution_cycles);
}

TEST(ExperimentTest, DifferentSeedsChangeTheStream) {
  ExperimentOptions options = ExperimentOptions::quick();
  const Experiment a(options);
  options.scenario.seed = 777;
  const Experiment b(options);
  ArrivalRecorder ra;
  ArrivalRecorder rb;
  a.run("base", &ra);
  b.run("base", &rb);
  ASSERT_FALSE(ra.arrivals.empty());
  ASSERT_FALSE(rb.arrivals.empty());
  EXPECT_NE(ra.arrivals.front().time, rb.arrivals.front().time);
}

TEST(ExperimentTest, OraclePredictorMatchesCharacterisation) {
  const Experiment& e = quick_experiment();
  const OracleSizePredictor oracle(e.suite());
  for (std::size_t id : e.scheduling_ids()) {
    const BenchmarkProfile& b = e.suite().benchmark(id);
    EXPECT_EQ(oracle.predict(id, b.base_statistics),
              b.oracle_best_size());
  }
}

TEST(ExperimentTest, RunWithCustomPredictorUsesGivenName) {
  const Experiment& e = quick_experiment();
  const OracleSizePredictor oracle(e.suite());
  ProposedPolicy proposed(oracle);
  const SystemRun run = e.run(proposed, "proposed+oracle");
  EXPECT_EQ(run.name, "proposed+oracle");
  EXPECT_EQ(run.result.completed_jobs, e.options().scenario.arrivals.count);
  EnergyCentricPolicy energy_centric(oracle);
  const SystemRun ec = e.run(energy_centric, "ec+oracle");
  EXPECT_EQ(ec.name, "ec+oracle");
}

std::string result_text(const SimulationResult& result) {
  std::ostringstream out;
  save_simulation_result(out, result);
  return out.str();
}

// The scenario the quick experiment runs for `policy`, spelled out
// directly rather than derived from the experiment's options.
Scenario quick_scenario(const std::string& policy) {
  Scenario s;
  s.policy = policy;
  s.system = policy == "base" ? Scenario::SystemKind::kFixedBase
                              : Scenario::SystemKind::kPaperQuad;
  s.cores = 4;
  s.seed = 42;
  s.arrivals.count = 300;
  s.arrivals.mean_interarrival_cycles = 60000.0;
  s.suite.kernel_scale = 0.25;
  s.suite.variants_per_kernel = 2;
  s.predictor_ensemble = 5;
  s.predictor_max_epochs = 120;
  return s;
}

// Experiment runs are scenario runs: every Section-V system matches
// run_scenario on the same scenario, under a context built from that
// scenario alone.
TEST(ExperimentTest, RunsMatchTheEquivalentScenario) {
  const Experiment& e = quick_experiment();
  const ScenarioContext context(quick_scenario("proposed"));
  for (const std::string policy :
       {"base", "optimal", "energy-centric", "proposed"}) {
    const SystemRun run = e.run(policy);
    EXPECT_EQ(run.name, policy);
    EXPECT_EQ(result_text(run.result),
              result_text(run_scenario(quick_scenario(policy), context).result))
        << policy;
  }
}

// A caller-owned policy runs on the same machine and stream as the
// registry policy of the same kind.
TEST(ExperimentTest, CallerOwnedPolicyMatchesTheRegistryPolicy) {
  const Experiment& e = quick_experiment();
  ProposedPolicy policy(e.predictor());
  const SystemRun custom = e.run(policy, "x");
  const SystemRun registry = e.run("proposed");
  EXPECT_EQ(custom.name, "x");
  EXPECT_EQ(result_text(custom.result), result_text(registry.result));
  EXPECT_EQ(custom.explored_configs, registry.explored_configs);
}

TEST(ExperimentTest, ProfilingOverheadStaysSmall) {
  const Experiment& e = quick_experiment();
  const SystemRun proposed = e.run("proposed");
  const double share = proposed.result.profiling_energy.value() /
                       proposed.result.total_energy().value();
  EXPECT_LT(share, 0.05) << "profiling overhead must stay marginal";
}

TEST(ExperimentTest, ExploredConfigsNeverExceedDesignSpace) {
  const Experiment& e = quick_experiment();
  for (const SystemRun& run : {e.run("optimal"), e.run("proposed")}) {
    for (std::size_t count : run.explored_configs) {
      EXPECT_LE(count, 18u);
    }
  }
}

}  // namespace
}  // namespace hetsched
