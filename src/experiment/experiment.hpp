// End-to-end experiment harness (Section V): one characterised suite, one
// trained ANN predictor and one arrival stream, over which the four
// evaluated systems (and any other policy) run. The paper benches and
// examples build on this class; it is a thin layer over the scenario
// pipeline (ScenarioContext + ScenarioRun) that the CLI runs.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "scenario/scenario_runner.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {

struct ExperimentOptions {
  // The workload every run shares: suite shape, arrival stream, seed,
  // core count and predictor budget. Each run sets the policy and picks
  // the Section-V machine for it (Scenario::use_standard_machine): 4
  // cores (the default) reproduce the paper machines exactly.
  Scenario scenario{};
  EnergyModelParams energy_params{};
  // When non-empty, characterisation is served from this snapshot file
  // when it is present and keyed to (suite, energy_params); otherwise it
  // is built and the file refreshed (workload/profile_cache.hpp).
  std::string profile_cache_path;

  // Scaled-down preset for unit/integration tests: smaller kernels, fewer
  // arrivals, lighter ANN training.
  static ExperimentOptions quick();
};

// Oracle predictor for ablations: answers with the characterised best
// size (what a perfect ANN would say).
class OracleSizePredictor final : public SizePredictor {
 public:
  explicit OracleSizePredictor(const CharacterizedSuite& suite)
      : suite_(&suite) {}

  std::uint32_t predict(std::size_t benchmark_id,
                        const ExecutionStatistics& stats) const override {
    (void)stats;
    return suite_->benchmark(benchmark_id).oracle_best_size();
  }

 private:
  const CharacterizedSuite* suite_;
};

struct SystemRun {
  std::string name;
  SimulationResult result;
  // Per scheduled benchmark: configurations observed by the end of the run
  // (the tuning-footprint data behind the Figure-5 discussion).
  std::vector<std::size_t> explored_configs;
};

// Ratios relative to a reference system (Figures 6 and 7 are built from
// these).
struct NormalizedEnergy {
  double idle = 1.0;
  double dynamic = 1.0;
  double total = 1.0;
  double cycles = 1.0;    // total execution cycles (work)
  double makespan = 1.0;  // completion time of the last job
};

NormalizedEnergy normalize(const SimulationResult& system,
                           const SimulationResult& reference);

class Experiment {
 public:
  // Builds the suite and trains the predictor once (a ScenarioContext
  // for the options' scenario under the proposed policy).
  explicit Experiment(const ExperimentOptions& options = {});

  const ExperimentOptions& options() const { return options_; }
  const EnergyModel& energy() const { return context_.energy(); }
  const CharacterizedSuite& suite() const { return context_.suite(); }
  // The ANN the context trained (its scenario's policy needs one).
  const BestSizePredictor& predictor() const {
    return static_cast<const BestSizePredictor&>(*context_.predictor());
  }
  const std::vector<std::size_t>& scheduling_ids() const {
    return context_.scheduling_ids();
  }

  // Runs the registry policy `policy` (base, optimal, energy-centric,
  // proposed, ...) over the shared stream on a fresh Section-V machine:
  // fixed-base cores for base, the reconfigurable machine otherwise. An
  // optional observer (ScheduleLog, EventTracer) receives that run's
  // schedule events. The run is named after the policy.
  SystemRun run(const std::string& policy,
                ScheduleObserver* observer = nullptr) const;
  // The same run for a policy outside the registry (an oracle-predictor
  // ablation, a custom example policy) on the reconfigurable machine.
  SystemRun run(SchedulerPolicy& policy, std::string name) const;

  // The four Section-V systems, fanned out over the shared thread pool.
  // The runs are independent (fresh simulator and policy each, read-only
  // context), so the results are identical to four serial run() calls.
  struct StandardRuns {
    SystemRun base;
    SystemRun optimal;
    SystemRun energy_centric;
    SystemRun proposed;
  };
  // One optional observer per system, in StandardRuns order; each
  // receives only its own run's events (on that run's simulation thread),
  // so per-run recorders need no synchronisation and their contents are
  // thread-count independent.
  StandardRuns run_standard_systems(
      const std::array<ScheduleObserver*, 4>& observers = {}) const;

 private:
  ExperimentOptions options_;
  ScenarioContext context_;
};

}  // namespace hetsched
