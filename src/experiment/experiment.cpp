#include "experiment/experiment.hpp"

#include <limits>

#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

// The options' scenario under `policy`, on that policy's Section-V
// machine.
Scenario standard_scenario(Scenario scenario, std::string policy) {
  scenario.policy = std::move(policy);
  scenario.use_standard_machine(scenario.cores);
  return scenario;
}

SystemRun run_to_end(ScenarioRun& run, std::string name,
                     const std::vector<std::size_t>& scheduling_ids) {
  run.start();
  run.advance_until(std::numeric_limits<SimTime>::max());
  SystemRun out{std::move(name), run.finish(), {}};
  for (std::size_t id : scheduling_ids) {
    out.explored_configs.push_back(
        run.simulator().table().entry(id).observed_count());
  }
  return out;
}

}  // namespace

ExperimentOptions ExperimentOptions::quick() {
  ExperimentOptions opts;
  opts.scenario.suite.kernel_scale = 0.25;
  opts.scenario.suite.variants_per_kernel = 2;
  opts.scenario.arrivals.count = 300;
  opts.scenario.arrivals.mean_interarrival_cycles = 60000.0;
  opts.scenario.predictor_ensemble = 5;
  opts.scenario.predictor_max_epochs = 120;
  return opts;
}

NormalizedEnergy normalize(const SimulationResult& system,
                           const SimulationResult& reference) {
  NormalizedEnergy n;
  auto ratio = [](NanoJoules a, NanoJoules b) {
    return b.value() > 0.0 ? a / b : 1.0;
  };
  n.idle = ratio(system.idle_energy, reference.idle_energy);
  n.dynamic = ratio(system.dynamic_energy, reference.dynamic_energy);
  n.total = ratio(system.total_energy(), reference.total_energy());
  n.cycles =
      reference.total_execution_cycles > 0
          ? static_cast<double>(system.total_execution_cycles) /
                static_cast<double>(reference.total_execution_cycles)
          : 1.0;
  n.makespan = reference.makespan > 0
                   ? static_cast<double>(system.makespan) /
                         static_cast<double>(reference.makespan)
                   : 1.0;
  return n;
}

Experiment::Experiment(const ExperimentOptions& options)
    : options_(options),
      context_(standard_scenario(options.scenario, "proposed"),
               options.profile_cache_path, nullptr, options.energy_params) {
  Rng arrival_rng(options_.scenario.seed ^ 0xa5a5a5a5ULL);
  arrivals_ = generate_arrivals(scheduling_ids(), options_.scenario.arrivals,
                                arrival_rng);
}

SystemRun Experiment::run(const std::string& policy,
                          ScheduleObserver* observer) const {
  const Scenario scenario = standard_scenario(options_.scenario, policy);
  ScenarioRun run(scenario, context_, observer,
                  ScenarioRun::ObserverMode::kRaw);
  return run_to_end(run, policy, scheduling_ids());
}

SystemRun Experiment::run(SchedulerPolicy& policy, std::string name) const {
  const Scenario scenario = standard_scenario(options_.scenario, "proposed");
  ScenarioRun run(scenario, context_, policy, nullptr,
                  ScenarioRun::ObserverMode::kRaw);
  return run_to_end(run, std::move(name), scheduling_ids());
}

Experiment::StandardRuns Experiment::run_standard_systems(
    const std::array<ScheduleObserver*, 4>& observers) const {
  StandardRuns runs;
  const std::array<SystemRun*, 4> slots = {
      &runs.base, &runs.optimal, &runs.energy_centric, &runs.proposed};
  const std::array<const char*, 4> policies = {"base", "optimal",
                                               "energy-centric", "proposed"};
  ThreadPool::global().parallel_for(4, [&](std::size_t i) {
    *slots[i] = run(policies[i], observers[i]);
  });
  return runs;
}

}  // namespace hetsched
