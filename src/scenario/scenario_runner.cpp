#include "scenario/scenario_runner.hpp"

#include <limits>
#include <optional>

#include "cache/cache_config.hpp"
#include "core/policy_registry.hpp"
#include "fault/fault_injector.hpp"
#include "obs/observability.hpp"
#include "util/contracts.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {

std::unique_ptr<SchedulerPolicy> make_scenario_policy(
    const Scenario& scenario, const ScenarioContext& context) {
  PolicyContext ctx;
  ctx.predictor = context.predictor();
  ctx.suite = &context.suite();
  ctx.seed = scenario.seed;
  return PolicyRegistry::instance().make(scenario.policy, ctx);
}

ScenarioContext::ScenarioContext(
    const Scenario& scenario, const std::string& profile_cache_path,
    std::unique_ptr<const SizePredictor> predictor,
    const EnergyModelParams& energy_params)
    : energy_(CactiModel{}, energy_params),
      suite_(load_or_build_suite(profile_cache_path, energy_,
                                 scenario.suite)),
      predictor_(std::move(predictor)) {
  scenario.validate();
  scheduling_ids_ = suite_.scheduling_ids();
  HETSCHED_ASSERT(!scheduling_ids_.empty());

  base_reference_cycles_.resize(suite_.size(), 0);
  for (std::size_t id = 0; id < suite_.size(); ++id) {
    base_reference_cycles_[id] = suite_.benchmark(id)
                                     .profile_for(DesignSpace::base_config())
                                     .energy.total_cycles;
  }

  if (predictor_ == nullptr && scenario.needs_predictor()) {
    predictor_ =
        train_predictor(suite_, scenario.predictor_config(), scenario.seed);
  }
}

ScenarioRun::ScenarioRun(const Scenario& scenario,
                         const ScenarioContext& context,
                         ScheduleObserver* extra, ObserverMode mode)
    : ScenarioRun(scenario, context, nullptr, extra, mode) {}

ScenarioRun::ScenarioRun(const Scenario& scenario,
                         const ScenarioContext& context,
                         SchedulerPolicy& policy, ScheduleObserver* extra,
                         ObserverMode mode)
    : ScenarioRun(scenario, context, &policy, extra, mode) {}

ScenarioRun::ScenarioRun(const Scenario& scenario,
                         const ScenarioContext& context,
                         SchedulerPolicy* policy, ScheduleObserver* extra,
                         ObserverMode mode)
    : system_((scenario.validate(), scenario.make_system())),
      owned_policy_(policy == nullptr ? make_scenario_policy(scenario, context)
                                      : nullptr),
      policy_(policy == nullptr ? owned_policy_.get() : policy),
      simulator_(system_, context.suite(), context.energy(), *policy_,
                 scenario.discipline),
      stats_(system_.core_count()),
      fanout_({&stats_, extra}),
      // The arrival seed derivation matches Experiment::arrivals(), so
      // the batch stream and this one are the same jobs.
      stream_(context.scheduling_ids(), scenario.arrivals,
              scenario.seed ^ 0xa5a5a5a5ULL) {
  std::optional<DagArrivalSource::RealtimeSetup> dag_realtime;
  if (scenario.realtime.has_value()) {
    stream_.set_realtime(context.base_reference_cycles(), *scenario.realtime,
                         scenario.seed ^ 0x5151ULL);
    dag_realtime.emplace(DagArrivalSource::RealtimeSetup{
        context.base_reference_cycles(), *scenario.realtime,
        scenario.seed ^ 0x5151ULL});
  }
  ScheduleObserver* const stats =
      mode == ObserverMode::kObserved ? &stats_ : nullptr;
  if (!scenario.dag.empty()) {
    // Same ids/options/seeds as stream_, so the nominal arrival draws are
    // bit-identical to the independent-job run of this scenario.
    dag_.emplace(scenario.dag, context.scheduling_ids(), scenario.arrivals,
                 scenario.seed ^ 0xa5a5a5a5ULL, dag_realtime);
    // The DAG source must observe every completion in every mode —
    // releases are simulation state, not telemetry — so it heads the
    // fanout chain; release events go back through the chain only when
    // someone else listens.
    fanout_ = FanoutObserver({&*dag_, stats, extra});
    simulator_.set_observer(&fanout_);
    if (stats != nullptr || extra != nullptr) {
      dag_->set_release_observer(&fanout_);
    }
  } else {
    // A lone sink attaches directly: the fanout hop costs an indirect
    // call per event on the hot path.
    simulator_.set_observer(stats == nullptr   ? extra
                            : extra == nullptr ? stats
                                               : &fanout_);
  }
  if (!scenario.faults.empty()) {
    injector_.emplace(scenario.faults);
    simulator_.set_fault_injector(&*injector_);
  }
}

ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioContext& context,
                             ScheduleObserver* extra) {
  ScenarioRun run(scenario, context, extra);
  run.start();
  run.advance_until(std::numeric_limits<SimTime>::max());
  SimulationResult result = run.finish();
  ScenarioOutcome outcome{std::move(result), std::move(run.stats()),
                          run.simulator().dispatch_telemetry(), std::nullopt,
                          std::nullopt};
  if (const auto* portfolio =
          dynamic_cast<const PortfolioPolicy*>(&run.policy())) {
    outcome.portfolio = portfolio->stats();
  }
  if (const DagArrivalSource* dag = run.dag()) {
    outcome.dag = dag->stats();
  }
  return outcome;
}

void record_scenario_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const ScenarioOutcome& outcome) {
  record_result_metrics(metrics, prefix, outcome.result);
  const StreamStats& s = outcome.stream;
  metrics.counter(prefix + "stream.slices").add(s.slices());
  metrics.counter(prefix + "stream.completed_slices")
      .add(s.completed_slices());
  metrics.counter(prefix + "stream.busy_cycles").add(s.busy_cycles());
  metrics.counter(prefix + "stream.idle_cycles").add(s.idle_cycles());
  metrics.counter(prefix + "stream.longest_slice_cycles")
      .add(s.longest_slice());
  metrics.counter(prefix + "stream.dispatches").add(s.dispatches());
  metrics.counter(prefix + "stream.idle_intervals").add(s.idle_intervals());
  metrics.counter(prefix + "stream.reconfig_attempts")
      .add(s.reconfig_attempts());
  metrics.counter(prefix + "stream.reconfig_failures")
      .add(s.reconfig_failures());
  metrics.counter(prefix + "stream.invariant_violations")
      .add(s.invariant_violations());
  metrics.counter(prefix + "stream.digest").add(s.digest());
}

void attach_portfolio_summary(RunReport& report,
                              const PortfolioStats& stats) {
  report.policy_win_rates.clear();
  report.policy_switches.clear();
  for (std::size_t i = 0; i < stats.contenders.size(); ++i) {
    RunReport::PolicyWinRate row;
    row.name = stats.contenders[i];
    row.windows_won = stats.windows_active[i];
    row.win_rate =
        stats.windows_closed == 0
            ? 0.0
            : static_cast<double>(stats.windows_active[i]) /
                  static_cast<double>(stats.windows_closed);
    report.policy_win_rates.push_back(std::move(row));
  }
  for (const PortfolioStats::Switch& s : stats.switches) {
    report.policy_switches.push_back({s.window, s.time, s.from, s.to});
  }
}

void attach_dag_summary(RunReport& report, const DagStats& stats) {
  RunReport::DagSummary summary;
  summary.nodes = stats.nodes;
  summary.edges = stats.edges;
  summary.releases = stats.releases;
  summary.ready_peak = stats.ready_peak;
  summary.max_rank = stats.max_rank;
  summary.release_latency_cycles = stats.release_latency_total;
  summary.cp_slack_total = stats.cp_slack_total;
  report.dag = summary;
}

}  // namespace hetsched
