// Scenario execution: shared heavyweight state (characterised suite,
// energy model, trained predictor) built once per scenario family, and a
// streaming driver that runs one scenario end-to-end in memory bounded
// by the machine size — the arrival stream is generated on demand and
// the schedule is compacted into StreamStats as it happens, so a
// million-job scenario costs no more RAM than a thousand-job one.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/portfolio_policy.hpp"
#include "core/predictor.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "scenario/dag_arrivals.hpp"
#include "scenario/scenario.hpp"
#include "scenario/stream_stats.hpp"

namespace hetsched {

// Everything expensive a scenario needs, reusable across runs whose
// suite/predictor parameters agree (a sweep varies cores/arrivals/policy
// but shares one context). Read-only after construction, so concurrent
// run_scenario calls may share it.
class ScenarioContext {
 public:
  // Builds the characterised suite (served from `profile_cache_path`
  // when non-empty) under the `energy_params` energy model and, when the
  // scenario's policy needs one, trains the ANN predictor. A non-null
  // `predictor` (e.g. a loaded PredictorSnapshot) replaces training.
  explicit ScenarioContext(const Scenario& scenario,
                           const std::string& profile_cache_path = "",
                           std::unique_ptr<const SizePredictor> predictor =
                               nullptr,
                           const EnergyModelParams& energy_params = {});

  const EnergyModel& energy() const { return energy_; }
  const CharacterizedSuite& suite() const { return suite_; }
  const std::vector<std::size_t>& scheduling_ids() const {
    return scheduling_ids_;
  }
  // Base-configuration execution cycles per benchmark id (deadline
  // references).
  const std::vector<Cycles>& base_reference_cycles() const {
    return base_reference_cycles_;
  }
  // Null when the scenario's policy does not consult a predictor and
  // none was given.
  const SizePredictor* predictor() const { return predictor_.get(); }

 private:
  EnergyModel energy_;
  CharacterizedSuite suite_;
  std::vector<std::size_t> scheduling_ids_;
  std::vector<Cycles> base_reference_cycles_;
  std::unique_ptr<const SizePredictor> predictor_;
};

struct ScenarioOutcome {
  SimulationResult result;
  StreamStats stream;  // compacted schedule + event-stream digest
  // Dispatch-path scan counters (decisions, bitmap words scanned, clamp
  // cache hits); purely observational, never part of the result digest.
  DispatchTelemetry dispatch;
  // Selector outcome when the scenario ran a portfolio policy (win
  // counts, switch events); nullopt otherwise.
  std::optional<PortfolioStats> portfolio;
  // Release accounting when the scenario declared a job DAG (node/edge
  // counts, dependent releases, ready-set peak, critical-path numbers);
  // nullopt for independent-job scenarios.
  std::optional<DagStats> dag;
};

// Instantiates the scheduler policy a scenario names, wired to the
// context's predictor when the policy consults one.
std::unique_ptr<SchedulerPolicy> make_scenario_policy(
    const Scenario& scenario, const ScenarioContext& context);

// One scenario execution held open so it can be driven in slices —
// the substrate for checkpointed runs, supervised (timeout-guarded)
// sweep cells and the Experiment harness. Owns the simulator, arrival
// stream, StreamStats, optional fault injector and (unless the caller
// supplies one) the policy that run_scenario would wire up internally;
// running start() / advance_until(max) / finish() is bit-identical to
// run_scenario. The scenario and context must outlive the run.
class ScenarioRun {
 public:
  // kObserved folds every event into the internal StreamStats (the
  // digest-bearing default); kRaw leaves it out, so a run without an
  // `extra` observer is the simulator's pure dispatch throughput.
  // Observers never feed back into simulation state, so the
  // SimulationResult is identical either way (stats() is simply empty).
  enum class ObserverMode { kObserved, kRaw };

  // `extra` (optional) receives every observer callback, in both modes,
  // and must outlive the run.
  ScenarioRun(const Scenario& scenario, const ScenarioContext& context,
              ScheduleObserver* extra = nullptr,
              ObserverMode mode = ObserverMode::kObserved);
  // Runs the caller-owned `policy` (which must outlive the run) instead
  // of the registry policy the scenario names; the scenario still picks
  // the machine, stream and faults.
  ScenarioRun(const Scenario& scenario, const ScenarioContext& context,
              SchedulerPolicy& policy, ScheduleObserver* extra = nullptr,
              ObserverMode mode = ObserverMode::kObserved);

  // Stepping interface; see MulticoreSimulator's equivalents. A DAG
  // scenario is driven from its release-on-completion source; otherwise
  // the plain generated stream feeds the simulator directly.
  void start() { simulator_.start_stream(source()); }
  bool advance_until(SimTime limit) {
    return simulator_.advance_stream_until(source(), limit);
  }
  SimulationResult finish() { return simulator_.finish_stream(); }

  MulticoreSimulator& simulator() { return simulator_; }
  StreamStats& stats() { return stats_; }
  GeneratedArrivalStream& arrivals() { return stream_; }
  // The scenario's scheduler (checkpointing serialises its state; the
  // CLI extracts portfolio selector stats through it).
  SchedulerPolicy& policy() { return *policy_; }
  const SchedulerPolicy& policy() const { return *policy_; }
  // Null when the scenario has no fault plan.
  FaultInjector* injector() {
    return injector_.has_value() ? &*injector_ : nullptr;
  }
  // Null when the scenario declared no job DAG (checkpointing serialises
  // its frontier).
  DagArrivalSource* dag() { return dag_.has_value() ? &*dag_ : nullptr; }
  const DagArrivalSource* dag() const {
    return dag_.has_value() ? &*dag_ : nullptr;
  }

 private:
  // A null `policy` builds the scenario's registry policy.
  ScenarioRun(const Scenario& scenario, const ScenarioContext& context,
              SchedulerPolicy* policy, ScheduleObserver* extra,
              ObserverMode mode);

  ArrivalSource& source() {
    return dag_.has_value() ? static_cast<ArrivalSource&>(*dag_) : stream_;
  }

  SystemConfig system_;
  std::unique_ptr<SchedulerPolicy> owned_policy_;
  SchedulerPolicy* policy_;
  MulticoreSimulator simulator_;
  StreamStats stats_;
  FanoutObserver fanout_;
  std::optional<FaultInjector> injector_;
  GeneratedArrivalStream stream_;
  std::optional<DagArrivalSource> dag_;
};

// Runs `scenario` under the streaming driver. Deterministic: the same
// scenario and context produce bit-identical outcomes at every thread
// count. The context must have been built for a scenario with the same
// suite/predictor parameters. `extra` (optional) receives every
// observer callback alongside the internal StreamStats — e.g. an
// EventTracer or WindowedCollector — without perturbing the run.
ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioContext& context,
                             ScheduleObserver* extra = nullptr);

// Deposits an outcome into the registry under `prefix` (result buckets
// via record_result_metrics plus the stream aggregates and digest).
void record_scenario_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const ScenarioOutcome& outcome);

// Copies a portfolio selector's outcome into the report: one win-rate
// row per contender (windows it was the active policy, over all closed
// selector windows) plus the switch-event list. The obs layer holds only
// plain data, so the conversion from core PortfolioStats lives here.
void attach_portfolio_summary(RunReport& report,
                              const PortfolioStats& stats);

// Copies a DAG run's release accounting into the report's "dag" section
// (same obs-layer-stays-plain-data split as attach_portfolio_summary).
void attach_dag_summary(RunReport& report, const DagStats& stats);

}  // namespace hetsched
