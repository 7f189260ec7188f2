#include "scenario/checkpoint.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;

// Version 2 added the scheduler policy's own state block (seeded-Rng
// contenders, the portfolio selector) between the windowed collector and
// the fault section; version-1 snapshots are rejected rather than resumed
// with a silently reset policy. Version 3 added the DAG arrival source's
// frontier block (in-degrees, eligible heap, emission log) between the
// arrival generator and the stream stats, so a dependency-graph run
// resumes with the exact release frontier. Version 4 added the job span
// collector's block (window clock, latency histograms, slowest-K list,
// every in-flight span) between the stream stats and the windowed
// collector, so a resumed run rebuilds the exact latency distributions —
// older snapshots are rejected rather than resumed with reset spans.
// Version 5 shrank the DAG block to live state (root cursor, unretired
// jobs, partly satisfied nodes, the completion-released heap); the
// per-node frontier and the emission log left the file, so version-4
// snapshots cannot be restored. Version 6 dropped the span collector's
// window clock: its block stores the histograms of the windows no
// windowed collector has taken yet, and the windowed collector's
// `current` line is the checkpoint's one window clock. A core's running
// job id and benchmark left its `core` line (its running-job slot holds
// them), and the windowed collector's finalized flag left its `state`
// line (checkpoints are taken mid-run).
constexpr int kCheckpointVersion = 6;

std::string make_checkpoint_text(std::uint64_t fingerprint,
                                 const CheckpointRunOptions& options,
                                 std::uint64_t boundary, ScenarioRun& run,
                                 const JobSpanCollector& spans,
                                 const WindowedCollector& collector) {
  std::ostringstream body;
  body << "hetsched-checkpoint " << kCheckpointVersion << "\n";
  body << "scenario-hash " << fingerprint << "\n";
  body << "window-cycles " << options.window_cycles << ' '
       << options.checkpoint_every << "\n";
  body << "boundary " << boundary << "\n";
  run.simulator().save_stream_state(body);
  run.arrivals().save_state(body);
  body << "dag " << (run.dag() != nullptr ? 1 : 0) << "\n";
  if (run.dag() != nullptr) run.dag()->save_state(body);
  run.stats().save_state(body);
  spans.save_state(body);
  collector.save_state(body);
  run.policy().save_state(body);
  body << "faults " << (run.injector() != nullptr ? 1 : 0) << "\n";
  if (run.injector() != nullptr) run.injector()->save_state(body);
  std::ostringstream out;
  st::write_with_checksum(out, body.str());
  return out.str();
}

// Parses and verifies `text`, restores every component into `run` and
// `collector`, and returns the stride boundary the snapshot was taken
// at. The ScenarioRun must be freshly constructed (not started).
std::uint64_t restore_checkpoint_text(const std::string& text,
                                      std::uint64_t fingerprint,
                                      const CheckpointRunOptions& options,
                                      ScenarioRun& run,
                                      JobSpanCollector& spans,
                                      WindowedCollector& collector,
                                      const std::string& context) {
  std::istringstream raw(text);
  const std::string body = st::read_checksummed(raw, context);
  std::istringstream in(body);

  st::Reader r(in, context);
  if (r.token("header") != "hetsched-checkpoint") {
    r.fail("not a hetsched checkpoint");
  }
  if (r.read<int>("version") != kCheckpointVersion) {
    r.fail("unsupported checkpoint version");
  }
  r.expect("scenario-hash");
  if (r.read<std::uint64_t>("scenario hash") != fingerprint) {
    r.fail("checkpoint was taken for a different scenario definition");
  }
  r.expect("window-cycles");
  if (r.read<SimTime>("window cycles") != options.window_cycles ||
      r.read<std::uint64_t>("checkpoint stride") != options.checkpoint_every) {
    r.fail("checkpoint window/stride parameters do not match this run");
  }
  r.expect("boundary");
  const auto boundary = r.read<std::uint64_t>("boundary index");
  const SimTime stride = options.window_cycles * options.checkpoint_every;
  if (boundary == 0 ||
      boundary > std::numeric_limits<SimTime>::max() / stride) {
    r.fail("boundary index out of range");
  }
  const SimTime paused_at = boundary * stride;

  run.simulator().restore_stream_state(in, paused_at, context);
  run.arrivals().restore_state(in, context);
  r.expect("dag");
  if (r.flag("dag flag") != (run.dag() != nullptr)) {
    r.fail("checkpoint DAG state does not match the scenario");
  }
  if (run.dag() != nullptr) run.dag()->restore_state(in, context);
  run.stats().restore_state(in, context);
  spans.restore_state(in, context);
  // The restored pieces must describe one run: the same held jobs, and a
  // source that continues after the simulator's lookahead.
  const MulticoreSimulator& sim = run.simulator();
  const auto held = sim.held_jobs();
  spans.check_resumed(held, paused_at, context);
  if (run.dag() != nullptr) {
    run.dag()->check_resumed(held, sim.next_job_id(), sim.lookahead(),
                             paused_at, context);
  } else if (sim.lookahead().has_value() &&
             run.arrivals().clock() < sim.lookahead()->arrival) {
    r.fail("arrival stream clock behind the simulator's lookahead");
  }
  collector.restore_state(in, context);
  run.policy().restore_state(in, context);
  r.expect("faults");
  if (r.flag("fault flag") != (run.injector() != nullptr)) {
    r.fail("checkpoint fault-injection state does not match the scenario");
  }
  if (run.injector() != nullptr) {
    run.injector()->restore_state(in, context);
  }
  return boundary;
}

std::string load_resume_text(const CheckpointRunOptions& options) {
  if (!options.resume_text.empty()) return options.resume_text;
  std::ifstream in(options.resume_from, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read checkpoint file: " +
                             options.resume_from);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  std::ostringstream out;
  scenario.save(out);
  return fnv1a(out.str());
}

ScenarioOutcome CheckpointRunOutcome::scenario_outcome() const {
  return ScenarioOutcome{result, stream, DispatchTelemetry{}, portfolio, dag};
}

CheckpointRunOutcome run_scenario_checkpointed(
    const Scenario& scenario, const ScenarioContext& context,
    const CheckpointRunOptions& options) {
  const std::string interval_error =
      window_interval_error(options.window_cycles, options.checkpoint_every);
  if (!interval_error.empty()) {
    throw std::invalid_argument("checkpoint intervals: " + interval_error);
  }

  ObserverStack observers(scenario, context, options.window_cycles,
                          options.observer);
  ScenarioRun run(scenario, context, observers.observer());
  const bool resuming =
      !options.resume_text.empty() || !options.resume_from.empty();
  const bool takes_boundaries = !options.checkpoint_out.empty() ||
                                options.capture_checkpoints != nullptr ||
                                options.halt_after_checkpoints > 0;
  // Hashing the canonical scenario text is O(scenario): once per run, and
  // only when a checkpoint is read or written.
  const std::uint64_t fingerprint =
      resuming || takes_boundaries ? scenario_fingerprint(scenario) : 0;

  std::uint64_t boundary = 0;
  if (resuming) {
    const std::string context_name = options.resume_from.empty()
                                         ? std::string("checkpoint")
                                         : options.resume_from;
    boundary = restore_checkpoint_text(load_resume_text(options),
                                       fingerprint, options, run,
                                       observers.spans, observers.windows,
                                       context_name);
  } else {
    run.start();
  }
  const std::uint64_t resumed_from = boundary;

  const SimTime stride = options.window_cycles * options.checkpoint_every;
  std::uint64_t written = 0;
  bool halted = false;
  if (!takes_boundaries) {
    run.advance_until(std::numeric_limits<SimTime>::max());
  }
  while (takes_boundaries && !halted) {
    ++boundary;
    const bool paused = run.advance_until(boundary * stride);
    if (!paused) break;  // stream drained before the boundary

    const std::string text =
        make_checkpoint_text(fingerprint, options, boundary, run,
                             observers.spans, observers.windows);
    if (options.capture_checkpoints != nullptr) {
      options.capture_checkpoints->push_back(text);
    }
    if (!options.checkpoint_out.empty() &&
        !atomic_write_file(options.checkpoint_out, text)) {
      throw std::runtime_error("cannot write checkpoint file: " +
                               options.checkpoint_out);
    }
    ++written;
    halted = options.halt_after_checkpoints > 0 &&
             written >= options.halt_after_checkpoints;
  }

  SimulationResult result;
  if (!halted) {
    result = run.finish();
    observers.finalize();
  }
  CheckpointRunOutcome outcome{std::move(observers),
                               result,
                               std::move(run.stats()),
                               written,
                               resumed_from,
                               halted,
                               std::nullopt,
                               std::nullopt};
  // For halted runs: the selector and DAG state as of the halt.
  if (const auto* portfolio =
          dynamic_cast<const PortfolioPolicy*>(&run.policy())) {
    outcome.portfolio = portfolio->stats();
  }
  if (const DagArrivalSource* dag = run.dag()) {
    outcome.dag = dag->stats();
  }
  return outcome;
}

RunReport observed_scenario_report(const Scenario& scenario,
                                   const ScenarioContext& context,
                                   const CheckpointRunOutcome& outcome) {
  RunReport report;
  report.command = "scenario";
  report.name = scenario.name;
  report.policy = scenario.policy;
  report.system = std::string(to_string(scenario.system));
  report.discipline = std::string(to_string(scenario.discipline));
  report.cores = scenario.make_system().core_count();
  report.seed = scenario.seed;
  report.jobs = scenario.arrivals.count;
  report.suite_key = suite_cache_key(scenario.suite, context.energy());
  report.completed_jobs = outcome.result.completed_jobs;
  report.makespan = outcome.result.makespan;
  report.total_energy_mj = outcome.result.total_energy().millijoules();
  report.stream_digest = outcome.stream.digest();
  outcome.attach(report);
  if (outcome.portfolio.has_value()) {
    attach_portfolio_summary(report, *outcome.portfolio);
  }
  if (outcome.dag.has_value()) attach_dag_summary(report, *outcome.dag);
  MetricsRegistry local;
  record_scenario_metrics(local, scenario.name + ".",
                          outcome.scenario_outcome());
  report.metrics_json = local.to_json();
  return report;
}

}  // namespace hetsched
