#include "scenario/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"

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
// snapshots cannot be restored.
constexpr int kCheckpointVersion = 5;

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

  std::string token;
  if (!(in >> token) || token != "hetsched-checkpoint") {
    st::fail(context, "not a hetsched checkpoint");
  }
  if (st::read_value<int>(in, "version", context) != kCheckpointVersion) {
    st::fail(context, "unsupported checkpoint version");
  }
  if (!(in >> token) || token != "scenario-hash") {
    st::fail(context, "expected 'scenario-hash'");
  }
  if (st::read_value<std::uint64_t>(in, "scenario hash", context) !=
      fingerprint) {
    st::fail(context,
             "checkpoint was taken for a different scenario definition");
  }
  if (!(in >> token) || token != "window-cycles") {
    st::fail(context, "expected 'window-cycles'");
  }
  if (st::read_value<SimTime>(in, "window cycles", context) !=
          options.window_cycles ||
      st::read_value<std::uint64_t>(in, "checkpoint stride", context) !=
          options.checkpoint_every) {
    st::fail(context,
             "checkpoint window/stride parameters do not match this run");
  }
  if (!(in >> token) || token != "boundary") {
    st::fail(context, "expected 'boundary'");
  }
  const auto boundary =
      st::read_value<std::uint64_t>(in, "boundary index", context);
  if (boundary == 0) st::fail(context, "boundary index must be positive");

  run.simulator().restore_stream_state(in, context);
  run.arrivals().restore_state(in, context);
  if (!(in >> token) || token != "dag") {
    st::fail(context, "expected 'dag'");
  }
  const bool had_dag = st::read_value<int>(in, "dag flag", context) != 0;
  if (had_dag != (run.dag() != nullptr)) {
    st::fail(context,
             "checkpoint DAG state does not match the scenario");
  }
  if (run.dag() != nullptr) run.dag()->restore_state(in, context);
  run.stats().restore_state(in, context);
  spans.restore_state(in, context);
  collector.restore_state(in, context);
  run.policy().restore_state(in, context);
  if (!(in >> token) || token != "faults") {
    st::fail(context, "expected 'faults'");
  }
  const bool had_injector =
      st::read_value<int>(in, "fault flag", context) != 0;
  if (had_injector != (run.injector() != nullptr)) {
    st::fail(context,
             "checkpoint fault-injection state does not match the scenario");
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

CheckpointRunOutcome run_scenario_checkpointed(
    const Scenario& scenario, const ScenarioContext& context,
    const CheckpointRunOptions& options) {
  const std::string interval_error =
      window_interval_error(options.window_cycles, options.checkpoint_every);
  if (!interval_error.empty()) {
    throw std::invalid_argument("checkpoint intervals: " + interval_error);
  }

  JobSpanCollector spans(scenario.policy, options.window_cycles);
  WindowedCollector collector(
      scenario.make_system().core_count(),
      WindowedOptions{options.window_cycles, 0}, &context.suite());
  collector.set_span_source(&spans);
  // Span collector first: it must have closed window k (and banked its
  // latency digest) before the windowed collector closes k and pulls it.
  FanoutObserver extra({&spans, &collector});
  ScenarioRun run(scenario, context, &extra);
  // Hashing the canonical scenario text is O(scenario): once per run.
  const std::uint64_t fingerprint = scenario_fingerprint(scenario);

  std::uint64_t boundary = 0;
  std::uint64_t resumed_from = 0;
  const bool resuming =
      !options.resume_text.empty() || !options.resume_from.empty();
  if (resuming) {
    const std::string context_name = options.resume_from.empty()
                                         ? std::string("checkpoint")
                                         : options.resume_from;
    boundary = restore_checkpoint_text(load_resume_text(options),
                                       fingerprint, options, run, spans,
                                       collector, context_name);
    resumed_from = boundary;
  } else {
    run.start();
  }

  const SimTime stride = options.window_cycles * options.checkpoint_every;
  std::uint64_t written = 0;
  for (;;) {
    ++boundary;
    const bool paused = run.advance_until(boundary * stride);
    if (!paused) break;  // stream drained before the boundary

    const std::string text = make_checkpoint_text(fingerprint, options,
                                                  boundary, run, spans,
                                                  collector);
    if (options.capture_checkpoints != nullptr) {
      options.capture_checkpoints->push_back(text);
    }
    if (!options.checkpoint_out.empty() &&
        !atomic_write_file(options.checkpoint_out, text)) {
      throw std::runtime_error("cannot write checkpoint file: " +
                               options.checkpoint_out);
    }
    ++written;
    if (options.halt_after_checkpoints > 0 &&
        written >= options.halt_after_checkpoints) {
      // The moved-out collectors leave this scope: sever the handshake
      // pointer so the moved copy never dereferences the dead original.
      collector.set_span_source(nullptr);
      CheckpointRunOutcome halted{SimulationResult{},
                                  std::move(run.stats()),
                                  std::move(collector),
                                  std::move(spans),
                                  written,
                                  resumed_from,
                                  true,
                                  std::nullopt,
                                  std::nullopt};
      if (const auto* portfolio =
              dynamic_cast<const PortfolioPolicy*>(&run.policy())) {
        halted.portfolio = portfolio->stats();
      }
      if (const DagArrivalSource* dag = run.dag()) {
        halted.dag = dag->stats();
      }
      return halted;
    }
  }

  const SimulationResult result = run.finish();
  spans.finalize();  // before the windowed collector: it pulls on close
  collector.finalize();
  collector.set_span_source(nullptr);
  CheckpointRunOutcome outcome{result,
                               std::move(run.stats()),
                               std::move(collector),
                               std::move(spans),
                               written,
                               resumed_from,
                               false,
                               std::nullopt,
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

}  // namespace hetsched
