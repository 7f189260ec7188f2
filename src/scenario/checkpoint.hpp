// The observed scenario driver, crash-safe: deterministic
// checkpoint/resume.
//
// run_scenario_checkpointed is the one driver for every observed
// scenario run (windows JSONL, run report, checkpoints). It runs the
// scenario under an ObserverStack and, when something consumes them (a
// checkpoint file, a capture list or a halt), drives the ScenarioRun in
// fixed strides of simulated time (window_cycles * checkpoint_every) and
// serializes the complete resumable state at each stride boundary:
// simulator core/queue/in-flight state, arrival-generator position (RNG
// states included), StreamStats compaction digest, span and windowed
// telemetry accumulators and the fault injector's schedule cursor.
// Without a consumer it advances once to the end. Snapshots follow the
// repo's versioned text-snapshot conventions (whitespace tokens,
// hexfloat doubles, a trailing FNV-1a checksum line) and are written with
// atomic temp+rename, so a crash mid-write leaves the previous checkpoint
// intact.
//
// The headline invariant, property-tested in tests/chaos_test.cpp: a run
// killed at ANY checkpoint boundary and resumed from the file produces
// bit-identical outputs (StreamStats digest, window JSONL, result) to
// the uninterrupted run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_report.hpp"
#include "scenario/observer_stack.hpp"
#include "scenario/scenario_runner.hpp"

namespace hetsched {

struct CheckpointRunOptions {
  // Telemetry window width; checkpoints land on multiples of it.
  SimTime window_cycles = 1'000'000;
  // Windows per checkpoint stride (>= 1).
  std::uint64_t checkpoint_every = 1;
  // Checkpoint file path, rewritten atomically at every boundary; empty
  // = no file output (captures below still work).
  std::string checkpoint_out;
  // Resume source: a checkpoint file path, or the literal checkpoint
  // text (tests; takes precedence when non-empty).
  std::string resume_from;
  std::string resume_text;
  // Stop after writing this many checkpoints this process (simulating a
  // crash); 0 = run to completion.
  std::uint64_t halt_after_checkpoints = 0;
  // When non-null, every checkpoint text is also appended here (tests).
  std::vector<std::string>* capture_checkpoints = nullptr;
  // Caller observer (e.g. a tracer) that sees every event ahead of the
  // stack's collectors; its state is not checkpointed. Must outlive the
  // call.
  ScheduleObserver* observer = nullptr;
};

// An observed run's outcome: its observer stack — `spans` (policy-
// labelled per-job latency) and `windows`, finalized only when the run
// completed, rendered by jsonl() and attach() — plus what the run
// produced.
struct CheckpointRunOutcome : ObserverStack {
  SimulationResult result;   // default-initialized when halted
  StreamStats stream;
  std::uint64_t checkpoints_written = 0;
  // Stride boundary the run resumed from; 0 = started fresh.
  std::uint64_t resumed_from = 0;
  bool halted = false;
  // Selector outcome when the scenario ran a portfolio policy; for halted
  // runs this is the selector state as of the halt.
  std::optional<PortfolioStats> portfolio;
  // DAG release accounting when the scenario declared dep edges; for
  // halted runs this is the frontier state as of the halt.
  std::optional<DagStats> dag;

  // The plain-run view (no dispatch telemetry: it is per-process, not
  // part of the resumable state).
  ScenarioOutcome scenario_outcome() const;
};

// Runs `scenario` observed, taking checkpoint boundaries only when a
// checkpoint file, a capture list or a halt consumes them. The result
// and stream digest are bit-identical to run_scenario's, with and
// without boundaries. The scenario is fingerprinted only when the run
// resumes or takes boundaries. Throws std::runtime_error on unreadable,
// corrupted, truncated or mismatched (different scenario or checkpoint
// parameters) resume input, and on checkpoint files that cannot be
// written.
CheckpointRunOutcome run_scenario_checkpointed(
    const Scenario& scenario, const ScenarioContext& context,
    const CheckpointRunOptions& options);

// The run report of an observed scenario run: config echo, result,
// stream digest, the window, latency, portfolio and DAG sections, and
// a metrics snapshot from a local registry fed only by the deterministic
// scenario metrics (so a resumed run's report matches a clean one).
RunReport observed_scenario_report(const Scenario& scenario,
                                   const ScenarioContext& context,
                                   const CheckpointRunOutcome& outcome);

// FNV-1a fingerprint of the scenario's canonical save() text; stamped
// into checkpoint headers so a snapshot cannot resume a different
// scenario.
std::uint64_t scenario_fingerprint(const Scenario& scenario);

}  // namespace hetsched
