// Sharded scenario sweeps: a grid of (core count x arrival rate x
// policy) cells, each an independent deterministic scenario run, fanned
// out over the shared thread pool in contiguous shards. Because every
// cell is self-contained (fresh simulator, read-only shared context) and
// lands in its own index-ordered slot, the merged results are
// bit-identical for every shard count and every HETSCHED_THREADS value.
// One driver runs every sweep: without supervision options it is a plain
// run (no timeout, one attempt), and a cell that throws is quarantined
// instead of aborting the sweep.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {

struct SweepGrid {
  // Template scenario: seed, suite, discipline, job count, distribution,
  // faults... everything the axes below do not override.
  Scenario base;
  std::vector<std::size_t> core_counts{4};
  std::vector<double> mean_gaps{60000.0};
  std::vector<std::string> policies{"base", "proposed"};

  std::size_t cell_count() const {
    return core_counts.size() * mean_gaps.size() * policies.size();
  }

  // The concrete scenario for cell `index` (row-major over core_counts,
  // then mean_gaps, then policies), on the Section-V machine for its
  // policy (Scenario::use_standard_machine).
  Scenario cell_scenario(std::size_t index) const;

  // "c<cores>.g<gap index>.<policy>": cell `index`'s label in tables,
  // metric keys, tracer names and manifests.
  std::string cell_label(std::size_t index) const;

  // `base` with its policy swapped for the most demanding one on the
  // policies axis, so one ScenarioContext built from it (with a trained
  // predictor iff some cell needs it) serves the whole sweep.
  Scenario context_scenario() const;

  void validate() const;
};

struct SweepCell {
  std::size_t index = 0;
  std::size_t cores = 0;
  double mean_gap = 0.0;
  std::string policy;
  std::string label;  // "c<cores>.g<gap index>.<policy>", metric-key safe
  SimulationResult result;
  std::uint64_t stream_digest = 0;  // StreamStats event-stream digest
  std::uint64_t invariant_violations = 0;

  // False for a cell that failed or timed out (its result fields are
  // default-initialized, only the identity fields above are valid).
  bool completed = true;
  // Windowed-telemetry summary, raw JSONL lines and the span collector's
  // save_state text, captured when the cell ran under an observer stack;
  // carried through the shard manifest so a resumed sweep reproduces the
  // merged window output and latency section byte-identically without
  // re-running completed cells.
  std::uint64_t windows_closed = 0;
  std::uint64_t dropped_windows = 0;
  std::uint64_t window_jobs_completed = 0;
  double window_energy_mj = 0.0;
  std::string windows_jsonl;
  std::string span_state;
};

// Deposits one result bucket per cell under `prefix` + cell label, plus
// the per-cell stream digest and invariant-violation counters.
void record_sweep_metrics(MetricsRegistry& metrics,
                          const std::string& prefix,
                          const std::vector<SweepCell>& cells);

// --- The sweep driver: timeout, retry, quarantine, resume ---------------

// Thrown inside a supervised cell whose wall-clock budget expired; the
// supervisor converts it into a quarantined-cell record.
class SweepTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SweepSupervisorOptions {
  // Wall-clock budget per cell attempt in milliseconds; 0 disables the
  // timeout (cells then only fail by throwing).
  std::uint64_t cell_timeout_ms = 0;
  // Attempts per cell before it is quarantined (>= 1).
  std::uint32_t max_attempts = 1;
  // Sleep between attempts of one cell.
  std::uint64_t retry_backoff_ms = 0;
  // Per-cell observer-stack window width (windows JSONL with lat_*
  // columns); 0 runs cells unobserved.
  SimTime window_cycles = 0;
  // Empty, or one caller observer per cell (nulls allowed, e.g. a
  // tracer): observer i sees cell i's events ahead of its observer
  // stack. Each is touched only by the shard running its cell, so
  // per-cell recorders need no locking; one observer must not be aliased
  // across cells. Refused together with retries or a resume manifest,
  // since an observer would then see failed attempts or miss resumed
  // cells.
  std::vector<ScheduleObserver*> cell_observers;
  // Shard-manifest path, atomically rewritten after every completed
  // cell; empty = no manifest persistence.
  std::string manifest_out;
  // Resume source: a manifest file path, or the literal manifest text
  // (tests; takes precedence when non-empty). Cells recorded there are
  // merged instead of re-run; the merged sweep is byte-identical to a
  // clean run.
  std::string resume_manifest;
  std::string resume_manifest_text;
};

// One quarantined cell.
struct SweepFailure {
  std::size_t index = 0;
  std::string label;
  std::uint32_t attempts = 0;
  bool timed_out = false;
  std::string reason;  // what() of the last failure
};

struct SupervisedSweepResult {
  // All cells in grid order; failed cells have completed == false.
  std::vector<SweepCell> cells;
  std::vector<SweepFailure> failed;  // sorted by index
  std::uint64_t resumed_cells = 0;   // skipped thanks to the manifest
};

// Runs every cell of `grid`, splitting the cell list into `shards`
// contiguous chunks executed via pool.parallel_for; `context` must come
// from grid.context_scenario() (or any scenario with identical
// suite/predictor parameters). Each cell runs under an optional
// cooperative wall-clock timeout with bounded retry; failures are
// quarantined into `failed` instead of aborting the sweep.
// Deterministic for the completed set: a cell's payload does not depend
// on timing, shard count or which other cells failed. Throws
// std::invalid_argument on per-cell observers combined with retries or
// a resume manifest, and std::runtime_error on an unreadable/corrupted/
// mismatched resume manifest or an unwritable manifest path.
SupervisedSweepResult run_sweep_supervised(
    const SweepGrid& grid, const ScenarioContext& context,
    std::size_t shards, ThreadPool& pool,
    const SweepSupervisorOptions& options);

// The aggregated report of a finished sweep: config echo (the grid's
// policies joined by commas, system "grid", cores 0) and totals over the
// completed cells, plus the quarantined cells. `window_cycles` is the
// window width the cells ran with, 0 if they ran unobserved; when
// observed, the report also sums the cells' window summaries (their
// windows JSONL is the concatenation of the completed cells',
// window indices restarting at 0) and merges their span state into the
// latency section, one row per policy. Metrics and phase timings are
// the caller's to fill in.
RunReport sweep_report(const SweepGrid& grid, const ScenarioContext& context,
                       const SupervisedSweepResult& sweep,
                       SimTime window_cycles);

// Shard-manifest round trip (exposed for tests and tooling). The
// manifest records the grid fingerprint plus every completed cell's full
// payload (result, digest, window summary, and the raw window JSONL and
// span state, length-prefixed), checksummed like every snapshot format.
// parse_sweep_manifest validates against `grid` and throws
// std::runtime_error (tagged with `context`) on malformed, truncated or
// mismatched input.
std::string serialize_sweep_manifest(const SweepGrid& grid,
                                     const std::vector<SweepCell>& cells);
std::vector<SweepCell> parse_sweep_manifest(const std::string& text,
                                            const SweepGrid& grid,
                                            const std::string& context);

// FNV-1a fingerprint of the grid definition (base scenario plus axes);
// stamped into manifests so one cannot resume a different sweep.
std::uint64_t sweep_grid_fingerprint(const SweepGrid& grid);

}  // namespace hetsched
