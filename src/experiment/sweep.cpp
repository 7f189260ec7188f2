#include "experiment/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/latency.hpp"
#include "obs/observability.hpp"
#include "scenario/observer_stack.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {

Scenario SweepGrid::cell_scenario(std::size_t index) const {
  HETSCHED_REQUIRE(index < cell_count());
  const std::size_t policy_i = index % policies.size();
  const std::size_t gap_i = (index / policies.size()) % mean_gaps.size();
  const std::size_t core_i = index / (policies.size() * mean_gaps.size());

  Scenario cell = base;
  cell.arrivals.mean_interarrival_cycles = mean_gaps[gap_i];
  cell.policy = policies[policy_i];
  cell.use_standard_machine(core_counts[core_i]);
  cell.name = base.name + "-cell" + std::to_string(index);
  return cell;
}

std::string SweepGrid::cell_label(std::size_t index) const {
  const Scenario cell = cell_scenario(index);
  const std::size_t gap_i = (index / policies.size()) % mean_gaps.size();
  return "c" + std::to_string(cell.cores) + ".g" + std::to_string(gap_i) +
         "." + cell.policy;
}

Scenario SweepGrid::context_scenario() const {
  Scenario ctx = base;
  for (const std::string& policy : policies) {
    ctx.policy = policy;
    if (ctx.needs_predictor()) break;
  }
  return ctx;
}

void SweepGrid::validate() const {
  HETSCHED_REQUIRE(!core_counts.empty() && !mean_gaps.empty() &&
                   !policies.empty() && "sweep grid axes must be non-empty");
  for (std::size_t i = 0; i < cell_count(); ++i) cell_scenario(i).validate();
}

namespace {

// Simulated-time slice between timeout checks: a cell with a wall-clock
// budget is driven cooperatively in slices of this many cycles, so the
// deadline is honoured without detaching threads (sanitizer-clean).
constexpr SimTime kSupervisionSliceCycles = 1'000'000;

// Identity fields shared by every path that materializes a cell record.
void fill_cell_identity(SweepCell& cell, const SweepGrid& grid,
                        std::size_t index) {
  const Scenario scenario = grid.cell_scenario(index);
  cell.index = index;
  cell.cores = scenario.cores;
  cell.mean_gap = scenario.arrivals.mean_interarrival_cycles;
  cell.policy = scenario.policy;
  cell.label = grid.cell_label(index);
}

namespace st = snapshot_text;

// Version 2: cells run under the full observer stack, so their window
// JSONL carries real lat_* columns; version-1 manifests (lat_* all zero)
// are rejected rather than merged with new cells. Version 3 added each
// cell's span state, so a resumed sweep's report carries the latency
// section; version-2 manifests have none and are rejected. Version 4
// carries the span state of checkpoint version 6 (untaken window
// digests instead of a window clock); older span blobs are rejected.
constexpr int kManifestVersion = 4;

// Runs one cell to completion, under a cooperative wall-clock deadline
// when one is set: the simulation advances in fixed simulated-time
// slices and the clock is checked between slices, so a runaway cell is
// abandoned at a deterministic simulation state boundary without
// detaching threads.
SweepCell run_cell(const SweepGrid& grid, std::size_t index,
                   const ScenarioContext& context,
                   const SweepSupervisorOptions& options) {
  const Scenario scenario = grid.cell_scenario(index);
  ScheduleObserver* caller = options.cell_observers.empty()
                                 ? nullptr
                                 : options.cell_observers[index];
  std::optional<ObserverStack> observers;
  if (options.window_cycles > 0) {
    observers.emplace(scenario, context, options.window_cycles, caller);
  }
  ScenarioRun run(scenario, context,
                  observers.has_value() ? observers->observer() : caller);
  run.start();

  if (options.cell_timeout_ms == 0) {
    run.advance_until(std::numeric_limits<SimTime>::max());
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.cell_timeout_ms);
    for (std::uint64_t k = 1;
         run.advance_until(k * kSupervisionSliceCycles); ++k) {
      if (std::chrono::steady_clock::now() >= deadline) {
        throw SweepTimeoutError(
            "cell exceeded its wall-clock budget of " +
            std::to_string(options.cell_timeout_ms) + " ms");
      }
    }
  }

  SweepCell cell;
  fill_cell_identity(cell, grid, index);
  cell.result = run.finish();
  cell.stream_digest = run.stats().digest();
  cell.invariant_violations = run.stats().invariant_violations();
  if (observers.has_value()) {
    observers->finalize();
    const WindowedCollector& windows = observers->windows;
    cell.windows_closed = windows.windows_closed();
    cell.dropped_windows = windows.dropped_windows();
    for (const WindowRecord& w : windows.windows()) {
      cell.window_jobs_completed += w.jobs_completed;
      cell.window_energy_mj += w.energy_mj;
    }
    cell.windows_jsonl = observers->jsonl();
    std::ostringstream spans;
    observers->spans.save_state(spans);
    cell.span_state = spans.str();
  }
  return cell;
}

// Length-prefixed raw bytes: content is opaque to the manifest parser
// and reproduced byte-for-byte on resume.
void write_blob(std::ostream& out, const std::string& tag,
                const std::string& bytes) {
  out << tag << ' ' << bytes.size() << "\n" << bytes << "\n";
}

// The declared length must fit in the rest of the manifest body, so a
// corrupted prefix fails cleanly instead of allocating.
std::string read_blob(st::Reader& r, const char* tag) {
  r.expect(tag);
  const std::size_t bytes = r.count("byte count", 1);
  r.stream().get();  // the newline terminating the length prefix
  std::string blob(bytes, '\0');
  if (!r.stream().read(blob.data(), static_cast<std::streamsize>(bytes))) {
    r.fail(std::string("truncated ") + tag + " payload");
  }
  return blob;
}

std::string load_manifest_text(const SweepSupervisorOptions& options) {
  if (!options.resume_manifest_text.empty()) {
    return options.resume_manifest_text;
  }
  std::ifstream in(options.resume_manifest, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read sweep manifest: " +
                             options.resume_manifest);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::uint64_t sweep_grid_fingerprint(const SweepGrid& grid) {
  std::ostringstream out;
  grid.base.save(out);
  out << "core-counts";
  for (const std::size_t c : grid.core_counts) out << ' ' << c;
  out << "\nmean-gaps";
  for (const double g : grid.mean_gaps) {
    out << ' ';
    st::write_double(out, g);
  }
  out << "\npolicies";
  for (const std::string& p : grid.policies) out << ' ' << p;
  out << "\n";
  return fnv1a(out.str());
}

std::string serialize_sweep_manifest(const SweepGrid& grid,
                                     const std::vector<SweepCell>& cells) {
  std::ostringstream body;
  body << "hetsched-sweep-manifest " << kManifestVersion << "\n";
  body << "grid-hash " << sweep_grid_fingerprint(grid) << "\n";
  std::size_t completed = 0;
  for (const SweepCell& cell : cells) {
    if (cell.completed) ++completed;
  }
  body << "cells " << grid.cell_count() << ' ' << completed << "\n";
  for (const SweepCell& cell : cells) {
    if (!cell.completed) continue;
    body << "cell " << cell.index << ' ' << cell.label << "\n";
    save_simulation_result(body, cell.result);
    body << "stream " << cell.stream_digest << ' '
         << cell.invariant_violations << "\n";
    body << "windows " << cell.windows_closed << ' '
         << cell.dropped_windows << ' ' << cell.window_jobs_completed
         << ' ';
    st::write_double(body, cell.window_energy_mj);
    body << "\n";
    write_blob(body, "windows-jsonl", cell.windows_jsonl);
    write_blob(body, "span-state", cell.span_state);
  }
  std::ostringstream out;
  st::write_with_checksum(out, body.str());
  return out.str();
}

std::vector<SweepCell> parse_sweep_manifest(const std::string& text,
                                            const SweepGrid& grid,
                                            const std::string& context) {
  std::istringstream raw(text);
  const std::string body = st::read_checksummed(raw, context);
  std::istringstream in(body);

  st::Reader r(in, context);
  if (r.token("header") != "hetsched-sweep-manifest") {
    r.fail("not a hetsched sweep manifest");
  }
  if (r.read<int>("version") != kManifestVersion) {
    r.fail("unsupported manifest version");
  }
  r.expect("grid-hash");
  if (r.read<std::uint64_t>("grid hash") != sweep_grid_fingerprint(grid)) {
    r.fail("manifest was written for a different sweep grid");
  }
  r.expect("cells");
  if (r.read<std::size_t>("cell count") != grid.cell_count()) {
    r.fail("manifest cell count does not match the grid");
  }
  const std::size_t completed = r.count("completed count");
  if (completed > grid.cell_count()) {
    r.fail("completed count exceeds the grid");
  }

  std::vector<SweepCell> cells;
  std::size_t last_index = 0;
  for (std::size_t n = 0; n < completed; ++n) {
    r.expect("cell");
    const auto index = r.read<std::size_t>("cell index");
    if (index >= grid.cell_count()) r.fail("cell index out of range");
    if (n > 0 && index <= last_index) r.fail("cell indices out of order");
    last_index = index;
    SweepCell cell;
    fill_cell_identity(cell, grid, index);
    if (r.token("cell label") != cell.label) {
      r.fail("cell label does not match the grid");
    }
    load_simulation_result(in, cell.result, context);
    r.expect("stream");
    cell.stream_digest = r.read<std::uint64_t>("stream digest");
    cell.invariant_violations = r.read<std::uint64_t>("invariant violations");
    r.expect("windows");
    cell.windows_closed = r.read<std::uint64_t>("windows closed");
    cell.dropped_windows = r.read<std::uint64_t>("dropped windows");
    cell.window_jobs_completed = r.read<std::uint64_t>("window jobs");
    cell.window_energy_mj = r.read<double>("window energy");
    cell.windows_jsonl = read_blob(r, "windows-jsonl");
    cell.span_state = read_blob(r, "span-state");
    cells.push_back(std::move(cell));
  }
  return cells;
}

SupervisedSweepResult run_sweep_supervised(
    const SweepGrid& grid, const ScenarioContext& context,
    std::size_t shards, ThreadPool& pool,
    const SweepSupervisorOptions& options) {
  grid.validate();
  HETSCHED_REQUIRE(shards >= 1 && "shards must be >= 1");
  HETSCHED_REQUIRE(options.max_attempts >= 1);
  const std::size_t cells = grid.cell_count();
  HETSCHED_REQUIRE((options.cell_observers.empty() ||
                    options.cell_observers.size() == cells) &&
                   "cell_observers must be empty or one per cell");
  const bool resuming = !options.resume_manifest.empty() ||
                        !options.resume_manifest_text.empty();
  if (!options.cell_observers.empty() &&
      (options.max_attempts > 1 || resuming)) {
    throw std::invalid_argument(
        "sweep: per-cell observers cannot be combined with retries or a "
        "resume manifest");
  }
  shards = std::min(shards, cells);

  SupervisedSweepResult sweep;
  sweep.cells.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    fill_cell_identity(sweep.cells[i], grid, i);
    sweep.cells[i].completed = false;
  }

  if (resuming) {
    const std::string context_name = options.resume_manifest.empty()
                                         ? std::string("sweep manifest")
                                         : options.resume_manifest;
    for (SweepCell& done :
         parse_sweep_manifest(load_manifest_text(options), grid,
                              context_name)) {
      const std::size_t index = done.index;
      done.completed = true;
      sweep.cells[index] = std::move(done);
      ++sweep.resumed_cells;
    }
  }

  // Serializes manifest rewrites and the failure list; cell payloads are
  // lock-free (each cell owns its index-ordered slot).
  std::mutex bookkeeping;
  const auto persist_manifest = [&] {
    if (options.manifest_out.empty()) return;
    const std::string text = serialize_sweep_manifest(grid, sweep.cells);
    if (!atomic_write_file(options.manifest_out, text)) {
      throw std::runtime_error("cannot write sweep manifest: " +
                               options.manifest_out);
    }
  };

  pool.parallel_for(shards, [&](std::size_t shard) {
    const std::size_t begin = shard * cells / shards;
    const std::size_t end = (shard + 1) * cells / shards;
    for (std::size_t i = begin; i < end; ++i) {
      if (sweep.cells[i].completed) continue;  // resumed from manifest

      SweepFailure failure;
      failure.index = i;
      failure.label = sweep.cells[i].label;
      bool done = false;
      for (std::uint32_t attempt = 1; attempt <= options.max_attempts;
           ++attempt) {
        failure.attempts = attempt;
        try {
          SweepCell cell = run_cell(grid, i, context, options);
          cell.completed = true;
          sweep.cells[i] = std::move(cell);
          done = true;
          break;
        } catch (const SweepTimeoutError& e) {
          failure.timed_out = true;
          failure.reason = e.what();
        } catch (const std::exception& e) {
          failure.timed_out = false;
          failure.reason = e.what();
        }
        if (attempt < options.max_attempts &&
            options.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.retry_backoff_ms));
        }
      }

      const std::lock_guard<std::mutex> lock(bookkeeping);
      if (done) {
        persist_manifest();
      } else {
        sweep.failed.push_back(std::move(failure));
      }
    }
  });

  std::sort(sweep.failed.begin(), sweep.failed.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.index < b.index;
            });
  return sweep;
}

void record_sweep_metrics(MetricsRegistry& metrics,
                          const std::string& prefix,
                          const std::vector<SweepCell>& cells) {
  for (const SweepCell& cell : cells) {
    const std::string cell_prefix = prefix + cell.label + ".";
    metrics.gauge(cell_prefix + "cores")
        .set(static_cast<double>(cell.cores));
    metrics.gauge(cell_prefix + "mean_gap_cycles").set(cell.mean_gap);
    record_result_metrics(metrics, cell_prefix, cell.result);
    metrics.counter(cell_prefix + "stream.digest").add(cell.stream_digest);
    metrics.counter(cell_prefix + "stream.invariant_violations")
        .add(cell.invariant_violations);
  }
}

namespace {

// Fills the report's latency section from the completed cells' span
// state; cells sharing a policy fold into one row (fixed histogram
// boundaries make the merge exact).
void attach_sweep_latency(RunReport& report,
                          const std::vector<SweepCell>& cells,
                          SimTime window_cycles) {
  std::deque<JobSpanCollector> spans;  // stable addresses
  std::vector<const JobSpanCollector*> collectors;
  for (const SweepCell& cell : cells) {
    if (!cell.completed || cell.span_state.empty()) continue;
    spans.emplace_back(cell.policy, window_cycles);
    std::istringstream in(cell.span_state);
    spans.back().restore_state(in, cell.label + " span state");
    collectors.push_back(&spans.back());
  }
  attach_latency_summary(report, collectors);
}

}  // namespace

RunReport sweep_report(const SweepGrid& grid, const ScenarioContext& context,
                       const SupervisedSweepResult& sweep,
                       SimTime window_cycles) {
  const Scenario& base = grid.base;
  RunReport report;
  report.command = "sweep";
  report.name = base.name;
  for (const std::string& policy : grid.policies) {
    if (!report.policy.empty()) report.policy += ',';
    report.policy += policy;
  }
  report.system = "grid";
  report.discipline = std::string(to_string(base.discipline));
  report.cores = 0;
  report.seed = base.seed;
  report.jobs =
      static_cast<std::uint64_t>(base.arrivals.count) * sweep.cells.size();
  report.suite_key = suite_cache_key(base.suite, context.energy());
  for (const SweepCell& cell : sweep.cells) {
    if (!cell.completed) continue;
    report.completed_jobs += cell.result.completed_jobs;
    report.makespan =
        std::max<std::uint64_t>(report.makespan, cell.result.makespan);
    report.total_energy_mj += cell.result.total_energy().millijoules();
    if (window_cycles == 0) continue;
    report.window_cycles = window_cycles;
    report.windows_closed += cell.windows_closed;
    report.dropped_windows += cell.dropped_windows;
    report.window_jobs_completed += cell.window_jobs_completed;
    report.window_energy_mj += cell.window_energy_mj;
  }
  if (window_cycles > 0) {
    attach_sweep_latency(report, sweep.cells, window_cycles);
  }
  for (const SweepFailure& f : sweep.failed) {
    report.failed_cells.push_back(
        {f.label, f.attempts, f.timed_out, f.reason});
  }
  return report;
}

}  // namespace hetsched
