#include "experiment/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/observability.hpp"
#include "obs/windowed.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

Scenario SweepGrid::cell_scenario(std::size_t index) const {
  HETSCHED_REQUIRE(index < cell_count());
  const std::size_t policy_i = index % policies.size();
  const std::size_t gap_i = (index / policies.size()) % mean_gaps.size();
  const std::size_t core_i = index / (policies.size() * mean_gaps.size());

  Scenario cell = base;
  cell.cores = core_counts[core_i];
  cell.arrivals.mean_interarrival_cycles = mean_gaps[gap_i];
  cell.policy = policies[policy_i];
  if (cell.policy == "base") {
    cell.system = Scenario::SystemKind::kFixedBase;
  } else if (cell.cores == 4) {
    cell.system = Scenario::SystemKind::kPaperQuad;
  } else {
    cell.system = Scenario::SystemKind::kScaledHeterogeneous;
  }
  cell.name = base.name + "-cell" + std::to_string(index);
  return cell;
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

std::vector<SweepCell> run_sweep(
    const SweepGrid& grid, const ScenarioContext& context,
    std::size_t shards, ThreadPool& pool,
    std::span<ScheduleObserver* const> cell_observers) {
  grid.validate();
  HETSCHED_REQUIRE(shards >= 1 && "shards must be >= 1");
  const std::size_t cells = grid.cell_count();
  HETSCHED_REQUIRE((cell_observers.empty() ||
                    cell_observers.size() == cells) &&
                   "cell_observers must be empty or one per cell");
  shards = std::min(shards, cells);

  std::vector<SweepCell> results(cells);
  // Shard s owns the contiguous index range [s*cells/shards,
  // (s+1)*cells/shards); each cell writes only its own slot, so the
  // ThreadPool determinism contract makes the merge order-independent.
  pool.parallel_for(shards, [&](std::size_t shard) {
    const std::size_t begin = shard * cells / shards;
    const std::size_t end = (shard + 1) * cells / shards;
    for (std::size_t i = begin; i < end; ++i) {
      const Scenario scenario = grid.cell_scenario(i);
      ScheduleObserver* extra =
          cell_observers.empty() ? nullptr : cell_observers[i];
      const ScenarioOutcome outcome = run_scenario(scenario, context, extra);

      SweepCell& cell = results[i];
      cell.index = i;
      cell.cores = scenario.cores;
      cell.mean_gap = scenario.arrivals.mean_interarrival_cycles;
      cell.policy = scenario.policy;
      const std::size_t gap_i =
          (i / grid.policies.size()) % grid.mean_gaps.size();
      cell.label = "c" + std::to_string(cell.cores) + ".g" +
                   std::to_string(gap_i) + "." + cell.policy;
      cell.result = outcome.result;
      cell.stream_digest = outcome.stream.digest();
      cell.invariant_violations = outcome.stream.invariant_violations();
    }
  });
  return results;
}

std::vector<SweepCell> run_sweep(
    const SweepGrid& grid, const ScenarioContext& context,
    std::span<ScheduleObserver* const> cell_observers) {
  return run_sweep(grid, context, grid.cell_count(), ThreadPool::global(),
                   cell_observers);
}

namespace {

namespace st = snapshot_text;

constexpr int kManifestVersion = 1;

// Identity fields shared by every path that materializes a cell record.
void fill_cell_identity(SweepCell& cell, const SweepGrid& grid,
                        std::size_t index) {
  const Scenario scenario = grid.cell_scenario(index);
  cell.index = index;
  cell.cores = scenario.cores;
  cell.mean_gap = scenario.arrivals.mean_interarrival_cycles;
  cell.policy = scenario.policy;
  const std::size_t gap_i =
      (index / grid.policies.size()) % grid.mean_gaps.size();
  cell.label = "c" + std::to_string(cell.cores) + ".g" +
               std::to_string(gap_i) + "." + cell.policy;
}

// Runs one cell to completion under a cooperative wall-clock deadline:
// the simulation advances in fixed simulated-time slices and the clock
// is checked between slices, so a runaway cell is abandoned at a
// deterministic simulation state boundary without detaching threads.
SweepCell run_supervised_cell(const SweepGrid& grid, std::size_t index,
                              const ScenarioContext& context,
                              const SweepSupervisorOptions& options) {
  const Scenario scenario = grid.cell_scenario(index);
  std::optional<WindowedCollector> collector;
  if (options.window_cycles > 0) {
    collector.emplace(scenario.make_system().core_count(),
                      WindowedOptions{options.window_cycles, 0},
                      &context.suite());
  }
  ScenarioRun run(scenario, context,
                  collector.has_value() ? &*collector : nullptr);
  run.start();

  if (options.cell_timeout_ms == 0) {
    run.advance_until(std::numeric_limits<SimTime>::max());
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.cell_timeout_ms);
    const SimTime slice = options.supervision_slice_cycles > 0
                              ? options.supervision_slice_cycles
                              : SimTime{1'000'000};
    for (std::uint64_t k = 1; run.advance_until(k * slice); ++k) {
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
  if (collector.has_value()) {
    collector->finalize();
    cell.windows_closed = collector->windows_closed();
    cell.dropped_windows = collector->dropped_windows();
    for (const WindowRecord& w : collector->windows()) {
      cell.window_jobs_completed += w.jobs_completed;
      cell.window_energy_mj += w.energy_mj;
    }
    std::ostringstream jsonl;
    collector->write_jsonl(jsonl);
    cell.windows_jsonl = jsonl.str();
  }
  return cell;
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
    // Raw JSONL bytes, length-prefixed: content is opaque to the
    // manifest parser and reproduced byte-for-byte on resume.
    body << "\nwindows-jsonl " << cell.windows_jsonl.size() << "\n"
         << cell.windows_jsonl << "\n";
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

  std::string token;
  if (!(in >> token) || token != "hetsched-sweep-manifest") {
    st::fail(context, "not a hetsched sweep manifest");
  }
  if (st::read_value<int>(in, "version", context) != kManifestVersion) {
    st::fail(context, "unsupported manifest version");
  }
  if (!(in >> token) || token != "grid-hash") {
    st::fail(context, "expected 'grid-hash'");
  }
  if (st::read_value<std::uint64_t>(in, "grid hash", context) !=
      sweep_grid_fingerprint(grid)) {
    st::fail(context, "manifest was written for a different sweep grid");
  }
  if (!(in >> token) || token != "cells") {
    st::fail(context, "expected 'cells'");
  }
  if (st::read_value<std::size_t>(in, "cell count", context) !=
      grid.cell_count()) {
    st::fail(context, "manifest cell count does not match the grid");
  }
  const auto completed =
      st::read_value<std::size_t>(in, "completed count", context);
  if (completed > grid.cell_count()) {
    st::fail(context, "completed count exceeds the grid");
  }

  std::vector<SweepCell> cells;
  std::size_t last_index = 0;
  for (std::size_t n = 0; n < completed; ++n) {
    if (!(in >> token) || token != "cell") {
      st::fail(context, "expected 'cell'");
    }
    const auto index =
        st::read_value<std::size_t>(in, "cell index", context);
    if (index >= grid.cell_count()) {
      st::fail(context, "cell index out of range");
    }
    if (n > 0 && index <= last_index) {
      st::fail(context, "cell indices out of order");
    }
    last_index = index;
    SweepCell cell;
    fill_cell_identity(cell, grid, index);
    std::string label;
    if (!(in >> label) || label != cell.label) {
      st::fail(context, "cell label does not match the grid");
    }
    load_simulation_result(in, cell.result, context);
    if (!(in >> token) || token != "stream") {
      st::fail(context, "expected 'stream'");
    }
    cell.stream_digest =
        st::read_value<std::uint64_t>(in, "stream digest", context);
    cell.invariant_violations =
        st::read_value<std::uint64_t>(in, "invariant violations", context);
    if (!(in >> token) || token != "windows") {
      st::fail(context, "expected 'windows'");
    }
    cell.windows_closed =
        st::read_value<std::uint64_t>(in, "windows closed", context);
    cell.dropped_windows =
        st::read_value<std::uint64_t>(in, "dropped windows", context);
    cell.window_jobs_completed =
        st::read_value<std::uint64_t>(in, "window jobs", context);
    cell.window_energy_mj =
        st::read_value<double>(in, "window energy", context);
    if (!(in >> token) || token != "windows-jsonl") {
      st::fail(context, "expected 'windows-jsonl'");
    }
    const auto bytes =
        st::read_value<std::size_t>(in, "jsonl byte count", context);
    in.get();  // the newline terminating the length prefix
    cell.windows_jsonl.resize(bytes);
    if (bytes > 0 &&
        !in.read(cell.windows_jsonl.data(),
                 static_cast<std::streamsize>(bytes))) {
      st::fail(context, "truncated window JSONL payload");
    }
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
  shards = std::min(shards, cells);

  SupervisedSweepResult sweep;
  sweep.cells.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    fill_cell_identity(sweep.cells[i], grid, i);
    sweep.cells[i].completed = false;
  }

  if (!options.resume_manifest.empty() ||
      !options.resume_manifest_text.empty()) {
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
          SweepCell cell = run_supervised_cell(grid, i, context, options);
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

}  // namespace hetsched
