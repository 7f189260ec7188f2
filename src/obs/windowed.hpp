// Windowed streaming telemetry: continuous per-window visibility into a
// run while it executes, instead of one end-of-run aggregate.
//
// A WindowedCollector is a ScheduleObserver that tumbles on simulated
// time: the run is cut into fixed-width windows [k*W, (k+1)*W) and every
// observer callback is folded into the window containing its primary
// timestamp (the time at which the simulator delivered it — slice end,
// idle-interval end, dispatch decision time). Intervals that span
// windows are attributed whole to the window in which they close; this
// keeps the collector single-pass with O(cores) state per window.
//
// Determinism: all callbacks arrive on the single simulation thread in
// event order keyed on SimTime, so the window stream — and its JSONL
// export — is byte-identical across runs, HETSCHED_THREADS values, and
// between run_stream and batch run() on the same arrival stream.
//
// Memory: bounded. Closed windows stream to an optional sink as JSONL
// and are retained up to `max_windows` (drop-oldest beyond that, with a
// drop counter), so a million-job run with a sink attached holds only
// the retention buffer.
//
// On top of the window stream, detect_anomalies applies deterministic
// threshold and trailing-window drift rules (core starvation, idle
// spikes, energy-per-job drift) — the SLO checker behind RunReport.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/schedule_log.hpp"
#include "workload/characterization.hpp"

namespace hetsched {

class JobSpanCollector;

// Shared schema marker for the windows JSONL stream and the RunReport
// document. Version 5 added the per-window `lat_*` latency columns, the
// report `latency` section and this very field on window lines.
inline constexpr int kTelemetrySchemaVersion = 5;

// One closed telemetry window.
struct WindowRecord {
  std::uint64_t index = 0;
  SimTime start = 0;
  SimTime end = 0;  // exclusive
  std::uint64_t jobs_completed = 0;
  std::uint64_t slices = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t stalls = 0;
  // Dispatches of a preempted/re-queued job onto a different core than
  // the one it last ran on, split by cause: `migrations` counts
  // policy-driven moves (ordinary preemption), `fault_migrations` counts
  // re-dispatch forced by a core failure or watchdog fire — recovery, not
  // a scheduling choice, so the two must not be conflated.
  std::uint64_t migrations = 0;
  std::uint64_t fault_migrations = 0;
  std::uint64_t queue_peak = 0;  // max ready-queue depth sampled
  // Completed normal executions whose configuration matches the
  // characterised oracle-best for the benchmark (requires a suite).
  std::uint64_t prediction_hits = 0;
  std::uint64_t prediction_misses = 0;
  std::uint64_t reconfig_attempts = 0;
  std::uint64_t faults = 0;
  // DAG release telemetry (zero for independent-job runs): successors
  // whose last predecessor retired in this window, the eligible-set
  // high-water mark among them, and the summed release latency
  // (release - nominal arrival) and critical-path slack at release.
  std::uint64_t dag_releases = 0;
  std::uint64_t dag_ready_peak = 0;
  std::uint64_t dag_release_latency = 0;
  std::uint64_t dag_cp_slack = 0;
  // Per-job latency of jobs retired in this window, pulled from an
  // attached JobSpanCollector when the window closes (all zero without
  // one): retirement count, bucket-interpolated sojourn percentiles and
  // the exact maximum sojourn in cycles.
  std::uint64_t lat_jobs = 0;
  double lat_p50 = 0.0;
  double lat_p95 = 0.0;
  double lat_p99 = 0.0;
  std::uint64_t lat_max = 0;
  // Execution energy (dynamic + busy static + cpu) of slices closed in
  // this window, in millijoules (requires a suite).
  double energy_mj = 0.0;
  std::vector<Cycles> busy_cycles;  // per core, slices closed here
  std::vector<Cycles> idle_cycles;  // per core, idle intervals closed here

  double energy_per_job_mj() const {
    return jobs_completed == 0
               ? 0.0
               : energy_mj / static_cast<double>(jobs_completed);
  }
  Cycles total_busy_cycles() const;
  Cycles total_idle_cycles() const;
};

struct WindowedOptions {
  // Window width in simulated cycles.
  SimTime window_cycles = 1'000'000;
  // Closed windows retained in memory; 0 = unlimited. Beyond the limit
  // the oldest retained window is dropped (and counted) — attach a sink
  // to keep the full stream without retaining it.
  std::size_t max_windows = 0;
};

class WindowedCollector final : public ScheduleObserver {
 public:
  // `suite` enables the energy and prediction-accuracy columns; when
  // null they stay zero. The suite must outlive the collector.
  WindowedCollector(std::size_t core_count, WindowedOptions options,
                    const CharacterizedSuite* suite = nullptr);

  // Streams each window as one JSONL line the moment it closes. The
  // stream must outlive the collector (or be cleared with nullptr).
  void set_sink(std::ostream* sink) { sink_ = sink; }

  // Wires a span collector as the source of the per-window `lat_*`
  // columns. The span collector must tumble on the same window width,
  // sit BEFORE this collector in the observer fanout (so it has closed
  // window k when this collector closes it) and be finalized first; it
  // must outlive the collector (or be cleared with nullptr).
  void set_span_source(const JobSpanCollector* spans);

  void on_slice(const ScheduledSlice& slice) override;
  void on_fault(const FaultRecord& record) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_reconfig(const ReconfigEvent& event) override;
  void on_idle(const IdleEvent& event) override;
  void on_preempt(const PreemptEvent& event) override;
  void on_stall(const StallEvent& event) override;
  void on_queue_depth(const QueueSample& sample) override;
  void on_dag_release(const DagReleaseEvent& event) override;

  // Closes the in-progress window (if it saw any event) after the run.
  // Idempotent; call before reading windows() / writing JSONL.
  void finalize();

  // Closed windows currently retained, oldest first.
  const std::vector<WindowRecord>& windows() const { return windows_; }
  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t dropped_windows() const { return dropped_windows_; }
  SimTime window_cycles() const { return options_.window_cycles; }

  // Writes the retained windows as JSONL (one object per line).
  void write_jsonl(std::ostream& out) const;

  // Checkpoint support: serializes the in-progress window, the retained
  // closed windows and the migration-detector state, so a restored
  // collector folds the remaining events into the exact window stream
  // the uninterrupted run would produce. Closed windows never change, so
  // each one is formatted by the first save that sees it and that text
  // is reused by every later save. restore_state requires a
  // collector constructed with the same core count and window width and
  // throws std::runtime_error (tagged with `context`) on malformed or
  // mismatched input.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  void advance(SimTime t);  // close windows until t falls in the current
  void close_window();
  void reset_current(SimTime start);

  WindowedOptions options_;
  const CharacterizedSuite* suite_;
  std::ostream* sink_ = nullptr;
  const JobSpanCollector* spans_ = nullptr;

  WindowRecord current_;
  bool saw_event_ = false;     // current window (or any before finalize)
  bool finalized_ = false;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t dropped_windows_ = 0;
  std::vector<WindowRecord> windows_;
  // save_state text of windows_[0 .. saved_windows_), one line each.
  mutable std::string saved_text_;
  mutable std::size_t saved_windows_ = 0;
  // Last core of jobs whose latest execution did not complete (preempted,
  // watchdog-cleared or failed-core victims) — the migration detector.
  // `fault` distinguishes fault-recovery re-queues (core failure,
  // watchdog fire, hung-victim preemption) from policy preemption, so
  // the re-dispatch lands in the right migration counter. Bounded by the
  // re-queued population, not the stream length.
  struct LastCore {
    std::size_t core = 0;
    bool fault = false;
  };
  std::unordered_map<std::uint64_t, LastCore> last_core_;
};

// One JSONL line for a window (no trailing newline). Deterministic:
// integers verbatim, doubles at max_digits10.
std::string window_to_json(const WindowRecord& window);

// --- Anomaly / SLO rules over a window stream ---------------------------

struct AnomalyConfig {
  // A core with zero busy cycles for this many consecutive windows —
  // while the system dispatched work in each of them — is starved.
  std::size_t starvation_windows = 3;
  // Total idle cycles above `idle_spike_factor` x the trailing mean.
  double idle_spike_factor = 3.0;
  // Energy-per-job above `energy_drift_factor` x the trailing mean.
  double energy_drift_factor = 1.5;
  // Window p99 sojourn above `tail_latency_factor` x the trailing mean
  // p99 over productive windows (lat_jobs > 0). Fires only when the
  // window stream carries latency columns (a span collector was wired).
  double tail_latency_factor = 3.0;
  // Windows of history the drift rules average over.
  std::size_t trailing_windows = 4;
  // Maximum real-window index distance the energy-drift rule may look
  // back across its trailing productive windows. Sparse arrivals leave
  // long idle gaps between productive windows; without this bound a
  // window would be judged against stale data from arbitrarily far in
  // the past. 0 = unbounded (the pre-fix behaviour).
  std::size_t drift_lookback_windows = 16;
  // Hard cap on reported anomalies (the rest are counted, not stored).
  std::size_t max_anomalies = 64;
};

struct Anomaly {
  enum class Rule {
    kCoreStarvation,
    kIdleSpike,
    kEnergyDrift,
    kTailLatencySpike,
  };

  Rule rule = Rule::kCoreStarvation;
  std::uint64_t window = 0;         // window index the rule fired on
  std::size_t core = SIZE_MAX;      // starvation only; SIZE_MAX = n/a
  double value = 0.0;               // observed quantity
  double reference = 0.0;           // threshold it was compared against
  std::string message;
};

std::string_view to_string(Anomaly::Rule rule);

// Applies every rule to `windows` in order. Deterministic: pure function
// of the window stream and the config. Returns at most
// config.max_anomalies entries (earliest first).
std::vector<Anomaly> detect_anomalies(std::span<const WindowRecord> windows,
                                      const AnomalyConfig& config);

// Validates the telemetry/checkpoint interval pair before it reaches a
// collector or the checkpoint driver: both must be >= 1 and their product
// (the checkpoint stride in simulated cycles) must fit the simulated
// clock with headroom. Returns an empty string when valid, otherwise a
// human-readable rejection for the CLI to print.
std::string window_interval_error(std::uint64_t window_cycles,
                                  std::uint64_t checkpoint_every);

}  // namespace hetsched
