// Unified run report: one JSON document that captures what ran (config
// echo + suite cache key), what came out (final result numbers and the
// metrics-registry snapshot), how it evolved (window summary + anomaly
// verdicts from the windowed collector) and how long the wall-clock
// phases took. Written by the CLI behind --report-out on run, scenario
// and sweep commands.
//
// Everything except the phase timers is deterministic: two identical
// runs differ only inside "phases_ms". Tests that compare reports strip
// or ignore that section.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/windowed.hpp"

namespace hetsched {

// Named wall-clock phase durations (setup / run / export ...). Scopes
// time themselves with a steady clock; entries keep insertion order.
class PhaseTimers {
 public:
  class Scope {
   public:
    Scope(PhaseTimers& owner, std::string name)
        : owner_(owner),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}
    ~Scope() {
      const auto stop = std::chrono::steady_clock::now();
      owner_.record(name_,
                    std::chrono::duration<double, std::milli>(stop - start_)
                        .count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimers& owner_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }
  void record(const std::string& name, double ms);
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

struct RunReport {
  // What ran. The CLI fills these from its command line / scenario; the
  // obs layer deliberately knows nothing about Scenario.
  std::string command;    // run | scenario | sweep
  std::string name;       // scenario/run label
  std::string policy;
  std::string system;
  std::string discipline;
  std::size_t cores = 0;
  std::uint64_t seed = 0;
  std::uint64_t jobs = 0;
  std::uint64_t suite_key = 0;  // suite_cache_key of the characterisation

  // Final outcome.
  std::uint64_t completed_jobs = 0;
  std::uint64_t makespan = 0;
  double total_energy_mj = 0.0;
  std::uint64_t stream_digest = 0;  // 0 when the run kept no StreamStats

  // Full metrics-registry snapshot, embedded verbatim ("{}" when the
  // run kept no registry).
  std::string metrics_json = "{}";

  // Window summary (zero/empty without a windowed collector).
  std::uint64_t window_cycles = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t dropped_windows = 0;
  std::uint64_t window_jobs_completed = 0;
  double window_energy_mj = 0.0;
  std::vector<Anomaly> anomalies;

  // Per-job latency distributions (absent without a span collector).
  // Plain data filled by attach_latency_summary (obs/latency.hpp) from
  // JobSpanCollector histograms; all cycle quantities are exact integers
  // except the bucket-interpolated percentiles.
  struct LatencyMetric {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
  };
  struct LatencyStats {
    std::uint64_t jobs = 0;
    LatencyMetric queue;
    LatencyMetric service;
    LatencyMetric stall;
    LatencyMetric sojourn;
  };
  struct PolicyLatency {
    std::string policy;
    LatencyStats stats;
  };
  struct SlowestJob {
    std::uint64_t job_id = 0;
    std::uint64_t benchmark_id = 0;
    std::uint64_t arrival = 0;
    std::uint64_t queue = 0;
    std::uint64_t service = 0;
    std::uint64_t stall = 0;
    std::uint64_t sojourn = 0;
    std::uint64_t slices = 0;
  };
  std::optional<LatencyStats> latency;
  std::vector<PolicyLatency> latency_policies;
  std::vector<SlowestJob> latency_slowest;

  // Portfolio meta-scheduler summary (empty unless the run's policy was
  // a portfolio). Plain data filled by the scenario/CLI layer from core
  // PortfolioStats — the obs layer deliberately doesn't link core.
  struct PolicyWinRate {
    std::string name;
    std::uint64_t windows_won = 0;  // windows this contender was active
    double win_rate = 0.0;          // windows_won / closed windows
  };
  struct PolicySwitch {
    std::uint64_t window = 0;  // window index the switch took effect at
    std::uint64_t time = 0;    // simulated boundary time of the switch
    std::string from;
    std::string to;
  };
  std::vector<PolicyWinRate> policy_win_rates;
  std::vector<PolicySwitch> policy_switches;

  // DAG task-graph summary (absent for independent-job runs). Plain data
  // filled by the scenario/CLI layer from scenario DagStats — the obs
  // layer deliberately doesn't link scenario.
  struct DagSummary {
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    std::uint64_t releases = 0;    // dependent (non-root) releases
    std::uint64_t ready_peak = 0;  // eligible-set high-water mark
    std::uint32_t max_rank = 0;    // critical-path length in edges
    std::uint64_t release_latency_cycles = 0;  // sum over releases
    std::uint64_t cp_slack_total = 0;          // sum over releases
  };
  std::optional<DagSummary> dag;

  // Supervised-sweep quarantine: cells that failed or timed out and were
  // excluded from the merged results (empty for unsupervised runs).
  struct FailedCell {
    std::string label;
    std::uint32_t attempts = 0;
    bool timed_out = false;
    std::string reason;
  };
  std::vector<FailedCell> failed_cells;

  std::vector<std::pair<std::string, double>> phases_ms;
  // When false, "phases_ms" is emitted empty — the deterministic-report
  // mode used to compare a resumed run against an uninterrupted one
  // byte-for-byte.
  bool include_phases = true;
};

// Copies a finalized collector's summary and anomaly verdicts into the
// report.
void attach_window_summary(RunReport& report,
                           const WindowedCollector& collector,
                           const AnomalyConfig& config);

std::string anomaly_to_json(const Anomaly& anomaly);
std::string run_report_to_json(const RunReport& report);

}  // namespace hetsched
