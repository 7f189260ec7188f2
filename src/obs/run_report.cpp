#include "obs/run_report.hpp"

#include "obs/metrics.hpp"
#include "util/csv.hpp"

namespace hetsched {

void PhaseTimers::record(const std::string& name, double ms) {
  entries_.emplace_back(name, ms);
}

void attach_window_summary(RunReport& report,
                           const WindowedCollector& collector,
                           const AnomalyConfig& config) {
  report.window_cycles = collector.window_cycles();
  report.windows_closed = collector.windows_closed();
  report.dropped_windows = collector.dropped_windows();
  report.window_jobs_completed = 0;
  report.window_energy_mj = 0.0;
  for (const WindowRecord& w : collector.windows()) {
    report.window_jobs_completed += w.jobs_completed;
    report.window_energy_mj += w.energy_mj;
  }
  report.anomalies = detect_anomalies(collector.windows(), config);
}

std::string anomaly_to_json(const Anomaly& a) {
  std::string out = "{\"rule\":\"" + std::string(to_string(a.rule)) + "\"";
  out += ",\"window\":" + std::to_string(a.window);
  if (a.core != SIZE_MAX) out += ",\"core\":" + std::to_string(a.core);
  out += ",\"value\":" + CsvWriter::number(a.value);
  out += ",\"reference\":" + CsvWriter::number(a.reference);
  out += ",\"message\":\"" + json_escape(a.message) + "\"}";
  return out;
}

namespace {

std::string latency_metric_to_json(const RunReport::LatencyMetric& m) {
  std::string out = "{\"p50\": " + CsvWriter::number(m.p50);
  out += ", \"p95\": " + CsvWriter::number(m.p95);
  out += ", \"p99\": " + CsvWriter::number(m.p99);
  out += ", \"max\": " + std::to_string(m.max);
  out += ", \"sum\": " + std::to_string(m.sum) + "}";
  return out;
}

std::string latency_stats_to_json(const RunReport::LatencyStats& s) {
  std::string out = "{\"jobs\": " + std::to_string(s.jobs);
  out += ", \"queue\": " + latency_metric_to_json(s.queue);
  out += ", \"service\": " + latency_metric_to_json(s.service);
  out += ", \"stall\": " + latency_metric_to_json(s.stall);
  out += ", \"sojourn\": " + latency_metric_to_json(s.sojourn) + "}";
  return out;
}

}  // namespace

std::string run_report_to_json(const RunReport& r) {
  std::string out = "{\n  \"schema\": " +
                    std::to_string(kTelemetrySchemaVersion) + ",\n";
  out += "  \"command\": \"" + json_escape(r.command) + "\",\n";
  out += "  \"config\": {";
  out += "\"name\": \"" + json_escape(r.name) + "\"";
  out += ", \"policy\": \"" + json_escape(r.policy) + "\"";
  out += ", \"system\": \"" + json_escape(r.system) + "\"";
  out += ", \"discipline\": \"" + json_escape(r.discipline) + "\"";
  out += ", \"cores\": " + std::to_string(r.cores);
  out += ", \"seed\": " + std::to_string(r.seed);
  out += ", \"jobs\": " + std::to_string(r.jobs);
  out += ", \"suite_key\": " + std::to_string(r.suite_key);
  out += "},\n";
  out += "  \"result\": {";
  out += "\"completed_jobs\": " + std::to_string(r.completed_jobs);
  out += ", \"makespan\": " + std::to_string(r.makespan);
  out += ", \"total_energy_mj\": " + CsvWriter::number(r.total_energy_mj);
  out += ", \"stream_digest\": " + std::to_string(r.stream_digest);
  out += "},\n";
  out += "  \"metrics\": " + r.metrics_json + ",\n";
  out += "  \"windows\": {";
  out += "\"window_cycles\": " + std::to_string(r.window_cycles);
  out += ", \"closed\": " + std::to_string(r.windows_closed);
  out += ", \"dropped\": " + std::to_string(r.dropped_windows);
  out += ", \"jobs_completed\": " + std::to_string(r.window_jobs_completed);
  out += ", \"energy_mj\": " + CsvWriter::number(r.window_energy_mj);
  out += ", \"anomalies\": [";
  for (std::size_t i = 0; i < r.anomalies.size(); ++i) {
    out += (i == 0 ? "" : ", ") + anomaly_to_json(r.anomalies[i]);
  }
  out += "]},\n";
  if (r.latency.has_value()) {
    out += "  \"latency\": {";
    out += "\"overall\": " + latency_stats_to_json(*r.latency);
    // Policies keyed by name (not an array): the analyzer recovers the
    // policy label from the flattened numeric path.
    out += ", \"policies\": {";
    for (std::size_t i = 0; i < r.latency_policies.size(); ++i) {
      out += (i == 0 ? "" : ", ");
      out += "\"" + json_escape(r.latency_policies[i].policy) +
             "\": " + latency_stats_to_json(r.latency_policies[i].stats);
    }
    out += "}, \"slowest\": [";
    for (std::size_t i = 0; i < r.latency_slowest.size(); ++i) {
      const RunReport::SlowestJob& j = r.latency_slowest[i];
      out += (i == 0 ? "" : ", ");
      out += "{\"job\": " + std::to_string(j.job_id);
      out += ", \"benchmark\": " + std::to_string(j.benchmark_id);
      out += ", \"arrival\": " + std::to_string(j.arrival);
      out += ", \"queue\": " + std::to_string(j.queue);
      out += ", \"service\": " + std::to_string(j.service);
      out += ", \"stall\": " + std::to_string(j.stall);
      out += ", \"sojourn\": " + std::to_string(j.sojourn);
      out += ", \"slices\": " + std::to_string(j.slices) + "}";
    }
    out += "]},\n";
  }
  if (!r.policy_win_rates.empty() || !r.policy_switches.empty()) {
    out += "  \"portfolio\": {";
    out += "\"win_rates\": [";
    for (std::size_t i = 0; i < r.policy_win_rates.size(); ++i) {
      const RunReport::PolicyWinRate& w = r.policy_win_rates[i];
      out += (i == 0 ? "" : ", ");
      out += "{\"policy\": \"" + json_escape(w.name) + "\"";
      out += ", \"windows_won\": " + std::to_string(w.windows_won);
      out += ", \"win_rate\": " + CsvWriter::number(w.win_rate) + "}";
    }
    out += "], \"switches\": [";
    for (std::size_t i = 0; i < r.policy_switches.size(); ++i) {
      const RunReport::PolicySwitch& s = r.policy_switches[i];
      out += (i == 0 ? "" : ", ");
      out += "{\"window\": " + std::to_string(s.window);
      out += ", \"time\": " + std::to_string(s.time);
      out += ", \"from\": \"" + json_escape(s.from) + "\"";
      out += ", \"to\": \"" + json_escape(s.to) + "\"}";
    }
    out += "]},\n";
  }
  if (r.dag.has_value()) {
    const RunReport::DagSummary& d = *r.dag;
    out += "  \"dag\": {";
    out += "\"nodes\": " + std::to_string(d.nodes);
    out += ", \"edges\": " + std::to_string(d.edges);
    out += ", \"releases\": " + std::to_string(d.releases);
    out += ", \"ready_peak\": " + std::to_string(d.ready_peak);
    out += ", \"max_rank\": " + std::to_string(d.max_rank);
    out += ", \"release_latency_cycles\": " +
           std::to_string(d.release_latency_cycles);
    out += ", \"cp_slack_total\": " + std::to_string(d.cp_slack_total);
    out += "},\n";
  }
  out += "  \"failed_cells\": [";
  for (std::size_t i = 0; i < r.failed_cells.size(); ++i) {
    const RunReport::FailedCell& cell = r.failed_cells[i];
    out += (i == 0 ? "" : ", ");
    out += "{\"label\": \"" + json_escape(cell.label) + "\"";
    out += ", \"attempts\": " + std::to_string(cell.attempts);
    out += ", \"timed_out\": ";
    out += cell.timed_out ? "true" : "false";
    out += ", \"reason\": \"" + json_escape(cell.reason) + "\"}";
  }
  out += "],\n";
  out += "  \"phases_ms\": {";
  if (r.include_phases) {
    for (std::size_t i = 0; i < r.phases_ms.size(); ++i) {
      out += (i == 0 ? "" : ", ");
      out += "\"" + json_escape(r.phases_ms[i].first) +
             "\": " + CsvWriter::number(r.phases_ms[i].second);
    }
  }
  out += "}\n}\n";
  return out;
}

}  // namespace hetsched
