#include "obs/analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/bench_diff.hpp"

namespace hetsched {
namespace {

using Flat = std::vector<std::pair<std::string, double>>;

std::map<std::string, double> to_map(const Flat& flat) {
  return std::map<std::string, double>(flat.begin(), flat.end());
}

double get(const std::map<std::string, double>& m, const std::string& key,
           double fallback = 0.0) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

bool has(const std::map<std::string, double>& m, const std::string& key) {
  return m.find(key) != m.end();
}

// Fixed printf renderings: deterministic for identical doubles, and far
// more readable in a table than max_digits10.
std::string num0(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string num1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string rpad(std::string s, std::size_t width) {
  while (s.size() < width) s.push_back(' ');
  return s;
}

std::string lpad(std::string s, std::size_t width) {
  while (s.size() < width) s.insert(s.begin(), ' ');
  return s;
}

// Percentage of `part` in `whole`, "-" when the whole is zero.
std::string share(double part, double whole) {
  if (whole <= 0.0) return "-";
  return num0(100.0 * part / whole) + "%";
}

// One latency-breakdown table row from the stats object at `base`
// ("latency.overall" or "latency.policies.<name>").
std::string latency_row(const std::map<std::string, double>& m,
                        const std::string& label, const std::string& base) {
  std::string row = rpad(label, 28);
  row += lpad(num0(get(m, base + ".jobs")), 8);
  for (const char* metric : {"queue", "service", "stall"}) {
    row += lpad(num0(get(m, base + "." + metric + ".p50")), 11);
    row += lpad(num0(get(m, base + "." + metric + ".p99")), 11);
  }
  row += lpad(num0(get(m, base + ".sojourn.p50")), 11);
  row += lpad(num0(get(m, base + ".sojourn.p95")), 11);
  row += lpad(num0(get(m, base + ".sojourn.p99")), 11);
  row += lpad(num0(get(m, base + ".sojourn.max")), 11);
  return row + "\n";
}

// Policy labels recovered from the flattened paths, in document order
// (the report emits them name-sorted).
std::vector<std::string> policy_labels(const Flat& flat) {
  const std::string prefix = "latency.policies.";
  const std::string suffix = ".jobs";
  std::vector<std::string> labels;
  for (const auto& [path, value] : flat) {
    if (path.size() > prefix.size() + suffix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      labels.push_back(path.substr(
          prefix.size(), path.size() - prefix.size() - suffix.size()));
    }
  }
  return labels;
}

// Per-line maps of the windows JSONL stream, in stream order. Lines are
// independent JSON objects; pre-schema-5 lines simply lack the lat_*
// keys and read as zero.
std::vector<std::map<std::string, double>> parse_windows(
    std::string_view jsonl) {
  std::vector<std::map<std::string, double>> windows;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(start, end - start);
    start = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    windows.push_back(to_map(flatten_json_numbers(line)));
  }
  return windows;
}

}  // namespace

std::string analyze_run(std::string_view report_json,
                        std::string_view windows_jsonl,
                        const AnalyzeOptions& options) {
  const Flat flat = flatten_json_numbers(report_json);
  const std::map<std::string, double> m = to_map(flat);
  std::string out;

  out += "hetsched analyze (report schema " + num0(get(m, "schema")) +
         ")\n";
  out += "jobs: " + num0(get(m, "result.completed_jobs"));
  out += "  makespan: " + num0(get(m, "result.makespan"));
  out += "  energy_mj: " + num1(get(m, "result.total_energy_mj"));
  out += "  windows: " + num0(get(m, "windows.closed")) + "\n";

  out += "\n== latency breakdown (cycles) ==\n";
  if (has(m, "latency.overall.jobs")) {
    out += rpad("population", 28) + lpad("jobs", 8);
    for (const char* col :
         {"q.p50", "q.p99", "svc.p50", "svc.p99", "stl.p50", "stl.p99",
          "soj.p50", "soj.p95", "soj.p99", "soj.max"}) {
      out += lpad(col, 11);
    }
    out += "\n";
    out += latency_row(m, "overall", "latency.overall");
    for (const std::string& label : policy_labels(flat)) {
      out += latency_row(m, label, "latency.policies." + label);
    }
  } else {
    out += "(no latency section — run with a span collector, report "
           "schema >= 5)\n";
  }

  out += "\n== slowest jobs ==\n";
  if (has(m, "latency.slowest[0].job")) {
    out += lpad("job", 8) + lpad("benchmark", 10) + lpad("arrival", 14) +
           lpad("queue", 12) + lpad("service", 12) + lpad("stall", 12) +
           lpad("sojourn", 12) + lpad("slices", 8) +
           "   q/svc/stall share\n";
    for (std::size_t i = 0; i < options.top; ++i) {
      const std::string base = "latency.slowest[" + std::to_string(i) + "]";
      if (!has(m, base + ".job")) break;
      const double sojourn = get(m, base + ".sojourn");
      const double queue = get(m, base + ".queue");
      const double service = get(m, base + ".service");
      const double stall = get(m, base + ".stall");
      out += lpad(num0(get(m, base + ".job")), 8);
      out += lpad(num0(get(m, base + ".benchmark")), 10);
      out += lpad(num0(get(m, base + ".arrival")), 14);
      out += lpad(num0(queue), 12);
      out += lpad(num0(service), 12);
      out += lpad(num0(stall), 12);
      out += lpad(num0(sojourn), 12);
      out += lpad(num0(get(m, base + ".slices")), 8);
      out += "   " + share(queue, sojourn) + "/" + share(service, sojourn) +
             "/" + share(stall, sojourn) + "\n";
    }
  } else {
    out += "(none recorded)\n";
  }

  if (!windows_jsonl.empty()) {
    const auto windows = parse_windows(windows_jsonl);
    std::uint64_t retired = 0;
    for (const auto& w : windows) {
      retired += static_cast<std::uint64_t>(get(w, "lat_jobs"));
    }
    out += "\n== windows ==\n";
    out += "windows: " + std::to_string(windows.size()) +
           "  retired jobs: " + std::to_string(retired) + "\n";
    // Hottest windows by p99 sojourn (productive windows only), p99
    // descending with window index as the deterministic tie-break.
    std::vector<const std::map<std::string, double>*> hot;
    for (const auto& w : windows) {
      if (get(w, "lat_jobs") > 0.0) hot.push_back(&w);
    }
    std::stable_sort(hot.begin(), hot.end(),
                     [](const auto* a, const auto* b) {
                       const double pa = get(*a, "lat_p99");
                       const double pb = get(*b, "lat_p99");
                       if (pa != pb) return pa > pb;
                       return get(*a, "window") < get(*b, "window");
                     });
    if (hot.size() > options.top) hot.resize(options.top);
    if (!hot.empty()) {
      out += "hottest windows by p99 sojourn:\n";
      out += lpad("window", 8) + lpad("jobs", 8) + lpad("p50", 12) +
             lpad("p95", 12) + lpad("p99", 12) + lpad("max", 12) + "\n";
      for (const auto* w : hot) {
        out += lpad(num0(get(*w, "window")), 8);
        out += lpad(num0(get(*w, "lat_jobs")), 8);
        out += lpad(num0(get(*w, "lat_p50")), 12);
        out += lpad(num0(get(*w, "lat_p95")), 12);
        out += lpad(num0(get(*w, "lat_p99")), 12);
        out += lpad(num0(get(*w, "lat_max")), 12);
        out += "\n";
      }
    } else {
      out += "(no windows with latency columns)\n";
    }
  }

  if (has(m, "dag.releases")) {
    out += "\n== dag releases ==\n";
    const double releases = get(m, "dag.releases");
    out += "nodes: " + num0(get(m, "dag.nodes"));
    out += "  edges: " + num0(get(m, "dag.edges"));
    out += "  releases: " + num0(releases);
    out += "  ready_peak: " + num0(get(m, "dag.ready_peak"));
    out += "  max_rank: " + num0(get(m, "dag.max_rank")) + "\n";
    const double latency = get(m, "dag.release_latency_cycles");
    out += "release latency: " + num0(latency) + " cycles total";
    if (releases > 0.0) {
      out += ", " + num1(latency / releases) + " per release";
    }
    out += "  cp_slack_total: " + num0(get(m, "dag.cp_slack_total")) + "\n";
  }

  return out;
}

}  // namespace hetsched
