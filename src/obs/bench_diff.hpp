// Bench regression gate: compare two BENCH_*.json result files and
// decide — deterministically — whether the current run regressed beyond
// a tolerance.
//
// The bench JSON files are flat-ish objects of numeric results (nested
// objects and arrays allowed); flatten_json_numbers walks one and
// returns every numeric leaf as a dotted path ("runs[2].wall_ms").
// Each path is classified by name into lower-is-better (wall times,
// overhead ratios, memory, drop/violation counts), higher-is-better
// (throughput, speedups, accuracy) or ignored (configuration echoes
// like core counts, seeds and digests — values that are not a quality
// axis). A lower-is-better metric regresses when
//   current > baseline * (1 + tolerance)
// and a higher-is-better one when
//   current < baseline / (1 + tolerance).
// A baseline key missing from the current file is always a regression
// (a silently vanished metric must not pass the gate); new keys in the
// current file never fail the gate but are surfaced as `new-metric`
// lines, so a refreshed baseline cannot silently absorb added keys.
// Non-positive and non-finite baselines are skipped — no meaningful
// ratio exists.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hetsched {

enum class MetricDirection { kLowerIsBetter, kHigherIsBetter, kIgnored };

// Classification by path name alone (pure function; see header comment).
MetricDirection classify_metric(std::string_view path);

// The regression rule above for one metric in both files: ignored
// metrics and non-positive or non-finite baselines never regress, and a
// NaN or infinite current value always does.
bool metric_regressed(MetricDirection direction, double baseline,
                      double current, double tolerance);

// Every numeric leaf of `json` as (dotted path, value), in document
// order. Minimal JSON subset: objects, arrays, numbers, strings,
// true/false/null. Throws std::runtime_error on malformed input.
std::vector<std::pair<std::string, double>> flatten_json_numbers(
    std::string_view json);

struct BenchComparison {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  MetricDirection direction = MetricDirection::kIgnored;
  bool regressed = false;
};

struct BenchDiffResult {
  std::vector<BenchComparison> compared;       // classified, both files
  std::vector<std::string> missing_in_current; // baseline-only paths
  std::vector<std::string> new_in_current;     // current-only paths
  std::vector<std::string> skipped;            // ignored or no baseline
  bool regressed() const;

  // One line per compared metric plus a verdict, suitable for stdout.
  std::string summary(double tolerance) const;
};

// Compares two bench JSON documents under `tolerance` (0.5 = allow 50%
// slack before failing). Throws std::runtime_error on malformed JSON.
BenchDiffResult bench_diff(std::string_view baseline_json,
                           std::string_view current_json, double tolerance);

}  // namespace hetsched
