// Bench regression gate: compare two JSON result files (BENCH_*.json,
// run reports) and decide, deterministically, whether the current run
// regressed beyond a tolerance.
//
// flatten_json_numbers walks a document (nested objects and arrays
// allowed) and returns every numeric leaf as a dotted path
// ("runs[2].wall_ms"). Each path is classified by name into
// lower-is-better (wall times, overhead ratios, memory, drop/violation
// counts), higher-is-better (throughput, speedups, accuracy) or ignored
// (configuration echoes like core counts, seeds and digests, values that
// are not a quality axis). A lower-is-better metric regresses when
//   current > baseline * (1 + tolerance)
// and a higher-is-better one when
//   current < baseline / (1 + tolerance).
// Non-positive and non-finite baselines give no ratio and never regress.
// Every baseline leaf must exist in the current file, classified or not
// (a silently vanished metric must not pass the gate); leaves new in the
// current file never fail but are listed, so a refreshed baseline cannot
// silently absorb them. Wall-clock `phases_ms.*` leaves differ between
// any two real runs and are excluded.
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

// Diffs `current_json` against `baseline_json` under `tolerance` (0.5 =
// allow 50% slack before failing): one `missing`, `delta` or
// `new-metric` line per differing leaf, then `deltas: N` and a verdict
// line. Sets *regressed (when non-null) on a regressed or vanished
// metric; a document diffed against itself yields `deltas: 0`. Throws
// std::runtime_error on malformed JSON.
std::string bench_diff(std::string_view baseline_json,
                       std::string_view current_json, double tolerance,
                       bool* regressed);

}  // namespace hetsched
