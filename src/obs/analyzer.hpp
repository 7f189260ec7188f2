// Offline trace forensics behind `hetsched analyze`: turns a RunReport
// JSON document plus (optionally) its windows JSONL stream into a
// human-readable latency post-mortem — per-policy breakdown table,
// slowest jobs with per-phase attribution, hottest windows by tail
// latency, and a DAG release-latency breakdown when the report carries a
// `dag` section. Diffing two reports is bench_diff's job
// (`obs/bench_diff.hpp`).
//
// Everything is driven off flatten_json_numbers: the analyzer consumes
// only numeric leaves (policy names are recovered from the flattened
// path), so it tolerates schema evolution — absent sections or columns
// (pre-schema-5 files have no `schema` field and no `lat_*` columns)
// simply leave their table empty instead of failing.
//
// Determinism: output is a pure function of the input documents; doubles
// render through fixed printf formats.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hetsched {

struct AnalyzeOptions {
  // Rows shown in the slowest-jobs and hottest-windows tables.
  std::size_t top = 8;
};

// Renders the forensics report. `windows_jsonl` may be empty (the
// windows section is then omitted). Throws std::runtime_error on
// malformed JSON.
std::string analyze_run(std::string_view report_json,
                        std::string_view windows_jsonl,
                        const AnalyzeOptions& options);

}  // namespace hetsched
