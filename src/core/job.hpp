// Job and execution-kind types shared across the scheduler core.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/units.hpp"

namespace hetsched {

// One arrival of a benchmark (applications are identified by their
// benchmark id, which indexes the profiling table — Section V).
struct Job {
  std::uint64_t job_id = 0;       // unique per arrival
  std::size_t benchmark_id = 0;   // index into the characterised suite
  SimTime arrival = 0;

  // --- real-time extension (paper future work, §VIII) ---
  // Larger value = more important. 0 for the paper's baseline workloads.
  int priority = 0;
  // Absolute completion deadline; nullopt = best-effort job.
  std::optional<SimTime> deadline;
  // Fraction of the benchmark still to execute; < 1 after a preemption.
  double remaining_fraction = 1.0;

  // --- DAG extension ---
  // Unit-weight longest-path-to-sink rank in the job's precedence graph;
  // 0 for independent jobs and sinks. The cp-aware policy reads it as a
  // stall-cost boost.
  std::uint32_t cp_rank = 0;
};

// A job a paused simulator holds (admitted, not retired): its id and,
// when a core runs it, the cycle its current execution started at.
struct HeldJob {
  std::uint64_t job_id = 0;
  std::optional<SimTime> started_at;
};

// Why an execution was scheduled; drives overhead accounting.
enum class ExecutionKind {
  kNormal,     // run in a best-known configuration
  kProfiling,  // base-configuration run gathering counter statistics
  kTuning,     // design-space exploration step (Figure 5 heuristic or
               // the optimal system's exhaustive search)
};

std::string_view to_string(ExecutionKind k);

}  // namespace hetsched
