// Arrival-stream generation (Section V: "5000 uniform distribution
// arrival times ... On arrival, benchmarks were enqueued and processed on
// a FIFO basis").
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace hetsched {

struct JobArrival {
  std::size_t benchmark_id = 0;  // index into the CharacterizedSuite
  SimTime arrival = 0;
  // Real-time extension (paper future work): priority level and absolute
  // completion deadline. Defaults reproduce the paper's baseline
  // best-effort workload.
  int priority = 0;
  std::optional<SimTime> deadline;
  // DAG extension: unit-weight longest-path-to-sink rank of this job in
  // its precedence graph (0 for independent jobs and sinks). Carried on
  // the arrival so batch replays of a realized DAG stream see the same
  // per-job rank the streaming run did.
  std::uint32_t cp_rank = 0;
};

enum class InterarrivalDistribution { kUniform, kExponential, kFixed };

struct ArrivalOptions {
  std::size_t count = 5000;
  // Mean inter-arrival gap in cycles. kUniform draws from
  // [0, 2*mean] (mean-preserving), kExponential from Exp(1/mean).
  double mean_interarrival_cycles = 55000.0;
  InterarrivalDistribution distribution = InterarrivalDistribution::kUniform;

  // Two-phase burstiness (a simple MMPP): when burstiness > 1, arrivals
  // alternate between a burst phase with gaps mean/burstiness and a quiet
  // phase with gaps mean*(2 - 1/burstiness), switching phase with
  // probability `phase_switch` after each arrival. The mean gap is
  // preserved; 1.0 disables bursts.
  double burstiness = 1.0;
  double phase_switch = 0.02;
};

// Draws `count` arrivals whose benchmark ids are sampled uniformly from
// `benchmark_ids`; returns them sorted by arrival time.
std::vector<JobArrival> generate_arrivals(
    const std::vector<std::size_t>& benchmark_ids,
    const ArrivalOptions& options, Rng& rng);

// Real-time extension: deadline and priority assignment for an existing
// stream. Each job's deadline becomes
//   arrival + slack_factor * reference_cycles(benchmark)
// where reference_cycles is supplied per benchmark id (typically the
// base-configuration execution time). Priorities are drawn uniformly
// from [0, priority_levels).
struct RealtimeOptions {
  double slack_factor = 4.0;   // tighter < looser
  int priority_levels = 1;     // 1 = everyone priority 0
};

void assign_realtime_attributes(
    std::vector<JobArrival>& arrivals,
    const std::vector<Cycles>& reference_cycles_by_benchmark,
    const RealtimeOptions& options, Rng& rng);

// Pull-based arrival production for streaming simulation: the simulator
// asks for one arrival at a time, so million-job streams never need to
// be materialised. Implementations must yield arrivals in non-decreasing
// arrival-time order.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  // The next arrival, or nullopt when the stream is exhausted. Called
  // again after exhaustion it keeps returning nullopt.
  virtual std::optional<JobArrival> next() = 0;

  // Release-on-completion support. A consumer holding a one-arrival
  // lookahead must re-poll when this returns true: events the consumer
  // itself produced (job completions) may have made an earlier arrival
  // eligible, or refilled an exhausted stream. The consumer pushes its
  // stale lookahead back with unget() and calls next() again; the source
  // clears the flag on every next(). Sources without feedback (the
  // default) are never stale and ignore unget.
  virtual bool lookahead_stale() const { return false; }
  virtual void unget(const JobArrival& arrival) { (void)arrival; }
};

// Adapts a pre-built (sorted) arrival vector to the pull interface.
class VectorArrivalSource final : public ArrivalSource {
 public:
  explicit VectorArrivalSource(const std::vector<JobArrival>& arrivals)
      : arrivals_(&arrivals) {}

  std::optional<JobArrival> next() override {
    if (index_ >= arrivals_->size()) return std::nullopt;
    return (*arrivals_)[index_++];
  }

 private:
  const std::vector<JobArrival>* arrivals_;
  std::size_t index_ = 0;
};

// Generates the same stream as generate_arrivals (bit-identical for the
// same options and seed — arrival times are non-decreasing by
// construction, so no sort is needed) one arrival at a time in O(1)
// memory. Optionally assigns real-time attributes exactly as
// assign_realtime_attributes would, drawing from an independent stream.
class GeneratedArrivalStream final : public ArrivalSource {
 public:
  GeneratedArrivalStream(std::vector<std::size_t> benchmark_ids,
                         const ArrivalOptions& options, std::uint64_t seed);

  // Enables deadline/priority assignment (call before the first next()).
  // `reference_cycles_by_benchmark` must cover every benchmark id.
  void set_realtime(const std::vector<Cycles>& reference_cycles_by_benchmark,
                    const RealtimeOptions& options, std::uint64_t seed);

  std::optional<JobArrival> next() override;

  std::uint64_t emitted() const { return emitted_; }
  // The arrival time of the last draw; later draws are never earlier.
  SimTime clock() const { return static_cast<SimTime>(std::llround(t_)); }

  // Checkpoint support: serializes the generator position (both RNG
  // states, the running arrival clock and the burst phase). The options,
  // benchmark ids and real-time configuration are NOT serialized — a
  // restored stream must be constructed (and set_realtime'd) exactly as
  // the original, then restore_state'd before the next next() call;
  // continuation is then bit-identical. restore_state throws
  // std::runtime_error (tagged with `context`) on malformed input.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  std::vector<std::size_t> benchmark_ids_;
  ArrivalOptions options_;
  Rng rng_;
  double t_ = 0.0;
  bool in_burst_ = true;
  std::uint64_t emitted_ = 0;

  bool realtime_ = false;
  std::vector<Cycles> reference_cycles_;
  RealtimeOptions realtime_options_{};
  Rng realtime_rng_{0};
};

}  // namespace hetsched
