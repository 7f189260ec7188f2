#include "workload/arrivals.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

void check_options(const ArrivalOptions& options) {
  HETSCHED_REQUIRE(options.count > 0);
  HETSCHED_REQUIRE(options.mean_interarrival_cycles > 0.0);
  HETSCHED_REQUIRE(options.burstiness >= 1.0);
  HETSCHED_REQUIRE(options.phase_switch >= 0.0 &&
                   options.phase_switch <= 1.0);
}

// One arrival draw, consuming the rng in a fixed order: phase switch,
// gap, then benchmark id.
JobArrival draw_arrival(const std::vector<std::size_t>& benchmark_ids,
                        const ArrivalOptions& options, Rng& rng, double& t,
                        bool& in_burst) {
  double mean = options.mean_interarrival_cycles;
  if (options.burstiness > 1.0) {
    // Gaps of mean/b in bursts and mean*(2 - 1/b) in quiet phases: with
    // symmetric phase switching the phases are equally likely per
    // arrival, so the arithmetic mean gap stays at `mean`.
    mean = in_burst ? mean / options.burstiness
                    : mean * (2.0 - 1.0 / options.burstiness);
    if (rng.bernoulli(options.phase_switch)) in_burst = !in_burst;
  }
  double gap = 0.0;
  switch (options.distribution) {
    case InterarrivalDistribution::kUniform:
      gap = rng.uniform(0.0, 2.0 * mean);
      break;
    case InterarrivalDistribution::kExponential:
      gap = rng.exponential(1.0 / mean);
      break;
    case InterarrivalDistribution::kFixed:
      gap = mean;
      break;
  }
  t += gap;
  JobArrival a;
  a.benchmark_id = benchmark_ids[rng.below(benchmark_ids.size())];
  a.arrival = static_cast<SimTime>(std::llround(t));
  return a;
}

}  // namespace

GeneratedArrivalStream::GeneratedArrivalStream(
    std::vector<std::size_t> benchmark_ids, const ArrivalOptions& options,
    std::uint64_t seed)
    : benchmark_ids_(std::move(benchmark_ids)), options_(options),
      rng_(seed) {
  HETSCHED_REQUIRE(!benchmark_ids_.empty());
  check_options(options_);
}

void GeneratedArrivalStream::set_realtime(
    const std::vector<Cycles>& reference_cycles_by_benchmark,
    const RealtimeOptions& options, std::uint64_t seed) {
  HETSCHED_REQUIRE(emitted_ == 0);
  HETSCHED_REQUIRE(options.slack_factor > 0.0);
  HETSCHED_REQUIRE(options.priority_levels >= 1);
  realtime_ = true;
  reference_cycles_ = reference_cycles_by_benchmark;
  realtime_options_ = options;
  realtime_rng_.reseed(seed);
}

std::optional<JobArrival> GeneratedArrivalStream::next() {
  if (emitted_ >= options_.count) return std::nullopt;
  JobArrival a =
      draw_arrival(benchmark_ids_, options_, rng_, t_, in_burst_);
  if (realtime_) {
    HETSCHED_REQUIRE(a.benchmark_id < reference_cycles_.size());
    const double reference =
        static_cast<double>(reference_cycles_[a.benchmark_id]);
    a.deadline = a.arrival +
                 static_cast<SimTime>(std::llround(
                     realtime_options_.slack_factor * reference));
    a.priority = static_cast<int>(realtime_rng_.below(
        static_cast<std::uint64_t>(realtime_options_.priority_levels)));
  }
  ++emitted_;
  return a;
}

void GeneratedArrivalStream::save_state(std::ostream& out) const {
  out << "arrival-stream\n";
  rng_.save_state(out);
  out << "clock ";
  snapshot_text::write_double(out, t_);
  out << ' ' << (in_burst_ ? 1 : 0) << ' ' << emitted_ << "\n";
  out << "realtime " << (realtime_ ? 1 : 0) << "\n";
  if (realtime_) realtime_rng_.save_state(out);
}

void GeneratedArrivalStream::restore_state(std::istream& in,
                                           const std::string& context) {
  snapshot_text::Reader r(in, context);
  r.expect("arrival-stream");
  rng_.restore_state(in, context);
  r.expect("clock");
  t_ = r.read<double>("arrival clock");
  if (!(t_ >= 0.0 && t_ <= 0x1p61)) r.fail("arrival clock out of range");
  in_burst_ = r.flag("burst phase");
  emitted_ = r.read<std::uint64_t>("emitted count");
  r.expect("realtime");
  if (r.flag("realtime flag") != realtime_) {
    r.fail("real-time configuration does not match the checkpointed stream");
  }
  if (realtime_) realtime_rng_.restore_state(in, context);
}

}  // namespace hetsched
