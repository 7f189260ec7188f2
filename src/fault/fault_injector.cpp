#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numbers>
#include <ostream>
#include <set>

#include "util/rng.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

// Distinct per-fault-class stream tags keep the hash draws independent.
constexpr std::uint64_t kStreamReconfig = 0x5265636f6e666967ULL;
constexpr std::uint64_t kStreamStuck = 0x537475636b4a6f62ULL;
constexpr std::uint64_t kStreamCounter = 0x436f756e74657273ULL;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                  std::uint64_t b) {
  SplitMix64 sm(seed ^ stream);
  // Feed the identifiers through the generator state so nearby ids land
  // far apart.
  std::uint64_t h = sm.next() ^ (a * 0x9e3779b97f4a7c15ULL);
  h = SplitMix64(h).next() ^ (b * 0xbf58476d1ce4e5b9ULL);
  return SplitMix64(h).next();
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
  std::stable_sort(plan_.core_events.begin(), plan_.core_events.end(),
                   [](const CoreFaultEvent& a, const CoreFaultEvent& b) {
                     return a.at != b.at ? a.at < b.at : a.core < b.core;
                   });
}

std::optional<SimTime> FaultInjector::next_core_event_time() const {
  if (cursor_ >= plan_.core_events.size()) return std::nullopt;
  return plan_.core_events[cursor_].at;
}

std::vector<CoreFaultEvent> FaultInjector::take_core_events(SimTime now) {
  std::vector<CoreFaultEvent> due;
  while (cursor_ < plan_.core_events.size() &&
         plan_.core_events[cursor_].at <= now) {
    due.push_back(plan_.core_events[cursor_++]);
  }
  return due;
}

double FaultInjector::hash_uniform(std::uint64_t stream, std::uint64_t a,
                                   std::uint64_t b) const {
  return to_unit(mix(plan_.seed, stream, a, b));
}

double FaultInjector::hash_normal(std::uint64_t stream, std::uint64_t a,
                                  std::uint64_t b) const {
  // Box-Muller over two independent hash uniforms; u1 nudged off zero.
  const double u1 =
      std::max(to_unit(mix(plan_.seed, stream, a, b * 2 + 1)), 0x1.0p-53);
  const double u2 = to_unit(mix(plan_.seed, stream, a, b * 2 + 2));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

bool FaultInjector::reconfig_fails(std::size_t core, std::uint64_t job_id,
                                   int attempt) {
  if (plan_.reconfig_failure_rate <= 0.0) return false;
  return hash_uniform(kStreamReconfig,
                      job_id * 64 + static_cast<std::uint64_t>(attempt),
                      core) < plan_.reconfig_failure_rate;
}

bool FaultInjector::job_hangs(std::uint64_t job_id) {
  if (plan_.stuck_job_rate <= 0.0) return false;
  if (jobs_hung_.contains(job_id)) return false;
  if (hash_uniform(kStreamStuck, job_id, 0) >= plan_.stuck_job_rate) {
    return false;
  }
  jobs_hung_.insert(job_id);
  return true;
}

bool FaultInjector::corrupt_statistics(std::size_t benchmark_id,
                                       ExecutionStatistics& stats) {
  if (plan_.counter_corruption_rate <= 0.0) return false;
  if (hash_uniform(kStreamCounter, benchmark_id, 0) >=
      plan_.counter_corruption_rate) {
    return false;
  }

  double* fields[kNumExecutionStatistics] = {
      &stats.total_instructions, &stats.cycles,
      &stats.loads,              &stats.stores,
      &stats.branches,           &stats.taken_branches,
      &stats.int_ops,            &stats.fp_ops,
      &stats.l1_accesses,        &stats.l1_misses,
      &stats.l1_miss_rate,       &stats.compulsory_misses,
      &stats.writebacks,         &stats.working_set_bytes,
      &stats.load_fraction,      &stats.mem_intensity,
      &stats.compute_intensity,  &stats.branch_fraction};

  switch (plan_.counter_mode) {
    case FaultPlan::CounterMode::kGaussian:
      for (std::size_t i = 0; i < kNumExecutionStatistics; ++i) {
        *fields[i] *= 1.0 + plan_.counter_noise_stddev *
                                hash_normal(kStreamCounter, benchmark_id,
                                            i + 1);
      }
      break;
    case FaultPlan::CounterMode::kNaN: {
      const std::size_t victim =
          mix(plan_.seed, kStreamCounter, benchmark_id, 1) %
          kNumExecutionStatistics;
      *fields[victim] = std::numeric_limits<double>::quiet_NaN();
      break;
    }
    case FaultPlan::CounterMode::kZero:
      for (double* field : fields) *field = 0.0;
      break;
    case FaultPlan::CounterMode::kSaturate:
      for (double* field : fields) *field = 1e30;
      break;
  }
  return true;
}

void FaultInjector::save_state(std::ostream& out) const {
  out << "fault-injector " << cursor_ << "\n";
  // Sorted order: serialization must not depend on unordered_set layout.
  const std::set<std::uint64_t> hung(jobs_hung_.begin(), jobs_hung_.end());
  out << "hung-jobs " << hung.size() << "\n";
  for (const std::uint64_t job_id : hung) out << job_id << "\n";
}

void FaultInjector::restore_state(std::istream& in,
                                  const std::string& context) {
  snapshot_text::Reader r(in, context);
  r.expect("fault-injector");
  cursor_ = r.read<std::size_t>("event cursor");
  if (cursor_ > plan_.core_events.size()) r.fail("event cursor beyond the plan");
  r.expect("hung-jobs");
  const std::size_t hung = r.count("hung-job count");
  jobs_hung_.clear();
  for (std::size_t i = 0; i < hung; ++i) {
    jobs_hung_.insert(r.read<std::uint64_t>("hung job id"));
  }
}

}  // namespace hetsched
