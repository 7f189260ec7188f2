#include "core/contender_policies.hpp"

#include <istream>
#include <limits>
#include <ostream>

#include "core/policies.hpp"
#include "core/tuning_heuristic.hpp"
#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"
#include "workload/characterization.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;
using policy_detail::profiling_decision;
using policy_detail::run_with_heuristic;

constexpr std::uint64_t kNoCycles = ~std::uint64_t{0};
constexpr double kNoEnergy = std::numeric_limits<double>::infinity();

// Lowest observed cycle count among this size's configurations; kNoCycles
// when the size is still unexplored.
std::uint64_t observed_cycles_for_size(const ProfilingTable::Entry& entry,
                                       std::uint32_t size_bytes) {
  std::uint64_t best = kNoCycles;
  const auto& all = DesignSpace::all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].size_bytes != size_bytes) continue;
    const auto& obs = entry.observations()[i];
    if (obs.has_value() && obs->cycles < best) best = obs->cycles;
  }
  return best;
}

// Lowest observed cycle count anywhere (the base-configuration profiling
// observation at minimum, once the job has been profiled).
std::uint64_t observed_cycles_any(const ProfilingTable::Entry& entry) {
  std::uint64_t best = kNoCycles;
  for (const auto& obs : entry.observations()) {
    if (obs.has_value() && obs->cycles < best) best = obs->cycles;
  }
  return best;
}

double observed_energy_for_size(const ProfilingTable::Entry& entry,
                                std::uint32_t size_bytes) {
  double best = kNoEnergy;
  const auto& all = DesignSpace::all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].size_bytes != size_bytes) continue;
    const auto& obs = entry.observations()[i];
    if (obs.has_value() && obs->total_energy.value() < best) {
      best = obs->total_energy.value();
    }
  }
  return best;
}

double observed_energy_any(const ProfilingTable::Entry& entry) {
  double best = kNoEnergy;
  for (const auto& obs : entry.observations()) {
    if (obs.has_value() && obs->total_energy.value() < best) {
      best = obs->total_energy.value();
    }
  }
  return best;
}

}  // namespace

// --------------------------------------------------------------------
// Shortest-predicted-job-first: among idle cores, the one where the
// profiling table predicts the fewest cycles. Sizes with no observation
// yet fall back to the cheapest observation anywhere (every profiled job
// has at least the base-configuration one), so exploration is not
// penalised against known-bad placements; ties go to the lowest index.
Decision ShortestJobFirstPolicy::decide(const Job& job, SystemView& view) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  const std::uint64_t fallback = observed_cycles_any(entry);

  std::size_t chosen = SystemView::npos;
  std::uint64_t chosen_cycles = kNoCycles;
  view.for_each_idle([&](std::size_t core) {
    const std::uint32_t size = view.core(core).spec.cache_size_bytes;
    std::uint64_t cycles = observed_cycles_for_size(entry, size);
    if (cycles == kNoCycles) cycles = fallback;
    if (chosen == SystemView::npos || cycles < chosen_cycles) {
      chosen = core;
      chosen_cycles = cycles;
    }
    return false;
  });
  if (chosen == SystemView::npos) {
    HETSCHED_ASSERT(false && "decide() called with no idle core");
    return Decision::stall();
  }
  return run_with_heuristic(chosen, view.core(chosen).spec.cache_size_bytes,
                            entry);
}

// --------------------------------------------------------------------
// Energy-greedy: identical placement shape, scored by observed total
// energy instead of cycles.
Decision EnergyGreedyPolicy::decide(const Job& job, SystemView& view) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  const double fallback = observed_energy_any(entry);

  std::size_t chosen = SystemView::npos;
  double chosen_energy = kNoEnergy;
  view.for_each_idle([&](std::size_t core) {
    const std::uint32_t size = view.core(core).spec.cache_size_bytes;
    double energy = observed_energy_for_size(entry, size);
    if (energy == kNoEnergy) energy = fallback;
    if (chosen == SystemView::npos || energy < chosen_energy) {
      chosen = core;
      chosen_energy = energy;
    }
    return false;
  });
  if (chosen == SystemView::npos) {
    HETSCHED_ASSERT(false && "decide() called with no idle core");
    return Decision::stall();
  }
  return run_with_heuristic(chosen, view.core(chosen).spec.cache_size_bytes,
                            entry);
}

// --------------------------------------------------------------------
// Random: uniform over the idle cores. Exactly one Rng draw per
// non-profiling decision, so the stream is a pure function of the decide
// sequence (stream==batch and checkpoint identity follow).
Decision RandomPolicy::decide(const Job& job, SystemView& view) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  std::size_t idle_count = 0;
  view.for_each_idle([&](std::size_t) {
    ++idle_count;
    return false;
  });
  if (idle_count == 0) {
    HETSCHED_ASSERT(false && "decide() called with no idle core");
    return Decision::stall();
  }
  const std::uint64_t pick = rng_.below(idle_count);
  std::size_t chosen = SystemView::npos;
  std::uint64_t seen = 0;
  view.for_each_idle([&](std::size_t core) {
    if (seen++ == pick) {
      chosen = core;
      return true;
    }
    return false;
  });
  HETSCHED_ASSERT(chosen != SystemView::npos);
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  return run_with_heuristic(chosen, view.core(chosen).spec.cache_size_bytes,
                            entry);
}

void RandomPolicy::save_state(std::ostream& out) const {
  out << "policy-state random\n";
  rng_.save_state(out);
}

void RandomPolicy::restore_state(std::istream& in,
                                 const std::string& context) {
  st::Reader r(in, context);
  r.expect("policy-state");
  r.expect("random");
  rng_.restore_state(in, context);
}

// --------------------------------------------------------------------
// Oracle: reads the characterised ground truth (which honest policies
// never see) and replays the known-best configuration. It skips profiling
// entirely — it already knows everything — so it also never deposits
// profiling statistics; its executions still record observations like any
// other run.
Decision OraclePolicy::decide(const Job& job, SystemView& view) {
  const BenchmarkProfile& profile = suite_->benchmark(job.benchmark_id);
  const std::uint32_t best_size =
      view.clamp_to_available(profile.oracle_best_size());

  const std::size_t best_core = view.first_idle_with_size(best_size);
  if (best_core != SystemView::npos) {
    return Decision::run(best_core, profile.best_for_size(best_size).config,
                         ExecutionKind::kNormal);
  }
  const std::size_t core = view.first_idle();
  if (core == SystemView::npos) {
    HETSCHED_ASSERT(false && "decide() called with no idle core");
    return Decision::stall();
  }
  const std::uint32_t size = view.core(core).spec.cache_size_bytes;
  return Decision::run(core, profile.best_for_size(size).config,
                       ExecutionKind::kNormal);
}

}  // namespace hetsched
