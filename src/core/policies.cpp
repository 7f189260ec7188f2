#include "core/policies.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "core/energy_decision.hpp"
#include "core/tuning_heuristic.hpp"
#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

// Default checkpoint hooks: a stateless marker that round-trips exactly.
// Policies whose every decision derives from the profiling table (all
// four paper policies and the realtime EDF variant) inherit these.
void SchedulerPolicy::save_state(std::ostream& out) const {
  out << "policy-state none\n";
}

void SchedulerPolicy::restore_state(std::istream& in,
                                    const std::string& context) {
  snapshot_text::Reader r(in, context);
  r.expect("policy-state");
  r.expect("none");
}

namespace policy_detail {

std::optional<Decision> profiling_decision(const Job& job,
                                           SystemView& view) {
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  if (entry.profiled) return std::nullopt;

  // Core 4 is the primary profiling core; Core 3 the secondary
  // (Section III). Profiling executes the base configuration.
  const std::size_t primary = view.system().primary_profiling_core;
  const std::size_t secondary = view.system().secondary_profiling_core;
  for (std::size_t core : {primary, secondary}) {
    if (view.available(core) && view.core(core).spec.can_profile) {
      return Decision::run(core, DesignSpace::base_config(),
                           ExecutionKind::kProfiling);
    }
  }
  // No profiling core free: wait for one.
  return Decision::stall();
}

Decision run_with_heuristic(std::size_t core, std::uint32_t size_bytes,
                            const ProfilingTable::Entry& entry) {
  const TuningHeuristic::WalkState state =
      TuningHeuristic::walk(entry, size_bytes);
  if (!state.next.has_value()) {
    return Decision::run(core, state.best, ExecutionKind::kNormal);
  }
  return Decision::run(core, *state.next, ExecutionKind::kTuning);
}

std::uint32_t clamp_to_available(const SystemView& view,
                                 std::uint32_t size_bytes) {
  // Nearest size some online core offers (ties upward; all cores as the
  // mass-failure fallback), memoised per (size, topology epoch) by the
  // dispatch index so repeated predictions never rescan the machine.
  return view.clamp_to_available(size_bytes);
}

std::uint32_t clamp_to_online(const SystemView& view,
                              std::uint32_t size_bytes) {
  // Keeps the size if an online core offers it; otherwise retargets via
  // clamp_to_available so a job is never pinned to a failed core.
  return view.clamp_to_online(size_bytes);
}

std::uint32_t predict_best_size(const SizePredictor& predictor,
                                std::size_t benchmark_id,
                                const ProfilingTable::Entry& entry,
                                SystemView& view) {
  // Sanity guard (degraded mode): corrupted counters or a predictor
  // snapshot gone wrong must not poison scheduling. Any non-finite
  // feature, or a predicted size outside the legal design space, falls
  // back to the base configuration's size.
  bool sane = true;
  for (const double v : entry.statistics.to_vector()) {
    if (!std::isfinite(v)) {
      sane = false;
      break;
    }
  }
  std::uint32_t predicted = 0;
  if (sane) {
    predicted = predictor.predict(benchmark_id, entry.statistics);
    const auto& legal = DesignSpace::sizes();
    sane = std::find(legal.begin(), legal.end(), predicted) != legal.end();
  }
  if (!sane) {
    view.note_prediction_fallback();
    predicted = DesignSpace::base_config().size_bytes;
  }
  return clamp_to_available(view, predicted);
}

}  // namespace policy_detail

using policy_detail::profiling_decision;
using policy_detail::run_with_heuristic;

// --------------------------------------------------------------------
// Base system: every core offers 8KB_4W_64B; first idle core runs the job
// in that fixed configuration.
Decision BasePolicy::decide(const Job& job, SystemView& view) {
  (void)job;
  const std::size_t core = view.first_idle();
  if (core != SystemView::npos) {
    return Decision::run(core, view.core(core).spec.initial_config,
                         ExecutionKind::kNormal);
  }
  HETSCHED_ASSERT(false && "decide() called with no idle core");
  return Decision::stall();
}

// --------------------------------------------------------------------
// Optimal system: exhaustive exploration, never stalls after profiling.
Decision OptimalPolicy::decide(const Job& job, SystemView& view) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  HETSCHED_ASSERT(view.any_idle());

  // While any configuration anywhere is unexplored, use executions on
  // idle cores to advance the exhaustive search: prefer an idle core
  // whose size still has unexplored configurations.
  if (!entry.fully_explored()) {
    std::optional<Decision> tuning;
    view.for_each_idle([&](std::size_t core) {
      const auto next = entry.next_unexplored_for_size(
          view.core(core).spec.cache_size_bytes);
      if (next.has_value()) {
        tuning = Decision::run(core, *next, ExecutionKind::kTuning);
        return true;
      }
      return false;
    });
    if (tuning.has_value()) return *tuning;
    // Every idle core's size is already fully explored: run the best
    // observed configuration for the first idle core's size.
    const std::size_t core = view.first_idle();
    HETSCHED_ASSERT(core != SystemView::npos);
    const auto best = entry.best_observed_for_size(
        view.core(core).spec.cache_size_bytes);
    HETSCHED_ASSERT(best.has_value());
    return Decision::run(core, *best, ExecutionKind::kNormal);
  }

  // Fully explored: the best configuration (and hence best core) is
  // known. Prefer an idle best core; otherwise any idle core with its
  // size's best configuration — the optimal system never stalls.
  const auto best_overall = entry.best_observed();
  HETSCHED_ASSERT(best_overall.has_value());
  const std::size_t best_core =
      view.first_idle_with_size(best_overall->size_bytes);
  if (best_core != SystemView::npos) {
    return Decision::run(best_core, *best_overall, ExecutionKind::kNormal);
  }
  const std::size_t core = view.first_idle();
  HETSCHED_ASSERT(core != SystemView::npos);
  const auto best = entry.best_observed_for_size(
      view.core(core).spec.cache_size_bytes);
  HETSCHED_ASSERT(best.has_value());
  return Decision::run(core, *best, ExecutionKind::kNormal);
}

// --------------------------------------------------------------------
// Energy-centric system: ANN prediction, but jobs only ever execute on a
// best-size core; anything else stalls.
void EnergyCentricPolicy::on_profiled(std::size_t benchmark_id,
                                      SystemView& view) {
  ProfilingTable::Entry& entry = view.table().entry(benchmark_id);
  entry.predicted_best_size_bytes = policy_detail::predict_best_size(
      *predictor_, benchmark_id, entry, view);
}

Decision EnergyCentricPolicy::decide(const Job& job, SystemView& view) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  HETSCHED_ASSERT(entry.predicted_best_size_bytes.has_value());
  const std::uint32_t best_size =
      view.clamp_to_online(*entry.predicted_best_size_bytes);

  const std::size_t core = view.first_idle_with_size(best_size);
  if (core != SystemView::npos) {
    return run_with_heuristic(core, best_size, entry);
  }
  return Decision::stall();
}

// --------------------------------------------------------------------
// Proposed system (Figure 2).
void ProposedPolicy::on_profiled(std::size_t benchmark_id,
                                 SystemView& view) {
  ProfilingTable::Entry& entry = view.table().entry(benchmark_id);
  entry.predicted_best_size_bytes = policy_detail::predict_best_size(
      *predictor_, benchmark_id, entry, view);
}

Decision ProposedPolicy::decide(const Job& job, SystemView& view) {
  return policy_detail::predicted_decide(job, view, scratch_, 1);
}

// --------------------------------------------------------------------
// Critical-path-aware variant: identical flow, but a job's DAG rank
// scales the stall cost in the Section IV.E comparison, so jobs with
// long dependent chains behind them accept a non-best core sooner. With
// every rank 0 (independent jobs) the multiplier is 1 and the policy is
// bit-identical to the proposed one.
void CpAwarePolicy::on_profiled(std::size_t benchmark_id,
                                SystemView& view) {
  ProfilingTable::Entry& entry = view.table().entry(benchmark_id);
  entry.predicted_best_size_bytes = policy_detail::predict_best_size(
      *predictor_, benchmark_id, entry, view);
}

Decision CpAwarePolicy::decide(const Job& job, SystemView& view) {
  return policy_detail::predicted_decide(
      job, view, scratch_, std::uint64_t{1} + job.cp_rank);
}

namespace policy_detail {

Decision predicted_decide(const Job& job, SystemView& view,
                          EnergyAdvantageInput& scratch,
                          std::uint64_t stall_cost_multiplier) {
  if (const auto profiling = profiling_decision(job, view)) {
    return *profiling;
  }
  const ProfilingTable::Entry& entry = view.table().entry(job.benchmark_id);
  HETSCHED_ASSERT(entry.predicted_best_size_bytes.has_value());
  const std::uint32_t best_size =
      view.clamp_to_online(*entry.predicted_best_size_bytes);

  // Best core idle → schedule there (best-known config, or continue the
  // Figure-5 exploration).
  const std::size_t best_idle = view.first_idle_with_size(best_size);
  if (best_idle != SystemView::npos) {
    return run_with_heuristic(best_idle, best_size, entry);
  }

  // Best core(s) busy. If some idle core's best configuration for this
  // application is unknown, the scheduler cannot evaluate the energy
  // tradeoff — schedule to such a core (arbitrarily: the first) to gather
  // design-space information (Section IV.E).
  HETSCHED_ASSERT(view.any_idle());
  std::optional<Decision> explore;
  view.for_each_idle([&](std::size_t core) {
    const std::uint32_t size = view.core(core).spec.cache_size_bytes;
    if (!TuningHeuristic::complete(entry, size)) {
      explore = run_with_heuristic(core, size, entry);
      return true;
    }
    return false;
  });
  if (explore.has_value()) return *explore;

  // All idle cores have known best configurations. The energy-advantage
  // evaluation additionally needs B's energy on its best core; if that is
  // still unknown the job stalls for its best core ("if and only if the
  // best configuration is known for all cores").
  const TuningHeuristic::WalkState best_walk =
      TuningHeuristic::walk(entry, best_size);
  if (best_walk.next.has_value()) {
    return Decision::stall();
  }

  // `scratch` is a policy-lifetime buffer: clear() keeps its capacity,
  // so the evaluation allocates nothing per decision in steady state.
  EnergyAdvantageInput& input = scratch;
  input.candidates.clear();
  const CacheConfig best_config = best_walk.best;
  const Observation* best_obs = entry.find(best_config);
  HETSCHED_ASSERT(best_obs != nullptr);
  input.energy_on_best = best_obs->total_energy;

  // Wait until the soonest best core frees up. Offline best cores are
  // not coming back on any known schedule — they must not make the wait
  // look free.
  Cycles wait = 0;
  bool first = true;
  view.for_each_core_with_size(best_size, [&](std::size_t core) {
    if (!view.core(core).online) return;
    const Cycles remaining = view.remaining_cycles(core);
    if (first || remaining < wait) {
      wait = remaining;
      first = false;
    }
  });
  // The multiplier (1 + cp_rank for the cp-aware policy, 1 otherwise)
  // inflates the perceived wait, saturating rather than wrapping.
  constexpr Cycles kMaxWait = std::numeric_limits<Cycles>::max();
  input.wait_cycles =
      (stall_cost_multiplier != 0 && wait > kMaxWait / stall_cost_multiplier)
          ? kMaxWait
          : wait * stall_cost_multiplier;

  view.for_each_idle([&](std::size_t core) {
    const std::uint32_t size = view.core(core).spec.cache_size_bytes;
    const CacheConfig config = TuningHeuristic::best_known(entry, size);
    const Observation* obs = entry.find(config);
    HETSCHED_ASSERT(obs != nullptr);
    EnergyAdvantageInput::Candidate candidate;
    candidate.core = core;
    candidate.run_energy = obs->total_energy;
    candidate.idle_energy_per_cycle =
        view.energy().idle_per_cycle(view.core(core).current_config);
    input.candidates.push_back(candidate);
    return false;
  });

  const EnergyAdvantageResult advantage = evaluate_energy_advantage(input);
  if (advantage.run_on_non_best) {
    const std::uint32_t size =
        view.core(advantage.chosen_core).spec.cache_size_bytes;
    return Decision::run(advantage.chosen_core,
                         TuningHeuristic::best_known(entry, size),
                         ExecutionKind::kNormal);
  }
  return Decision::stall();
}

}  // namespace policy_detail

}  // namespace hetsched
