// Hierarchical O(log) dispatch: core clusters and indexed idle sets.
//
// Every scheduling decision used to rescan all cores linearly — fine for
// the paper's quad-core, quadratic pain at 64-256 cores. This index
// exploits the fact that cores fall into a handful of configuration
// classes: cores are grouped once, at construction, into *clusters*
// keyed by config class (cache size + can_profile), aggregated into
// *size classes* (all cores of one cache size, the unit policies select
// by), and the dynamic idle state is kept in find-first-set bitmaps that
// are updated incrementally on dispatch / completion / preemption /
// fault transitions instead of being rebuilt per event. A decision then
// costs one cluster pick (O(size classes), a handful) plus one
// find-first-set over cores/64 words — O(log cores) in spirit, a few
// dozen instructions in practice — with zero per-decision allocation.
//
// Determinism contract: every query answers exactly what the naive
// lowest-index-first linear scan over (online && !busy) cores would
// answer, so selection is bit-identical to the pre-index scheduler.
// SystemView keeps the naive scans alive as a reference implementation
// and the fuzz suite runs both side by side (see tests/fuzz_test.cpp).
//
// The index also owns the memoised clamp_to_available /clamp_to_online
// size snapping: results are cached per (requested size, topology
// epoch), where the epoch bumps on every core online/offline
// transition, so repeated predictions stop rescanning the machine while
// fault transitions still invalidate correctly.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/system_config.hpp"

namespace hetsched {

struct CoreRuntime;  // defined in core/scheduler.hpp

// Counters describing how much scanning the indexed decision paths
// performed — the observability hook proving the O(cores)-per-event
// scans are gone. Cheap relaxed increments, read through
// MulticoreSimulator::dispatch_telemetry() and ScenarioOutcome::dispatch.
struct DispatchTelemetry {
  std::uint64_t decisions = 0;      // policy decide() invocations
  std::uint64_t idle_queries = 0;   // indexed idle-set queries answered
  std::uint64_t words_scanned = 0;  // bitmap words examined by queries
  std::uint64_t clamp_lookups = 0;  // clamp_to_available/online calls
  std::uint64_t clamp_hits = 0;     // answered from the epoch cache
  std::uint64_t rebuilds = 0;       // full rebuilds (checkpoint restore)
};

class DispatchIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // One cluster per configuration class; members ascending.
  struct Cluster {
    std::uint32_t cache_size_bytes = 0;
    bool can_profile = false;
    std::vector<std::size_t> members;
  };

  // All cores sharing one cache size (1-2 clusters), the granularity
  // policies select at. `member_mask` is the static membership bitmap
  // the idle set is intersected with; `online_members` is maintained
  // incrementally so clamp queries never rescan cores.
  struct SizeClass {
    std::uint32_t cache_size_bytes = 0;
    std::vector<std::size_t> members;
    std::vector<std::uint64_t> member_mask;
    std::size_t online_members = 0;
  };

  explicit DispatchIndex(const SystemConfig& system);

  // --- Incremental maintenance (simulator transitions) ---------------
  void mark_busy(std::size_t core);   // idle -> dispatched
  void mark_idle(std::size_t core);   // completion / preempt / watchdog
  void mark_offline(std::size_t core);  // core failure (busy or idle)
  void mark_online(std::size_t core);   // recovery; the core returns idle
  // Checkpoint-restore path: recompute idle/online state from the
  // restored core array (clusters are static, derived from the system
  // shape). Deterministic: the rebuilt index equals the index an
  // uninterrupted run would hold at the same point.
  void rebuild(std::span<const CoreRuntime> cores);

  // --- Queries (bit-identical to the naive lowest-index scans) -------
  bool any_idle() const { return idle_count_ != 0; }
  std::size_t idle_count() const { return idle_count_; }
  // Lowest-index core that is online and not busy, npos when none.
  std::size_t first_idle() const;
  // Lowest-index idle core whose cache size is exactly `size_bytes`.
  std::size_t first_idle_with_size(std::uint32_t size_bytes) const;
  // Lowest-(size, index) idle core with cache size >= `min_size` — the
  // real-time "smallest sufficient cache" placement.
  std::size_t first_idle_with_size_at_least(std::uint32_t min_size) const;

  // Ascending iteration over idle cores; stops early when `fn` returns
  // true. Returns whether it stopped.
  template <typename Fn>
  bool for_each_idle(Fn&& fn) const {
    ++telemetry_.idle_queries;
    for (std::size_t w = 0; w < idle_.size(); ++w) {
      ++telemetry_.words_scanned;
      std::uint64_t word = idle_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        if (fn(w * 64 + bit)) return true;
        word &= word - 1;
      }
    }
    return false;
  }

  const std::vector<Cluster>& clusters() const { return clusters_; }
  // Ascending by cache size.
  const std::vector<SizeClass>& size_classes() const {
    return size_classes_;
  }
  // Static membership of a size class (empty when the machine offers no
  // such size); ascending core indices, identical to
  // SystemConfig::cores_with_size without the per-call allocation.
  std::span<const std::size_t> cores_with_size(
      std::uint32_t size_bytes) const;
  std::size_t online_count(std::uint32_t size_bytes) const;

  // Bumps on every online/offline transition (and rebuild); keys the
  // clamp memoisation below.
  std::uint64_t topology_epoch() const { return epoch_; }

  // Size snapping (see policies.hpp for semantics), memoised per
  // (requested size, topology epoch). Answers are pure functions of the
  // online topology, so a cached hit is bit-identical to a rescan.
  std::uint32_t clamp_to_available(std::uint32_t size_bytes) const;
  std::uint32_t clamp_to_online(std::uint32_t size_bytes) const;

  void note_decision() const { ++telemetry_.decisions; }
  const DispatchTelemetry& telemetry() const { return telemetry_; }

 private:
  const SizeClass* find_size_class(std::uint32_t size_bytes) const;
  std::uint32_t compute_clamp_to_available(std::uint32_t size_bytes) const;

  std::size_t core_count_ = 0;
  std::vector<Cluster> clusters_;
  std::vector<SizeClass> size_classes_;     // ascending by size
  std::vector<std::uint32_t> class_of_core_;  // core -> size-class index

  std::vector<std::uint64_t> idle_;  // bit set <=> online && !busy
  std::size_t idle_count_ = 0;
  std::uint64_t epoch_ = 0;

  // clamp_to_available cache, valid for `cache_epoch_` only. A handful
  // of distinct requested sizes ever occur (the design-space sizes), so
  // a flat vector beats any map.
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> clamp_cache_;
  mutable std::uint64_t cache_epoch_ = 0;

  mutable DispatchTelemetry telemetry_;
};

}  // namespace hetsched
