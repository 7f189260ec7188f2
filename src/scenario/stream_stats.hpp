// Bounded-memory schedule accounting for streaming runs.
//
// A ScheduleLog retains every slice, so a million-job stream would hold
// millions of records. StreamStats is the compacting alternative: every
// observer callback is folded immediately into O(cores) running
// aggregates plus an order-sensitive FNV-1a digest of the full event
// stream. The digest makes two runs comparable byte-for-byte (equal
// digests ⇔ identical event streams, up to hash collision) without
// retaining either stream, which is how sweep shards and thread-count
// invariance are checked at scale.
//
// Invariants are checked incrementally with the same O(cores) state:
// slices on one core must not overlap and must be well-formed; a
// violation increments a counter instead of storing the offender, so
// the check itself stays bounded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/schedule_log.hpp"
#include "util/hash.hpp"

namespace hetsched {

class StreamStats final : public ScheduleObserver {
 public:
  struct CoreAggregate {
    std::uint64_t slices = 0;
    std::uint64_t completed_slices = 0;
    Cycles busy_cycles = 0;
    Cycles idle_cycles = 0;
    SimTime last_slice_end = 0;
  };

  explicit StreamStats(std::size_t core_count)
      : per_core_(core_count) {}

  void on_slice(const ScheduledSlice& slice) override;
  void on_fault(const FaultRecord& record) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_reconfig(const ReconfigEvent& event) override;
  void on_idle(const IdleEvent& event) override;
  void on_preempt(const PreemptEvent& event) override;
  // Counted but deliberately NOT folded into the digest: a DAG run's
  // digest must stay comparable with a batch replay of the arrivals its
  // source emitted, and the replay has no DAG source to emit release events.
  // The underlying slices/dispatches those releases derive from are all
  // digested, so the fingerprint loses nothing.
  void on_dag_release(const DagReleaseEvent& event) override;

  const std::vector<CoreAggregate>& per_core() const { return per_core_; }

  std::uint64_t slices() const { return slices_; }
  std::uint64_t completed_slices() const { return completed_slices_; }
  Cycles busy_cycles() const { return busy_cycles_; }
  Cycles idle_cycles() const { return idle_cycles_; }
  Cycles longest_slice() const { return longest_slice_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t idle_intervals() const { return idle_intervals_; }
  std::uint64_t reconfig_attempts() const { return reconfig_attempts_; }
  std::uint64_t reconfig_failures() const { return reconfig_failures_; }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t dag_releases() const { return dag_releases_; }

  // Slices that were malformed (end <= start, bad core index) or
  // overlapped a previous slice on their core. Zero on any correct run.
  std::uint64_t invariant_violations() const {
    return invariant_violations_;
  }

  // Order-sensitive fingerprint of every event observed so far.
  std::uint64_t digest() const { return digest_.digest(); }

  // Checkpoint support: serializes every aggregate plus the running
  // digest state, so a restored collector continues folding events into
  // the same fingerprint the uninterrupted run would produce.
  // restore_state requires a collector constructed with the same core
  // count and throws std::runtime_error (tagged with `context`) on
  // malformed or mismatched input.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  std::vector<CoreAggregate> per_core_;
  std::uint64_t slices_ = 0;
  std::uint64_t completed_slices_ = 0;
  Cycles busy_cycles_ = 0;
  Cycles idle_cycles_ = 0;
  Cycles longest_slice_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t idle_intervals_ = 0;
  std::uint64_t reconfig_attempts_ = 0;
  std::uint64_t reconfig_failures_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t invariant_violations_ = 0;
  std::uint64_t dag_releases_ = 0;
  Fnv1a digest_;
};

}  // namespace hetsched
