// Per-job lifecycle spans and deterministic latency distributions.
//
// A JobSpanCollector is a ScheduleObserver that follows every job from
// admission (on_arrival) through its first dispatch, slices, preemptions
// and re-queues to retirement (the completed slice), and folds each
// finished span into fixed-boundary log2 histograms for four exact
// integer decompositions of the job's life:
//
//   sojourn = retire - arrival            (end-to-end latency)
//   queue   = first dispatch - arrival    (initial queueing delay)
//   service = sum of executed slice cycles
//   stall   = sojourn - queue - service   (re-queue waits, backoff,
//                                          hung windows; always >= 0)
//
// Determinism: bucket counts are exact integers keyed on SimTime and the
// bucket boundaries are fixed powers of two, so the histograms — and the
// bucket-interpolated p50/p95/p99 derived from them — are byte-identical
// across HETSCHED_THREADS values, between run_stream and batch run(),
// and across checkpoint kill-resume (the collector state joins the
// checkpoint format; in-flight spans are rebuilt at every boundary).
//
// Memory: O(in-flight jobs + buckets). Completed spans collapse into the
// histograms immediately; only a bounded top-K list of the slowest jobs
// is retained for forensics.
//
// Window digests: each retirement's sojourn is also recorded under its
// window, `retirement cycle / window width` (the WindowedCollector's own
// rule), and a WindowedCollector wired via set_span_source() takes window
// k's digest when it closes k — the source of the windows-JSONL `lat_*`
// columns. The collector keeps no window clock of its own, so the two
// may sit in either fanout order and be finalized in either order.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule_log.hpp"

namespace hetsched {

// Exact-count histogram over unsigned 64-bit values with fixed power-of-
// two bucket boundaries: bucket 0 holds value 0, bucket k >= 1 holds
// values in [2^(k-1), 2^k). Fixed boundaries make merges and percentiles
// pure functions of the bucket counts — no data-dependent bin edges.
class Log2Histogram {
 public:
  // bit_width of a uint64 is at most 64, plus the zero bucket.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t value);
  void merge(const Log2Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }

  // Bucket-interpolated percentile, p in [0, 100]: walks the cumulative
  // counts to the bucket containing the p-th value position and
  // interpolates linearly inside the bucket's value range (clamped to
  // the observed max). 0 for an empty histogram. Deterministic: a pure
  // function of the bucket counts evaluated in fixed order.
  double percentile(double p) const;

  // Snapshot-text round trip (sparse: only non-zero buckets).
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// The four per-job latency metrics of one population of completed spans.
struct LatencyAccumulator {
  Log2Histogram queue;
  Log2Histogram service;
  Log2Histogram stall;
  Log2Histogram sojourn;

  std::uint64_t jobs() const { return sojourn.count(); }
  void merge(const LatencyAccumulator& other);
};

// Per-window sojourn digest handed to the windowed collector when the
// window closes (the `lat_*` JSONL columns).
struct WindowLatency {
  std::uint64_t index = 0;
  std::uint64_t jobs = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::uint64_t max = 0;
};

// One retired job retained in the bounded slowest-K list.
struct SlowJob {
  std::uint64_t job_id = 0;
  std::size_t benchmark_id = 0;
  SimTime arrival = 0;
  Cycles queue = 0;
  Cycles service = 0;
  Cycles stall = 0;
  Cycles sojourn = 0;
  std::uint64_t slices = 0;
};

class JobSpanCollector final : public ScheduleObserver {
 public:
  static constexpr std::size_t kDefaultTopK = 8;

  // `policy_label` names the population (the run's policy) for per-policy
  // report aggregation; `window_cycles` must match the WindowedCollector
  // this collector feeds (when it feeds one).
  JobSpanCollector(std::string policy_label, SimTime window_cycles,
                   std::size_t top_k = kDefaultTopK);

  void on_arrival(const ArrivalEvent& event) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_slice(const ScheduledSlice& slice) override;

  // Nothing to close (the collector has no clock); kept so a run can
  // finalize all of its collectors alike.
  void finalize() {}

  const std::string& policy_label() const { return policy_label_; }
  SimTime window_cycles() const { return window_cycles_; }
  std::size_t top_k() const { return top_k_; }
  std::uint64_t jobs_completed() const { return totals_.jobs(); }
  std::size_t in_flight() const { return spans_.size(); }
  const LatencyAccumulator& totals() const { return totals_; }
  // Slowest completed jobs, sojourn-descending (ties: job id ascending),
  // at most top_k entries.
  const std::vector<SlowJob>& slowest() const { return slowest_; }

  // Sojourn digest of window `index` (zeros when no job retired in it).
  // Taking it drops that window and every earlier one; at most
  // kMaxUntakenWindows are kept for a windowed collector to take, so a
  // collector nobody takes from stays bounded.
  static constexpr std::size_t kMaxUntakenWindows = 64;
  WindowLatency take_window(std::uint64_t index);

  // Checkpoint support: serializes the untaken windows, the histograms,
  // the slowest-K list and every in-flight span (sorted by job id, so the
  // text never depends on hash-map iteration order). restore_state
  // requires a collector constructed with the same window width and
  // top-K and throws std::runtime_error (tagged with `context`) on
  // malformed or mismatched input.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);
  // A restored collector against the run it resumes at `now`: the
  // in-flight spans are exactly the `held` jobs, a running job's span is
  // dispatched, no span arrived after `now`, and none holds more service
  // than the cycles from its first dispatch to its current execution's
  // start (to `now` when queued). Throws std::runtime_error otherwise.
  void check_resumed(const std::vector<HeldJob>& held, SimTime now,
                     const std::string& context) const;

 private:
  // An admitted job that has not retired yet.
  struct Span {
    std::size_t benchmark_id = 0;
    SimTime arrival = 0;
    SimTime first_dispatch = 0;
    bool dispatched = false;
    Cycles service = 0;
    std::uint64_t slices = 0;
  };

  void retire(const ScheduledSlice& slice, Span& span);

  std::string policy_label_;
  SimTime window_cycles_ = 0;
  std::size_t top_k_ = kDefaultTopK;

  // Sojourns of retirements by window index, until the window is taken.
  std::map<std::uint64_t, Log2Histogram> untaken_;
  LatencyAccumulator totals_;
  std::vector<SlowJob> slowest_;
  std::unordered_map<std::uint64_t, Span> spans_;
};

// Groups collectors by policy label (merging same-label populations),
// then fills the report's `latency` section: per-policy stats, the
// overall merge, and the slowest-K list re-merged across collectors.
// Declared here (not run_report.hpp) so the report stays plain data.
struct RunReport;
void attach_latency_summary(
    RunReport& report, const std::vector<const JobSpanCollector*>& collectors);

}  // namespace hetsched
