#include "obs/latency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>

#include "obs/run_report.hpp"
#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;

std::size_t bucket_of(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

// Sojourn-descending, job-id-ascending: the deterministic slowest-first
// order of the top-K list.
bool slower(const SlowJob& a, const SlowJob& b) {
  if (a.sojourn != b.sojourn) return a.sojourn > b.sojourn;
  return a.job_id < b.job_id;
}

}  // namespace

void Log2Histogram::record(std::uint64_t value) {
  ++buckets_[bucket_of(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Log2Histogram::merge(const Log2Histogram& other) {
  for (std::size_t k = 0; k < kBuckets; ++k) buckets_[k] += other.buckets_[k];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Log2Histogram::percentile(double p) const {
  HETSCHED_REQUIRE(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    if (buckets_[k] == 0) continue;
    const std::uint64_t next = cum + buckets_[k];
    if (pos <= static_cast<double>(next)) {
      // Interpolate inside [2^(k-1), 2^k) by the value's position among
      // the bucket's occupants; bucket 0 holds only the value 0.
      if (k == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(k) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(k));
      double frac = (pos - static_cast<double>(cum)) /
                    static_cast<double>(buckets_[k]);
      frac = std::clamp(frac, 0.0, 1.0);
      return std::min(lo + frac * (hi - lo), static_cast<double>(max_));
    }
    cum = next;
  }
  // pos <= count_ and the cumulative walk ends at count_, so the loop
  // always returns.
  HETSCHED_ASSERT(false);
  return static_cast<double>(max_);
}

void Log2Histogram::save_state(std::ostream& out) const {
  std::size_t nonzero = 0;
  for (const std::uint64_t b : buckets_) nonzero += b != 0 ? 1 : 0;
  out << "hist " << count_ << ' ' << sum_ << ' ' << max_ << ' ' << nonzero
      << "\n";
  for (std::size_t k = 0; k < kBuckets; ++k) {
    if (buckets_[k] != 0) out << k << ' ' << buckets_[k] << "\n";
  }
}

void Log2Histogram::restore_state(std::istream& in,
                                  const std::string& context) {
  st::Reader r(in, context);
  r.expect("hist");
  count_ = r.read<std::uint64_t>("histogram count");
  sum_ = r.read<std::uint64_t>("histogram sum");
  max_ = r.read<std::uint64_t>("histogram max");
  const std::size_t nonzero = r.count("histogram bucket count");
  buckets_.fill(0);
  std::uint64_t total = 0;
  for (std::size_t i = 0, next = 0; i < nonzero; ++i) {
    const auto k = r.read<std::size_t>("bucket index");
    if (k < next || k >= kBuckets) r.fail("bucket index out of order");
    next = k + 1;
    buckets_[k] = r.read<std::uint64_t>("bucket value");
    total += buckets_[k];
  }
  if (total != count_) {
    r.fail("histogram bucket counts do not sum to the count");
  }
}

void LatencyAccumulator::merge(const LatencyAccumulator& other) {
  queue.merge(other.queue);
  service.merge(other.service);
  stall.merge(other.stall);
  sojourn.merge(other.sojourn);
}

JobSpanCollector::JobSpanCollector(std::string policy_label,
                                   SimTime window_cycles, std::size_t top_k)
    : policy_label_(std::move(policy_label)),
      window_cycles_(window_cycles),
      top_k_(top_k) {
  HETSCHED_REQUIRE(window_cycles_ > 0);
  HETSCHED_REQUIRE(top_k_ > 0);
}

WindowLatency JobSpanCollector::take_window(std::uint64_t index) {
  Log2Histogram sojourn;
  if (const auto it = untaken_.find(index); it != untaken_.end()) {
    sojourn = it->second;
  }
  untaken_.erase(untaken_.begin(), untaken_.upper_bound(index));
  return WindowLatency{index,
                       sojourn.count(),
                       sojourn.percentile(50.0),
                       sojourn.percentile(95.0),
                       sojourn.percentile(99.0),
                       sojourn.max()};
}

void JobSpanCollector::on_arrival(const ArrivalEvent& event) {
  Span span;
  span.benchmark_id = event.benchmark_id;
  span.arrival = event.time;
  const bool inserted = spans_.emplace(event.job_id, span).second;
  HETSCHED_REQUIRE(inserted && "duplicate arrival for one job id");
}

void JobSpanCollector::on_dispatch(const DispatchEvent& event) {
  const auto it = spans_.find(event.job_id);
  HETSCHED_REQUIRE(it != spans_.end() &&
                   "dispatch for a job whose arrival was not observed — "
                   "attach the span collector before the run starts");
  if (!it->second.dispatched) {
    it->second.dispatched = true;
    it->second.first_dispatch = event.time;
  }
}

void JobSpanCollector::retire(const ScheduledSlice& slice, Span& span) {
  HETSCHED_REQUIRE(span.dispatched);
  const SimTime end = slice.end;
  HETSCHED_REQUIRE(end >= span.arrival);
  HETSCHED_REQUIRE(span.first_dispatch >= span.arrival);
  const Cycles sojourn = end - span.arrival;
  const Cycles queue = span.first_dispatch - span.arrival;
  HETSCHED_REQUIRE(sojourn >= queue + span.service &&
                   "executed cycles exceed the post-dispatch lifetime");
  const Cycles stall = sojourn - queue - span.service;

  totals_.queue.record(queue);
  totals_.service.record(span.service);
  totals_.stall.record(stall);
  totals_.sojourn.record(sojourn);
  untaken_[end / window_cycles_].record(sojourn);
  if (untaken_.size() > kMaxUntakenWindows) untaken_.erase(untaken_.begin());

  SlowJob job;
  job.job_id = slice.job_id;
  job.benchmark_id = span.benchmark_id;
  job.arrival = span.arrival;
  job.queue = queue;
  job.service = span.service;
  job.stall = stall;
  job.sojourn = sojourn;
  job.slices = span.slices;
  const auto at =
      std::upper_bound(slowest_.begin(), slowest_.end(), job, slower);
  if (at != slowest_.end() || slowest_.size() < top_k_) {
    slowest_.insert(at, job);
    if (slowest_.size() > top_k_) slowest_.pop_back();
  }
}

void JobSpanCollector::on_slice(const ScheduledSlice& slice) {
  const auto it = spans_.find(slice.job_id);
  HETSCHED_REQUIRE(it != spans_.end() &&
                   "slice for a job whose arrival was not observed — "
                   "attach the span collector before the run starts");
  if (slice.end > slice.start) {
    it->second.service += slice.end - slice.start;
  }
  ++it->second.slices;
  if (!slice.completed) return;
  retire(slice, it->second);
  spans_.erase(it);
}

void JobSpanCollector::save_state(std::ostream& out) const {
  out << "spans " << window_cycles_ << ' ' << top_k_ << "\n";
  out << "untaken " << untaken_.size() << "\n";
  for (const auto& [index, sojourn] : untaken_) {
    out << index << ' ';
    sojourn.save_state(out);
  }
  totals_.queue.save_state(out);
  totals_.service.save_state(out);
  totals_.stall.save_state(out);
  totals_.sojourn.save_state(out);
  out << "slowest " << slowest_.size() << "\n";
  for (const SlowJob& job : slowest_) {
    out << job.job_id << ' ' << job.benchmark_id << ' ' << job.arrival << ' '
        << job.queue << ' ' << job.service << ' ' << job.stall << ' '
        << job.sojourn << ' ' << job.slices << "\n";
  }
  // In-flight spans in sorted order: the serialized form must not depend
  // on unordered_map iteration.
  const std::map<std::uint64_t, Span> sorted(spans_.begin(), spans_.end());
  out << "inflight " << sorted.size() << "\n";
  for (const auto& [job_id, span] : sorted) {
    out << job_id << ' ' << span.benchmark_id << ' ' << span.arrival << ' '
        << span.first_dispatch << ' ' << (span.dispatched ? 1 : 0) << ' '
        << span.service << ' ' << span.slices << "\n";
  }
}

void JobSpanCollector::restore_state(std::istream& in,
                                     const std::string& context) {
  st::Reader r(in, context);
  r.expect("spans");
  if (r.read<SimTime>("span window width") != window_cycles_) {
    r.fail("span window width does not match");
  }
  if (r.read<std::size_t>("span top-k") != top_k_) {
    r.fail("span top-k does not match");
  }
  r.expect("untaken");
  const std::size_t untaken = r.count("untaken window count");
  if (untaken > kMaxUntakenWindows) r.fail("too many untaken windows");
  untaken_.clear();
  for (std::size_t i = 0; i < untaken; ++i) {
    const auto index = r.read<std::uint64_t>("untaken window index");
    if (!untaken_.empty() && index <= untaken_.rbegin()->first) {
      r.fail("untaken windows out of order");
    }
    untaken_[index].restore_state(in, context);
  }
  totals_.queue.restore_state(in, context);
  totals_.service.restore_state(in, context);
  totals_.stall.restore_state(in, context);
  totals_.sojourn.restore_state(in, context);
  r.expect("slowest");
  const std::size_t slow = r.count("slowest count");
  if (slow > top_k_) r.fail("slowest list exceeds top-k");
  slowest_.clear();
  for (std::size_t i = 0; i < slow; ++i) {
    SlowJob job;
    job.job_id = r.read<std::uint64_t>("slow job id");
    job.benchmark_id = r.read<std::size_t>("slow benchmark");
    job.arrival = r.read<SimTime>("slow arrival");
    job.queue = r.read<Cycles>("slow queue");
    job.service = r.read<Cycles>("slow service");
    job.stall = r.read<Cycles>("slow stall");
    job.sojourn = r.read<Cycles>("slow sojourn");
    job.slices = r.read<std::uint64_t>("slow slices");
    if (i > 0 && slower(job, slowest_.back())) {
      r.fail("slowest list is not in slowest-first order");
    }
    slowest_.push_back(job);
  }
  r.expect("inflight");
  const std::size_t inflight = r.count("in-flight count");
  spans_.clear();
  for (std::size_t i = 0; i < inflight; ++i) {
    const auto job_id = r.read<std::uint64_t>("in-flight job id");
    Span span;
    span.benchmark_id = r.read<std::size_t>("in-flight benchmark");
    span.arrival = r.read<SimTime>("in-flight arrival");
    span.first_dispatch = r.read<SimTime>("in-flight dispatch");
    span.dispatched = r.flag("in-flight dispatched flag");
    span.service = r.read<Cycles>("in-flight service");
    span.slices = r.read<std::uint64_t>("in-flight slices");
    if (span.dispatched && span.first_dispatch < span.arrival) {
      r.fail("in-flight span dispatched before its arrival");
    }
    if (!spans_.emplace(job_id, span).second) {
      r.fail("in-flight job id listed twice");
    }
  }
}

void JobSpanCollector::check_resumed(const std::vector<HeldJob>& held,
                                     SimTime now,
                                     const std::string& context) const {
  if (held.size() != spans_.size()) {
    st::fail(context, "in-flight spans do not match the simulator's jobs");
  }
  for (const HeldJob& job : held) {
    const auto it = spans_.find(job.job_id);
    if (it == spans_.end() || (job.started_at && !it->second.dispatched)) {
      st::fail(context, "in-flight spans do not match the simulator's jobs");
    }
    const Span& span = it->second;
    const SimTime until = job.started_at.value_or(now);
    if (span.arrival > now ||
        (span.dispatched && (span.first_dispatch > until ||
                             span.service > until - span.first_dispatch))) {
      st::fail(context, "in-flight span of job " +
                            std::to_string(job.job_id) +
                            " does not fit before the boundary");
    }
  }
}

namespace {

RunReport::LatencyMetric to_metric(const Log2Histogram& h) {
  RunReport::LatencyMetric m;
  m.p50 = h.percentile(50.0);
  m.p95 = h.percentile(95.0);
  m.p99 = h.percentile(99.0);
  m.max = h.max();
  m.sum = h.sum();
  return m;
}

RunReport::LatencyStats to_stats(const LatencyAccumulator& acc) {
  RunReport::LatencyStats stats;
  stats.jobs = acc.jobs();
  stats.queue = to_metric(acc.queue);
  stats.service = to_metric(acc.service);
  stats.stall = to_metric(acc.stall);
  stats.sojourn = to_metric(acc.sojourn);
  return stats;
}

}  // namespace

void attach_latency_summary(
    RunReport& report,
    const std::vector<const JobSpanCollector*>& collectors) {
  // Ordered map: per-policy sections emit in name order, independent of
  // collector wiring order.
  std::map<std::string, LatencyAccumulator> by_policy;
  LatencyAccumulator overall;
  std::vector<SlowJob> slowest;
  std::size_t top_k = JobSpanCollector::kDefaultTopK;
  for (const JobSpanCollector* collector : collectors) {
    if (collector == nullptr) continue;
    by_policy[collector->policy_label()].merge(collector->totals());
    overall.merge(collector->totals());
    slowest.insert(slowest.end(), collector->slowest().begin(),
                   collector->slowest().end());
    top_k = std::max(top_k, collector->top_k());
  }
  report.latency = to_stats(overall);
  report.latency_policies.clear();
  for (const auto& [policy, acc] : by_policy) {
    report.latency_policies.push_back({policy, to_stats(acc)});
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const SlowJob& a, const SlowJob& b) { return slower(a, b); });
  if (slowest.size() > top_k) slowest.resize(top_k);
  report.latency_slowest.clear();
  for (const SlowJob& job : slowest) {
    report.latency_slowest.push_back({job.job_id, job.benchmark_id,
                                      job.arrival, job.queue, job.service,
                                      job.stall, job.sojourn, job.slices});
  }
}

}  // namespace hetsched
