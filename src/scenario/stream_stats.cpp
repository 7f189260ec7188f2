#include "scenario/stream_stats.hpp"

#include <istream>
#include <ostream>

#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

// Event-type tags mixed into the digest so identical field values under
// different event kinds cannot alias.
enum : unsigned char {
  kTagSlice = 1,
  kTagFault,
  kTagDispatch,
  kTagReconfig,
  kTagIdle,
  kTagPreempt,
};

}  // namespace

void StreamStats::on_slice(const ScheduledSlice& slice) {
  digest_.update_value(static_cast<unsigned char>(kTagSlice))
      .update_value(slice.job_id)
      .update_value(slice.benchmark_id)
      .update_value(slice.core)
      .update_value(slice.start)
      .update_value(slice.end)
      .update_value(slice.config.size_bytes)
      .update_value(slice.config.associativity)
      .update_value(slice.config.line_bytes)
      .update_value(static_cast<int>(slice.kind))
      .update_value(slice.completed);

  ++slices_;
  if (slice.core >= per_core_.size() || slice.end <= slice.start) {
    ++invariant_violations_;
    return;
  }
  CoreAggregate& core = per_core_[slice.core];
  // Slices arrive in completion order, which on one core is also start
  // order; an overlap with the previous slice on the same core means two
  // jobs shared the core.
  if (core.slices > 0 && slice.start < core.last_slice_end) {
    ++invariant_violations_;
  }
  core.last_slice_end = slice.end;
  ++core.slices;
  core.busy_cycles += slice.end - slice.start;
  busy_cycles_ += slice.end - slice.start;
  longest_slice_ = std::max<Cycles>(longest_slice_, slice.end - slice.start);
  if (slice.completed) {
    ++completed_slices_;
    ++core.completed_slices;
  }
}

void StreamStats::on_fault(const FaultRecord& record) {
  digest_.update_value(static_cast<unsigned char>(kTagFault))
      .update_value(record.time)
      .update_value(record.core)
      .update_value(record.job_id)
      .update_value(static_cast<int>(record.kind));
  ++faults_;
}

void StreamStats::on_dispatch(const DispatchEvent& event) {
  digest_.update_value(static_cast<unsigned char>(kTagDispatch))
      .update_value(event.time)
      .update_value(event.core)
      .update_value(event.job_id)
      .update_value(event.benchmark_id)
      .update_value(static_cast<int>(event.kind))
      .update_value(event.backoff)
      .update_value(event.duration)
      .update_value(event.hung);
  ++dispatches_;
}

void StreamStats::on_reconfig(const ReconfigEvent& event) {
  digest_.update_value(static_cast<unsigned char>(kTagReconfig))
      .update_value(event.time)
      .update_value(event.core)
      .update_value(event.job_id)
      .update_value(event.attempt)
      .update_value(event.success)
      .update_value(event.backoff_wait);
  ++reconfig_attempts_;
  if (!event.success) ++reconfig_failures_;
}

void StreamStats::on_idle(const IdleEvent& event) {
  digest_.update_value(static_cast<unsigned char>(kTagIdle))
      .update_value(event.core)
      .update_value(event.from)
      .update_value(event.to);
  ++idle_intervals_;
  if (event.core < per_core_.size() && event.to > event.from) {
    per_core_[event.core].idle_cycles += event.to - event.from;
    idle_cycles_ += event.to - event.from;
  }
}

void StreamStats::on_dag_release(const DagReleaseEvent& event) {
  // No digest fold — see the header: keeps DAG streaming digests
  // comparable to batch replays, which observe no release events.
  (void)event;
  ++dag_releases_;
}

void StreamStats::on_preempt(const PreemptEvent& event) {
  digest_.update_value(static_cast<unsigned char>(kTagPreempt))
      .update_value(event.time)
      .update_value(event.core)
      .update_value(event.job_id)
      .update_value(event.was_hung);
  ++preemptions_;
}

void StreamStats::save_state(std::ostream& out) const {
  out << "stream-stats " << per_core_.size() << "\n"
      << "totals " << slices_ << ' ' << completed_slices_ << ' '
      << busy_cycles_ << ' ' << idle_cycles_ << ' ' << longest_slice_ << ' '
      << dispatches_ << ' ' << preemptions_ << ' ' << idle_intervals_ << ' '
      << reconfig_attempts_ << ' ' << reconfig_failures_ << ' ' << faults_
      << ' ' << invariant_violations_ << ' ' << dag_releases_ << "\n";
  for (const CoreAggregate& core : per_core_) {
    out << core.slices << ' ' << core.completed_slices << ' '
        << core.busy_cycles << ' ' << core.idle_cycles << ' '
        << core.last_slice_end << "\n";
  }
  out << "digest " << digest_.digest() << "\n";
}

void StreamStats::restore_state(std::istream& in,
                                const std::string& context) {
  snapshot_text::Reader r(in, context);
  r.expect("stream-stats");
  if (r.read<std::size_t>("core count") != per_core_.size()) {
    r.fail("stream-stats core count does not match");
  }
  r.expect("totals");
  for (std::uint64_t* field :
       {&slices_, &completed_slices_, &busy_cycles_, &idle_cycles_,
        &longest_slice_, &dispatches_, &preemptions_, &idle_intervals_,
        &reconfig_attempts_, &reconfig_failures_, &faults_,
        &invariant_violations_, &dag_releases_}) {
    *field = r.read<std::uint64_t>("stream total");
  }
  for (CoreAggregate& core : per_core_) {
    core.slices = r.read<std::uint64_t>("core slices");
    core.completed_slices = r.read<std::uint64_t>("core completed");
    core.busy_cycles = r.read<Cycles>("core busy");
    core.idle_cycles = r.read<Cycles>("core idle");
    core.last_slice_end = r.read<SimTime>("core last slice end");
  }
  r.expect("digest");
  digest_ = Fnv1a(r.read<std::uint64_t>("stream digest"));
}

}  // namespace hetsched
