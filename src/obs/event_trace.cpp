#include "obs/event_trace.hpp"

#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"

namespace hetsched {
namespace {

using Type = TraceEvent::Type;

TraceEvent make_event(Type type, char phase, SimTime ts, std::size_t tid,
                      std::uint64_t job) {
  TraceEvent event;
  event.type = type;
  event.phase = phase;
  event.ts = ts;
  event.tid = static_cast<std::uint32_t>(tid);
  event.job = job;
  return event;
}

}  // namespace

EventTracer::EventTracer(MetricsRegistry* metrics,
                         const std::string& prefix)
    : metrics_(metrics) {
  if (metrics_ == nullptr) return;
  dispatches_ = &metrics_->counter(prefix + "dispatches");
  slices_ = &metrics_->counter(prefix + "slices");
  completed_slices_ = &metrics_->counter(prefix + "completed_slices");
  preempted_slices_ = &metrics_->counter(prefix + "preempted_slices");
  preemptions_ = &metrics_->counter(prefix + "preemptions");
  reconfig_attempts_ = &metrics_->counter(prefix + "reconfig_attempts");
  reconfig_failures_ = &metrics_->counter(prefix + "reconfig_failures");
  idle_intervals_ = &metrics_->counter(prefix + "idle_intervals");
  idle_cycles_ = &metrics_->counter(prefix + "idle_cycles");
  faults_ = &metrics_->counter(prefix + "faults");
  watchdog_fires_ = &metrics_->counter(prefix + "watchdog_fires");
  dropped_counter_ = &metrics_->counter(prefix + "dropped_trace_events");
  slice_cycles_ =
      &metrics_->histogram(prefix + "slice_cycles", 0.0, 1e6, 20);
}

bool EventTracer::retain() {
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_events_;
    if (dropped_counter_ != nullptr) dropped_counter_->add();
    return false;
  }
  return true;
}

void EventTracer::on_slice(const ScheduledSlice& slice) {
  if (retain()) {
    TraceEvent& event = events_.emplace_back(make_event(
        Type::kSlice, 'X', slice.start, slice.core, slice.job_id));
    event.dur = slice.end - slice.start;
    event.kind = static_cast<std::uint8_t>(slice.kind);
    event.flag = slice.completed;
    event.slice = {slice.benchmark_id, slice.config.size_bytes,
                   slice.config.associativity, slice.config.line_bytes};
  }
  // The retiring slice closes the job's async lifecycle span.
  if (job_spans_ && slice.completed && retain()) {
    events_.push_back(
        make_event(Type::kJobEnd, 'e', slice.end, slice.core, slice.job_id));
  }
  if (metrics_ == nullptr) return;
  slices_->add();
  (slice.completed ? completed_slices_ : preempted_slices_)->add();
  slice_cycles_->record(static_cast<double>(slice.end - slice.start));
}

void EventTracer::on_fault(const FaultRecord& record) {
  if (retain()) {
    TraceEvent& event = events_.emplace_back(make_event(
        Type::kFault, 'i', record.time, record.core, record.job_id));
    event.kind = static_cast<std::uint8_t>(record.kind);
  }
  if (metrics_ == nullptr) return;
  faults_->add();
  if (record.kind == FaultRecord::Kind::kWatchdogFire) {
    watchdog_fires_->add();
  }
}

void EventTracer::on_arrival(const ArrivalEvent& event) {
  // Arrivals only materialise in the trace as span-begin events; the
  // disabled path stays byte-identical to pre-span traces (and burns no
  // retention budget).
  if (!job_spans_) return;
  if (!retain()) return;
  TraceEvent& begin = events_.emplace_back(
      make_event(Type::kJobBegin, 'b', event.time, 0, event.job_id));
  begin.arrival = {event.benchmark_id, event.priority, event.cp_rank};
}

void EventTracer::on_dispatch(const DispatchEvent& event) {
  if (retain()) {
    TraceEvent& dispatch = events_.emplace_back(make_event(
        Type::kDispatch, 'i', event.time, event.core, event.job_id));
    dispatch.kind = static_cast<std::uint8_t>(event.kind);
    dispatch.flag = event.hung;
    dispatch.dispatch = {event.benchmark_id, event.backoff, event.duration};
  }
  if (dispatches_ != nullptr) dispatches_->add();
}

void EventTracer::on_reconfig(const ReconfigEvent& event) {
  if (retain()) {
    TraceEvent& reconfig = events_.emplace_back(make_event(
        Type::kReconfig, 'i', event.time, event.core, event.job_id));
    reconfig.flag = event.success;
    reconfig.reconfig = {event.backoff_wait, event.attempt};
  }
  if (metrics_ == nullptr) return;
  reconfig_attempts_->add();
  if (!event.success) reconfig_failures_->add();
}

void EventTracer::on_idle(const IdleEvent& event) {
  if (retain()) {
    TraceEvent& idle = events_.emplace_back(
        make_event(Type::kIdle, 'X', event.from, event.core, 0));
    idle.dur = event.to - event.from;
  }
  if (metrics_ == nullptr) return;
  idle_intervals_->add();
  idle_cycles_->add(event.to - event.from);
}

void EventTracer::on_preempt(const PreemptEvent& event) {
  if (retain()) {
    TraceEvent& preempt = events_.emplace_back(make_event(
        Type::kPreempt, 'i', event.time, event.core, event.job_id));
    preempt.flag = event.was_hung;
  }
  if (preemptions_ != nullptr) preemptions_->add();
}

void EventTracer::add_runtime(
    char phase, std::string name, SimTime ts, SimTime dur,
    std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!retain()) return;
  TraceEvent& event =
      events_.emplace_back(make_event(Type::kRuntime, phase, ts, tid, 0));
  event.dur = dur;
  event.runtime = runtime_.size();
  runtime_.push_back({std::move(name), std::move(args)});
}

void EventTracer::add_span(
    std::string name, SimTime ts, SimTime dur, std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  add_runtime('X', std::move(name), ts, dur, tid, std::move(args));
}

void EventTracer::add_instant(
    std::string name, SimTime ts, std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  add_runtime('i', std::move(name), ts, 0, tid, std::move(args));
}

std::string EventTracer::name(const TraceEvent& event) const {
  switch (event.type) {
    case Type::kSlice:
      return std::string("exec:") +
             std::string(to_string(static_cast<ExecutionKind>(event.kind)));
    case Type::kFault:
      return std::string("fault:") +
             std::string(
                 to_string(static_cast<FaultRecord::Kind>(event.kind)));
    case Type::kJobBegin:
    case Type::kJobEnd:
      return "job";
    case Type::kDispatch:
      return "dispatch";
    case Type::kReconfig:
      return event.flag ? "reconfig" : "reconfig-retry";
    case Type::kIdle:
      return "idle";
    case Type::kPreempt:
      return "preempt";
    case Type::kRuntime:
      return runtime_[event.runtime].name;
  }
  return "";
}

// Arg values are JSON strings, keys in a fixed order per event type
// (tests/golden/chrome_trace.json pins every type's bytes).
void EventTracer::write_event(std::ostream& out, const TraceEvent& event,
                              std::size_t pid) const {
  const std::string label = json_escape(name(event));
  out << "{\"name\":\"" << label << "\",\"ph\":\"" << event.phase
      << "\",\"pid\":" << pid << ",\"tid\":" << event.tid
      << ",\"ts\":" << event.ts;
  if (event.phase == 'X') out << ",\"dur\":" << event.dur;
  // Async begin/end events need a category and an id so viewers can
  // pair them into one bar on an async track.
  if (event.phase == 'b' || event.phase == 'e') {
    out << ",\"cat\":\"" << label << "\",\"id\":" << event.job;
  }
  bool any_args = false;
  const auto arg = [&](std::string_view key, const auto& value) {
    out << (any_args ? ",\"" : ",\"args\":{\"") << key << "\":\"" << value
        << "\"";
    any_args = true;
  };
  const auto bit = [](bool flag) { return flag ? '1' : '0'; };
  switch (event.type) {
    case Type::kSlice:
      arg("job", event.job);
      arg("benchmark", event.slice.benchmark);
      arg("config", CacheConfig{event.slice.size_bytes,
                                event.slice.associativity,
                                event.slice.line_bytes}
                        .name());
      arg("completed", bit(event.flag));
      break;
    case Type::kFault:
      arg("job", event.job);
      break;
    case Type::kJobBegin:
      arg("benchmark", event.arrival.benchmark);
      arg("priority", event.arrival.priority);
      arg("cp_rank", event.arrival.cp_rank);
      break;
    case Type::kDispatch:
      arg("job", event.job);
      arg("benchmark", event.dispatch.benchmark);
      arg("kind", to_string(static_cast<ExecutionKind>(event.kind)));
      arg("backoff", event.dispatch.backoff);
      arg("duration", event.dispatch.duration);
      arg("hung", bit(event.flag));
      break;
    case Type::kReconfig:
      arg("job", event.job);
      arg("attempt", event.reconfig.attempt);
      arg("success", bit(event.flag));
      arg("backoff_wait", event.reconfig.backoff_wait);
      break;
    case Type::kPreempt:
      arg("job", event.job);
      arg("was_hung", bit(event.flag));
      break;
    case Type::kRuntime:
      for (const auto& [key, value] : runtime_[event.runtime].args) {
        arg(json_escape(key), json_escape(value));
      }
      break;
    case Type::kJobEnd:
    case Type::kIdle:
      break;
  }
  out << (any_args ? "}}" : "}");
}

void write_chrome_trace(
    std::ostream& out,
    std::span<const std::pair<std::string, const EventTracer*>> processes) {
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    sep();
    out << R"({"name":"process_name","ph":"M","pid":)" << pid
        << R"(,"tid":0,"args":{"name":")"
        << json_escape(processes[pid].first) << "\"}}";
    for (const TraceEvent& event : processes[pid].second->events()) {
      sep();
      processes[pid].second->write_event(out, event, pid);
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace hetsched
