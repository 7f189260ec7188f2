// Structured event tracer: records every simulator emit point (slices,
// dispatches, preemptions, reconfiguration attempts, idle intervals,
// faults) plus runtime events (thread-pool job spans, profile-cache
// hits/misses) and exports them as Chrome trace-event / Perfetto
// compatible JSON.
//
// Determinism: every timestamp is SimTime (or a logical tick for
// runtime events) — never wall clock — and events are appended in
// simulation event order on the single simulation thread, so the
// exported trace is byte-identical across runs and HETSCHED_THREADS
// values. In the exported JSON one trace "microsecond" is one simulated
// cycle; tid is the core index.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/schedule_log.hpp"
#include "obs/metrics.hpp"

namespace hetsched {

// One retained event: a fixed-size record that owns no heap memory, so
// a simulator event costs the tracer 56 bytes (about 56 MB at the
// 1M-event default cap). write_chrome_trace renders each event's name
// and args from the typed fields; runtime events (add_span /
// add_instant) keep their caller-given name and args in the tracer's
// side table instead.
struct TraceEvent {
  // The emit point that recorded the event; it fixes the event's name,
  // phase and args.
  enum class Type : std::uint8_t {
    kSlice,     // 'X' exec:<kind>
    kJobEnd,    // 'e' job (the retiring slice)
    kFault,     // 'i' fault:<kind>
    kJobBegin,  // 'b' job (the arrival)
    kDispatch,  // 'i' dispatch
    kReconfig,  // 'i' reconfig, or reconfig-retry when it failed
    kIdle,      // 'X' idle
    kPreempt,   // 'i' preempt
    kRuntime,   // 'X' add_span / 'i' add_instant
  };

  SimTime ts = 0;
  SimTime dur = 0;  // phase 'X' only
  // The job's id: the "job" arg, and the async pairing id of 'b'/'e'
  // (rendered with a "cat" so Chrome / Perfetto match begin to end on
  // (cat, id, name)).
  std::uint64_t job = 0;
  std::uint32_t tid = 0;
  Type type = Type::kRuntime;
  // 'X' = complete (duration) event, 'i' = instant event, 'b'/'e' =
  // async span begin/end (a job's lifecycle bar; paired by `job`).
  char phase = 'X';
  // The ExecutionKind (kSlice, kDispatch) or FaultRecord::Kind (kFault).
  std::uint8_t kind = 0;
  // completed (kSlice), hung (kDispatch), success (kReconfig) or
  // was_hung (kPreempt).
  bool flag = false;
  // The remaining args; only the member that `type` names is set.
  union {
    struct {
      std::uint64_t benchmark;
      std::uint32_t size_bytes;  // the slice's CacheConfig
      std::uint32_t associativity;
      std::uint32_t line_bytes;
    } slice{};
    struct {
      std::uint64_t benchmark;
      Cycles backoff;
      Cycles duration;
    } dispatch;
    struct {
      Cycles backoff_wait;
      std::uint32_t attempt;
    } reconfig;
    struct {
      std::uint64_t benchmark;
      std::int32_t priority;
      std::uint32_t cp_rank;
    } arrival;             // kJobBegin
    std::size_t runtime;   // kRuntime: the index of its name and args
  };
};

static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 56,
              "a trace event is a fixed-size record with no owned strings");

// A ScheduleObserver that retains the full event stream. When a
// MetricsRegistry is attached, the tracer also maintains counters and a
// slice-duration histogram under `prefix` (registered at construction,
// so registration order is the tracer construction order).
class EventTracer final : public ScheduleObserver {
 public:
  explicit EventTracer(MetricsRegistry* metrics = nullptr,
                       const std::string& prefix = "sim.");

  void on_slice(const ScheduledSlice& slice) override;
  void on_fault(const FaultRecord& record) override;
  void on_arrival(const ArrivalEvent& event) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_reconfig(const ReconfigEvent& event) override;
  void on_idle(const IdleEvent& event) override;
  void on_preempt(const PreemptEvent& event) override;

  // Direct appends for non-simulator tracks (pool spans, cache events).
  void add_span(std::string name, SimTime ts, SimTime dur,
                std::uint32_t tid,
                std::vector<std::pair<std::string, std::string>> args = {});
  void add_instant(std::string name, SimTime ts, std::uint32_t tid,
                   std::vector<std::pair<std::string, std::string>> args =
                       {});

  const std::vector<TraceEvent>& events() const { return events_; }
  // The event's trace name, e.g. "exec:normal" or an add_span name.
  std::string name(const TraceEvent& event) const;

  // Retention cap: at most `max` events are kept (0 = unlimited); the
  // default bounds a million-job streaming trace. Once full, the
  // retained stream is the run's prefix — later events are counted in
  // dropped_events() (and the `dropped_trace_events` metric) but not
  // stored. Metric counters keep updating for dropped events, so the
  // registry totals stay exact.
  void set_max_events(std::size_t max) { max_events_ = max; }
  std::size_t max_events() const { return max_events_; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Job lifecycle spans: when enabled, each arrival opens an async 'b'
  // event and the retiring slice closes it with an 'e', so every job's
  // life (admission to retirement) renders as one bar on an async track
  // in the trace UI. Off by default: the span events roughly double the
  // event volume and older byte-identity baselines predate them.
  void set_job_spans(bool on) { job_spans_ = on; }
  bool job_spans() const { return job_spans_; }

  static constexpr std::size_t kDefaultMaxEvents = 1'000'000;

 private:
  friend void write_chrome_trace(
      std::ostream& out,
      std::span<const std::pair<std::string, const EventTracer*>> processes);

  // A runtime event's caller-given name and args (values are emitted as
  // escaped JSON strings, keys in the given order).
  struct RuntimeEvent {
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
  };

  // False (and counts a drop) when the retention cap is exhausted.
  bool retain();
  // Renders one retained event as a trace-event JSON object.
  void write_event(std::ostream& out, const TraceEvent& event,
                   std::size_t pid) const;
  void add_runtime(char phase, std::string name, SimTime ts, SimTime dur,
                   std::uint32_t tid,
                   std::vector<std::pair<std::string, std::string>> args);

  std::vector<TraceEvent> events_;
  std::vector<RuntimeEvent> runtime_;  // indexed by TraceEvent::runtime
  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_events_ = 0;
  bool job_spans_ = false;
  MetricsRegistry* metrics_ = nullptr;
  // Registered up front (null when metrics_ is null).
  Counter* dispatches_ = nullptr;
  Counter* slices_ = nullptr;
  Counter* completed_slices_ = nullptr;
  Counter* preempted_slices_ = nullptr;
  Counter* preemptions_ = nullptr;
  Counter* reconfig_attempts_ = nullptr;
  Counter* reconfig_failures_ = nullptr;
  Counter* idle_intervals_ = nullptr;
  Counter* idle_cycles_ = nullptr;
  Counter* faults_ = nullptr;
  Counter* watchdog_fires_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  FixedHistogram* slice_cycles_ = nullptr;
};

// Renders one or more tracers as a single Chrome trace-event JSON
// document: process i gets pid = i and a process_name metadata record,
// events keep their append order. Byte-identical output for identical
// event streams.
void write_chrome_trace(
    std::ostream& out,
    std::span<const std::pair<std::string, const EventTracer*>> processes);

}  // namespace hetsched
