// The observer stack of an observed run: per-job spans and windowed
// telemetry, wired once, behind an optional caller observer.
//
// The windowed collector takes window k's latency digest (its `lat_*`
// columns) from the span collector when it closes window k. The stack
// wires that handshake once for every observed path — the scenario
// driver and sweep cells — and keeps it pointing at its own span
// collector when it is moved.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/portfolio_policy.hpp"
#include "obs/latency.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"

namespace hetsched {

struct Scenario;
class ScenarioContext;

class ObserverStack {
 public:
  // The stack for `scenario`: spans labelled with its policy (the
  // population in the report's latency section), windows over its
  // machine, energy and prediction columns from the context's suite.
  // `caller` (optional, e.g. a tracer) sees every event first and must
  // outlive the stack's runs.
  ObserverStack(const Scenario& scenario, const ScenarioContext& context,
                SimTime window_cycles, ScheduleObserver* caller = nullptr);
  // The moved-to stack observes through its own collectors; the
  // moved-from one stays wired to its (moved-from) own. A simulator keeps
  // the address observer() returned, so move a stack only once no run
  // delivers events through it (the checkpoint driver moves it into its
  // outcome after finish()).
  ObserverStack(ObserverStack&& other);
  ObserverStack& operator=(ObserverStack&&) = delete;

  // Caller, spans, windows: what the simulator or ScenarioRun observes.
  ScheduleObserver* observer() { return &fanout_; }

  // Closes the last window. Idempotent.
  void finalize();

  // The windows JSONL: one line per retained window, then one line per
  // portfolio switch when `portfolio` is given.
  std::string jsonl(
      const std::optional<PortfolioStats>& portfolio = std::nullopt) const;

  // Fills the report's window summary (anomaly verdicts included) and
  // its latency section.
  void attach(RunReport& report) const;

  JobSpanCollector spans;
  WindowedCollector windows;

 private:
  ObserverStack(JobSpanCollector span_collector,
                WindowedCollector window_collector,
                ScheduleObserver* caller);

  ScheduleObserver* caller_;
  FanoutObserver fanout_;
};

}  // namespace hetsched
