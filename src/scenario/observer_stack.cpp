#include "scenario/observer_stack.hpp"

#include <sstream>
#include <utility>

#include "scenario/scenario_runner.hpp"

namespace hetsched {

ObserverStack::ObserverStack(JobSpanCollector span_collector,
                             WindowedCollector window_collector,
                             ScheduleObserver* caller)
    : spans(std::move(span_collector)),
      windows(std::move(window_collector)),
      caller_(caller),
      fanout_({caller, &spans, &windows}) {
  windows.set_span_source(&spans);
}

ObserverStack::ObserverStack(const Scenario& scenario,
                             const ScenarioContext& context,
                             SimTime window_cycles, ScheduleObserver* caller)
    : ObserverStack(JobSpanCollector(scenario.policy, window_cycles),
                    WindowedCollector(scenario.make_system().core_count(),
                                      WindowedOptions{window_cycles, 0},
                                      &context.suite()),
                    caller) {}

ObserverStack::ObserverStack(ObserverStack&& other)
    : ObserverStack(std::move(other.spans), std::move(other.windows),
                    other.caller_) {}

void ObserverStack::finalize() { windows.finalize(); }

std::string ObserverStack::jsonl(
    const std::optional<PortfolioStats>& portfolio) const {
  std::ostringstream out;
  windows.write_jsonl(out);
  if (portfolio.has_value()) out << portfolio_switch_jsonl(*portfolio);
  return out.str();
}

void ObserverStack::attach(RunReport& report) const {
  attach_window_summary(report, windows, AnomalyConfig{});
  attach_latency_summary(report, {&spans});
}

}  // namespace hetsched
