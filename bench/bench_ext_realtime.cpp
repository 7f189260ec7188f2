// Extension bench (paper future work, §VIII): preemption, priority and
// deadlines.
//
// Assigns every job a deadline of arrival + slack × (base-configuration
// execution time) and sweeps the slack factor from tight to loose,
// comparing four disciplines on deadline-miss rate, mean response time
// and total energy:
//   proposed/FIFO        — the paper's scheduler, deadline-oblivious
//   proposed/EDF queue   — same policy, most-urgent-first ready queue
//   realtime-EDF         — EDF queue + idle-capacity-first placement
//   realtime-EDF+preempt — additionally evicts later-deadline jobs
#include <iostream>
#include <limits>

#include "core/realtime_policy.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  // The default scenario policy (proposed) makes the context train the
  // ANN every variant predicts with.
  Scenario scenario;
  scenario.arrivals.count = 3000;
  const ScenarioContext context(scenario);

  std::cout << "=== Extension: deadlines, EDF and preemption ===\n\n";

  TablePrinter table({"slack", "discipline", "miss rate", "mean response",
                      "preemptions", "total energy mJ"});

  struct Variant {
    std::string label;
    QueueDiscipline discipline;
    // A registry policy, or empty for the non-preempting realtime-EDF
    // policy, which the registry does not offer.
    std::string policy;
  };
  const Variant variants[] = {
      {"proposed/FIFO", QueueDiscipline::kFifo, "proposed"},
      {"proposed/EDF", QueueDiscipline::kEdf, "proposed"},
      {"realtime-EDF", QueueDiscipline::kEdf, ""},
      {"realtime-EDF+preempt", QueueDiscipline::kEdf, "realtime"},
  };
  for (double slack : {2.0, 4.0, 8.0}) {
    for (const Variant& v : variants) {
      Scenario cell = scenario;
      cell.policy = v.policy.empty() ? "realtime" : v.policy;
      cell.discipline = v.discipline;
      cell.realtime = RealtimeOptions{slack, 3};
      cell.use_standard_machine(4);
      SimulationResult result;
      if (v.policy.empty()) {
        RealtimeEdfPolicy policy(*context.predictor(), false);
        ScenarioRun run(cell, context, policy);
        run.start();
        run.advance_until(std::numeric_limits<SimTime>::max());
        result = run.finish();
      } else {
        result = run_scenario(cell, context).result;
      }
      table.add_row(
          {TablePrinter::num(slack, 1) + "x", v.label,
           TablePrinter::num(result.deadline_miss_rate() * 100.0, 1) + "%",
           TablePrinter::num(result.mean_response_cycles() / 1000.0, 0) +
               " kcyc",
           std::to_string(result.preemptions),
           TablePrinter::num(result.total_energy().millijoules(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nDeadline = arrival + slack x base-configuration "
               "execution time; 3 priority levels assigned uniformly.\n";
  return 0;
}
