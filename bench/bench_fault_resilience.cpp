// Fault-resilience sweep — how the four Section-V systems degrade as the
// injected fault rate grows. A uniform rate drives reconfiguration
// failures, stuck-job hangs and counter corruption simultaneously; every
// system runs the identical arrival stream at every rate.
//
// The robustness claim under test: the proposed system keeps completing
// (effectively) every job under faults — watchdog re-dispatch recovers
// stuck jobs, failed reconfigurations degrade to the stale configuration,
// and the prediction sanity guard absorbs corrupted counters — while its
// energy advantage over the base system erodes only gradually.
#include <iostream>
#include <limits>
#include <vector>

#include "core/policies.hpp"
#include "experiment/experiment.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Scenario scenario;
  scenario.arrivals.count = 2000;
  // The predictive systems run on the characterised oracle, so the
  // context trains no ANN: its scenario names a policy that needs none.
  scenario.policy = "base";
  const ScenarioContext context(scenario);
  const OracleSizePredictor oracle(context.suite());

  const std::vector<double> rates = {0.0,  0.001, 0.005, 0.01,
                                     0.02, 0.05,  0.1};
  const std::vector<std::string> systems = {"base", "optimal",
                                            "energy-centric", "proposed"};

  auto run_system = [&](const std::string& name,
                        double rate) -> SimulationResult {
    Scenario cell = scenario;
    cell.policy = name;
    cell.use_standard_machine(4);
    cell.faults = FaultPlan::uniform(rate, 1017);
    auto run_owned = [&](SchedulerPolicy& policy) {
      ScenarioRun run(cell, context, policy);
      run.start();
      run.advance_until(std::numeric_limits<SimTime>::max());
      return run.finish();
    };
    if (name == "energy-centric") {
      EnergyCentricPolicy policy(oracle);
      return run_owned(policy);
    }
    if (name == "proposed") {
      ProposedPolicy policy(oracle);
      return run_owned(policy);
    }
    return run_scenario(cell, context).result;
  };

  std::cout << "=== Fault resilience: uniform fault rate sweep ===\n"
            << "(" << scenario.arrivals.count
            << " arrivals; rate applies to reconfig failures, stuck jobs "
               "and counter corruption)\n\n";

  CsvWriter csv("fault_resilience.csv",
                {"rate", "system", "completed", "completed_fraction",
                 "total_mJ", "makespan", "injected_faults",
                 "watchdog_fires", "degraded_executions",
                 "prediction_fallbacks"});

  TablePrinter table({"rate", "system", "completed", "total mJ",
                      "makespan", "faults", "watchdog", "degraded",
                      "fallbacks"});
  double proposed_completion_at_1pct = 0.0;
  for (const double rate : rates) {
    for (const std::string& name : systems) {
      const SimulationResult r = run_system(name, rate);
      const double fraction =
          static_cast<double>(r.completed_jobs) /
          static_cast<double>(scenario.arrivals.count);
      if (name == "proposed" && rate == 0.01) {
        proposed_completion_at_1pct = fraction;
      }
      table.add_row({TablePrinter::num(rate, 3), name,
                     std::to_string(r.completed_jobs),
                     TablePrinter::num(r.total_energy().millijoules(), 1),
                     std::to_string(r.makespan),
                     std::to_string(r.faults.injected),
                     std::to_string(r.faults.watchdog_fires),
                     std::to_string(r.faults.degraded_executions),
                     std::to_string(r.faults.prediction_fallbacks)});
      // CSVs are machine-read: full round-trippable precision, not the
      // rounded console-table values.
      csv.add_row({CsvWriter::number(rate), name,
                   std::to_string(r.completed_jobs),
                   CsvWriter::number(fraction),
                   CsvWriter::number(r.total_energy().millijoules()),
                   std::to_string(r.makespan),
                   std::to_string(r.faults.injected),
                   std::to_string(r.faults.watchdog_fires),
                   std::to_string(r.faults.degraded_executions),
                   std::to_string(r.faults.prediction_fallbacks)});
    }
  }
  table.print(std::cout);

  std::cout << "\nProposed-system completion at 1% fault rate: "
            << TablePrinter::pct(proposed_completion_at_1pct - 1.0)
            << " vs fault-free (target: >= 99% of jobs complete)\n"
            << "Series written to fault_resilience.csv\n";
  return proposed_completion_at_1pct >= 0.99 ? 0 : 1;
}
