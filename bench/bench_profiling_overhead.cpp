// Section VI claim — "Profiling only introduced less than .5% overhead in
// total energy consumption."
//
// Reports the energy spent in profiling executions (the base-configuration
// runs on the profiling core) as a fraction of each system's total energy,
// plus the tuning-execution overhead for context.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  Experiment experiment(options);

  const SystemRun optimal = experiment.run("optimal");
  const SystemRun ec = experiment.run("energy-centric");
  const SystemRun proposed = experiment.run("proposed");

  std::cout << "=== Profiling and tuning overhead (Section VI) ===\n\n";

  TablePrinter table({"system", "profiling runs", "profiling energy",
                      "share of total", "tuning runs", "tuning energy share"});
  auto add = [&](const SystemRun& run) {
    const double total = run.result.total_energy().value();
    table.add_row(
        {run.name, std::to_string(run.result.profiling_runs),
         TablePrinter::num(run.result.profiling_energy.millijoules(), 2) +
             " mJ",
         TablePrinter::pct(run.result.profiling_energy.value() / total),
         std::to_string(run.result.tuning_runs),
         TablePrinter::pct(run.result.tuning_energy.value() / total)});
  };
  add(optimal);
  add(ec);
  add(proposed);
  table.print(std::cout);

  const double share = proposed.result.profiling_energy.value() /
                       proposed.result.total_energy().value();
  std::cout << "\nProposed-system profiling overhead: "
            << TablePrinter::pct(share) << " of total energy (paper: < 0.5%)."
            << "\nNote: profiling runs double as real executions of the "
               "arriving job, so the marginal overhead is the difference "
               "between the base configuration and the job's best "
               "configuration for those runs.\n";
  return 0;
}
