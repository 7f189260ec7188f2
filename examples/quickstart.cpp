// Quickstart: the full paper pipeline in ~60 lines.
//
//  1. Build the synthetic embedded suite and characterise it across the
//     18-configuration design space (SimpleScalar+CACTI stage).
//  2. Train the bagged ANN best-size predictor on held-out variants.
//  3. Run the four systems of Section V over one 5000-job arrival stream.
//  4. Print Figure-6-style energy ratios against the base system.
//
// Run:  ./build/examples/quickstart
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  ExperimentOptions options;  // paper-scale defaults: 5000 arrivals
  std::cout << "Characterising suite and training the ANN predictor...\n";
  Experiment experiment(options);

  const PredictorReport& report = experiment.predictor().report();
  std::cout << "  benchmarks: " << experiment.suite().size()
            << " (scheduling " << experiment.scheduling_ids().size()
            << ")\n"
            << "  ANN: " << report.selected_features
            << " selected features, test accuracy "
            << TablePrinter::num(report.test_accuracy * 100.0, 1) << "%\n\n";

  std::cout << "Running the four systems over "
            << options.scenario.arrivals.count << " arrivals...\n";
  const Experiment::StandardRuns runs = experiment.run_standard_systems();
  const SystemRun& base = runs.base;
  const SystemRun& optimal = runs.optimal;
  const SystemRun& energy_centric = runs.energy_centric;
  const SystemRun& proposed = runs.proposed;

  TablePrinter table({"system", "idle", "dynamic", "total", "cycles",
                      "stalls", "tuning runs"});
  auto add = [&](const SystemRun& run) {
    const NormalizedEnergy n = normalize(run.result, base.result);
    table.add_row({run.name, TablePrinter::pct(n.idle - 1.0),
                   TablePrinter::pct(n.dynamic - 1.0),
                   TablePrinter::pct(n.total - 1.0),
                   TablePrinter::pct(n.cycles - 1.0),
                   std::to_string(run.result.stall_events),
                   std::to_string(run.result.tuning_runs)});
  };
  add(base);
  add(optimal);
  add(energy_centric);
  add(proposed);

  std::cout << "\nEnergy and cycles relative to the base system "
               "(all cores fixed at 8KB_4W_64B):\n";
  table.print(std::cout);
  std::cout << "\nPaper headline: the proposed scheduler reduces total "
               "energy by ~28% vs the base system.\n";
  return 0;
}
