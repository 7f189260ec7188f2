// Figure 6 — idle, dynamic and total energy of the optimal,
// energy-centric and proposed systems, normalised to the base system
// (all cores fixed at 8KB_4W_64B).
//
// Paper values (DATE'19, Figure 6, ratios to base):
//   optimal:        idle 0.97, dynamic 0.65, total 0.94
//   energy-centric: idle 1.06, dynamic 0.42, total 1.02
//   proposed:       idle 0.73, dynamic 0.45, total 0.71
//
// The paper's headline: the proposed system reduces total energy by ~28-29%
// on average vs the fixed-configuration base system.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  Experiment experiment(options);

  const Experiment::StandardRuns runs = experiment.run_standard_systems();
  const SystemRun& base = runs.base;
  const SystemRun& optimal = runs.optimal;
  const SystemRun& ec = runs.energy_centric;
  const SystemRun& proposed = runs.proposed;

  std::cout << "=== Figure 6: energy normalised to the base system ===\n"
            << "(" << options.scenario.arrivals.count
            << " arrivals, mean inter-arrival "
            << options.scenario.arrivals.mean_interarrival_cycles
            << " cycles)\n\n";

  TablePrinter table({"system", "idle", "dynamic", "total",
                      "paper idle", "paper dynamic", "paper total"});
  struct PaperRow {
    double idle, dynamic, total;
  };
  auto add = [&](const SystemRun& run, PaperRow paper) {
    const NormalizedEnergy n = normalize(run.result, base.result);
    table.add_row({run.name, TablePrinter::num(n.idle, 2),
                   TablePrinter::num(n.dynamic, 2),
                   TablePrinter::num(n.total, 2),
                   TablePrinter::num(paper.idle, 2),
                   TablePrinter::num(paper.dynamic, 2),
                   TablePrinter::num(paper.total, 2)});
  };
  add(optimal, {0.97, 0.65, 0.94});
  add(ec, {1.06, 0.42, 1.02});
  add(proposed, {0.73, 0.45, 0.71});
  table.print(std::cout);

  CsvWriter csv("fig6_energy_vs_base.csv",
                {"system", "idle", "dynamic", "total"});
  for (const SystemRun* run : {&optimal, &ec, &proposed}) {
    const NormalizedEnergy n = normalize(run->result, base.result);
    // CSVs are machine-read: full round-trippable precision, not the
    // rounded console-table values.
    csv.add_row({run->name, CsvWriter::number(n.idle),
                 CsvWriter::number(n.dynamic), CsvWriter::number(n.total)});
  }

  std::cout << "\nAbsolute totals (mJ): base "
            << TablePrinter::num(base.result.total_energy().millijoules(), 1)
            << ", optimal "
            << TablePrinter::num(optimal.result.total_energy().millijoules(),
                                 1)
            << ", energy-centric "
            << TablePrinter::num(ec.result.total_energy().millijoules(), 1)
            << ", proposed "
            << TablePrinter::num(proposed.result.total_energy().millijoules(),
                                 1)
            << "\n";

  const NormalizedEnergy headline = normalize(proposed.result, base.result);
  std::cout << "Headline total-energy reduction (proposed vs base): "
            << TablePrinter::pct(headline.total - 1.0)
            << "  (paper: -29%)\n"
            << "Series written to fig6_energy_vs_base.csv\n";
  return 0;
}
