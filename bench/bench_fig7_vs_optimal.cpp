// Figure 7 — performance (number of cycles) and idle/dynamic/total energy
// of the energy-centric and proposed systems, normalised to the optimal
// (exhaustive-search) system.
//
// Paper values (DATE'19, Figure 7, ratios to optimal):
//   energy-centric: cycles 0.83, idle 1.10, dynamic 0.65, total 1.09
//   proposed:       cycles 0.75, idle 0.74, dynamic 0.69, total 0.76
//
// "Cycles" is the total number of execution cycles consumed by the 5000
// benchmarks: the optimal system pays for physically executing all 18
// configurations per benchmark and for never-stall placements in slow
// configurations; predictive systems avoid most of that work.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  Experiment experiment(options);

  const SystemRun optimal = experiment.run("optimal");
  const SystemRun ec = experiment.run("energy-centric");
  const SystemRun proposed = experiment.run("proposed");

  std::cout << "=== Figure 7: cycles and energy normalised to the optimal "
               "system ===\n\n";

  TablePrinter table({"system", "cycles", "idle", "dynamic", "total",
                      "paper cycles", "paper total"});
  struct PaperRow {
    double cycles, total;
  };
  auto add = [&](const SystemRun& run, PaperRow paper) {
    const NormalizedEnergy n = normalize(run.result, optimal.result);
    table.add_row({run.name, TablePrinter::num(n.cycles, 2),
                   TablePrinter::num(n.idle, 2),
                   TablePrinter::num(n.dynamic, 2),
                   TablePrinter::num(n.total, 2),
                   TablePrinter::num(paper.cycles, 2),
                   TablePrinter::num(paper.total, 2)});
  };
  add(ec, {0.83, 1.09});
  add(proposed, {0.75, 0.76});
  table.print(std::cout);

  CsvWriter csv("fig7_vs_optimal.csv",
                {"system", "cycles", "idle", "dynamic", "total",
                 "makespan"});
  for (const SystemRun* run : {&ec, &proposed}) {
    const NormalizedEnergy n = normalize(run->result, optimal.result);
    // CSVs are machine-read: full round-trippable precision, not the
    // rounded console-table values.
    csv.add_row({run->name, CsvWriter::number(n.cycles),
                 CsvWriter::number(n.idle), CsvWriter::number(n.dynamic),
                 CsvWriter::number(n.total),
                 CsvWriter::number(n.makespan)});
  }

  std::cout << "\nExecution-cycle totals (G cycles): optimal "
            << TablePrinter::num(
                   static_cast<double>(
                       optimal.result.total_execution_cycles) /
                       1e9,
                   2)
            << ", energy-centric "
            << TablePrinter::num(
                   static_cast<double>(ec.result.total_execution_cycles) /
                       1e9,
                   2)
            << ", proposed "
            << TablePrinter::num(
                   static_cast<double>(
                       proposed.result.total_execution_cycles) /
                       1e9,
                   2)
            << "\nTuning runs: optimal " << optimal.result.tuning_runs
            << ", energy-centric " << ec.result.tuning_runs << ", proposed "
            << proposed.result.tuning_runs
            << "\nSeries written to fig7_vs_optimal.csv\n";
  return 0;
}
