// Extension bench (Section III): "this general structure could be scaled
// up or down for different system requirements".
//
// Sweeps the core count (repeating the paper's 2/4/8/8 KB mix) with the
// offered load scaled proportionally, and reports the proposed system's
// energy vs an equally sized homogeneous base machine — showing the
// heterogeneity benefit is not specific to the quad-core.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  std::cout << "=== Extension: core-count scaling ===\n\n";

  TablePrinter table({"cores", "mix", "proposed/base total",
                      "proposed/base cycles", "stalls", "base util"});
  for (const std::size_t n : {2u, 4u, 8u, 12u}) {
    ExperimentOptions options;
    options.scenario.arrivals.count = 3000;
    // Keep per-core offered load constant: the quad-core default gap is
    // 55k cycles, so an n-core machine gets gap 55k * 4 / n.
    options.scenario.arrivals.mean_interarrival_cycles =
        55000.0 * 4.0 / static_cast<double>(n);
    options.scenario.cores = n;
    Experiment experiment(options);

    const SystemConfig machine = SystemConfig::scaled_heterogeneous(n);
    std::string mix;
    for (const CoreSpec& core : machine.cores) {
      mix += std::to_string(core.cache_size_bytes / 1024) + "/";
    }
    mix.pop_back();

    const SimulationResult base = experiment.run("base").result;
    const SimulationResult proposed = experiment.run("proposed").result;

    double util = 0.0;
    for (const CoreUsage& core : base.per_core) util += core.utilization;
    util /= static_cast<double>(base.per_core.size());

    const NormalizedEnergy norm = normalize(proposed, base);
    table.add_row({std::to_string(n), mix,
                   TablePrinter::num(norm.total, 3),
                   TablePrinter::num(norm.cycles, 3),
                   std::to_string(proposed.stall_events),
                   TablePrinter::num(util * 100.0, 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nEach row compares against a homogeneous 8KB_4W_64B "
               "machine with the same core count and the same (per-core-"
               "constant) offered load.\n";
  return 0;
}
