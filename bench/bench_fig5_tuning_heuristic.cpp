// Figure 5 / Section VI — cache tuning heuristic efficiency.
//
// Paper: "Even though our heuristic may explore a minimum of three
// configurations and a maximum of nine configurations, out of 18, no
// benchmark explored more than six configurations, thus our tuning
// heuristic explored significantly fewer configurations than the optimal
// system."
//
// Two evaluations:
//  1. Offline: drive the heuristic to convergence on every (benchmark,
//     core size) against the characterised ground truth; count
//     configurations executed and measure the energy of the converged
//     configuration vs the per-size exhaustive optimum.
//  2. Online: after the full proposed-system run, report how many of the
//     18 configurations each benchmark ever executed, vs 18 for the
//     optimal system.
#include <iostream>

#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hetsched;

// Runs the Figure-5 heuristic to convergence for one benchmark and size,
// recording observations exactly as scheduled executions would.
std::size_t converge(const BenchmarkProfile& profile, ProfilingTable& table,
                     std::size_t id, std::uint32_t size) {
  const ProfilingTable::Entry& entry = table.entry(id);
  std::size_t executed = 0;
  while (auto next = TuningHeuristic::next_config(entry, size)) {
    const ConfigProfile& cp = profile.profile_for(*next);
    table.record(id, *next,
                 Observation{cp.energy.total(), cp.energy.dynamic_energy,
                             cp.energy.total_cycles});
    ++executed;
  }
  return executed;
}

}  // namespace

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  Experiment experiment(options);
  const CharacterizedSuite& suite = experiment.suite();

  std::cout << "=== Figure 5: tuning heuristic efficiency ===\n\n";

  TablePrinter table({"benchmark", "2KB runs", "4KB runs", "8KB runs",
                      "total", "energy vs per-size optimum"});
  RunningStats totals, quality;
  for (std::size_t id : experiment.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    ProfilingTable fresh(suite.size());
    const ProfilingTable::Entry& entry = fresh.entry(id);
    std::size_t total = 0;
    std::vector<std::string> cells{b.instance.name};
    double worst_gap = 0.0;
    for (std::uint32_t size : DesignSpace::sizes()) {
      const std::size_t runs = converge(b, fresh, id, size);
      total += runs;
      cells.push_back(std::to_string(runs));
      const CacheConfig found = TuningHeuristic::best_known(entry, size);
      const double gap = b.profile_for(found).energy.total() /
                             b.best_for_size(size).energy.total() -
                         1.0;
      worst_gap = std::max(worst_gap, gap);
      quality.add(gap);
    }
    totals.add(static_cast<double>(total));
    cells.push_back(std::to_string(total));
    cells.push_back(TablePrinter::pct(worst_gap));
    table.add_row(std::move(cells));
  }
  table.print(std::cout);

  std::cout << "\nHeuristic executions per benchmark across all three core "
               "sizes: mean "
            << TablePrinter::num(totals.mean(), 1) << ", max "
            << TablePrinter::num(totals.max(), 0) << " of 18 configurations"
            << "\nConverged-vs-optimal energy gap (per size): mean "
            << TablePrinter::pct(quality.mean()) << ", worst "
            << TablePrinter::pct(quality.max()) << "\n";

  std::cout << "\n=== Online exploration footprint (full system runs) ===\n";
  const SystemRun optimal = experiment.run("optimal");
  const SystemRun proposed = experiment.run("proposed");
  RunningStats opt_explored, prop_explored;
  for (std::size_t i = 0; i < proposed.explored_configs.size(); ++i) {
    opt_explored.add(static_cast<double>(optimal.explored_configs[i]));
    prop_explored.add(static_cast<double>(proposed.explored_configs[i]));
  }
  std::cout << "Configurations executed per benchmark (of 18): optimal mean "
            << TablePrinter::num(opt_explored.mean(), 1) << ", proposed mean "
            << TablePrinter::num(prop_explored.mean(), 1) << " (max "
            << TablePrinter::num(prop_explored.max(), 0) << ")\n"
            << "Paper: heuristic explored 3-9 per core size, never more "
               "than 6 observed per benchmark.\n";
  return 0;
}
