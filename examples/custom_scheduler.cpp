// Writing your own scheduler policy.
//
// The library's SchedulerPolicy interface is open: this example implements
// a "performance-first" policy that always places jobs on the core where
// they finish fastest (using the profiling table's observed cycle counts),
// and races it against the paper's energy-oriented policies on the same
// arrival stream.
//
// Run:  ./build/examples/custom_scheduler
#include <iostream>
#include <limits>

#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hetsched;

// Schedules onto the idle core with the lowest *observed* execution time
// for this benchmark, exploring unknown per-size configurations with the
// Figure-5 heuristic when nothing is known yet. Never stalls.
class PerformanceFirstPolicy final : public SchedulerPolicy {
 public:
  explicit PerformanceFirstPolicy(const SizePredictor& predictor)
      : predictor_(&predictor) {}

  std::string_view name() const override { return "performance-first"; }

  void on_profiled(std::size_t benchmark_id, SystemView& view) override {
    ProfilingTable::Entry& entry = view.table().entry(benchmark_id);
    entry.predicted_best_size_bytes =
        predictor_->predict(benchmark_id, entry.statistics);
  }

  Decision decide(const Job& job, SystemView& view) override {
    if (const auto profiling =
            policy_detail::profiling_decision(job, view)) {
      return *profiling;
    }
    const ProfilingTable::Entry& entry =
        view.table().entry(job.benchmark_id);

    // Candidate per idle core: its tuned best configuration if known
    // (ranked by observed cycles), otherwise a heuristic exploration step.
    std::optional<Decision> best_run;
    Cycles best_cycles = std::numeric_limits<Cycles>::max();
    for (std::size_t core : view.idle_cores()) {
      const std::uint32_t size = view.core(core).spec.cache_size_bytes;
      if (!TuningHeuristic::complete(entry, size)) {
        // Unknown territory: explore it right away (also gathers the
        // cycle data future decisions rank on).
        return policy_detail::run_with_heuristic(core, size, entry);
      }
      const CacheConfig config = TuningHeuristic::best_known(entry, size);
      const Observation* obs = entry.find(config);
      if (obs != nullptr && obs->cycles < best_cycles) {
        best_cycles = obs->cycles;
        best_run = Decision::run(core, config, ExecutionKind::kNormal);
      }
    }
    if (best_run.has_value()) return *best_run;
    return Decision::stall();
  }

 private:
  const SizePredictor* predictor_;
};

}  // namespace

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  options.scenario.arrivals.count = 2000;  // quicker demo run
  Experiment experiment(options);
  const SystemRun base = experiment.run("base");

  TablePrinter table(
      {"policy", "total energy", "exec cycles", "makespan", "stalls"});
  auto add = [&](const SystemRun& run) {
    const NormalizedEnergy n = normalize(run.result, base.result);
    table.add_row({run.name, TablePrinter::num(n.total, 3),
                   TablePrinter::num(n.cycles, 3),
                   TablePrinter::num(n.makespan, 3),
                   std::to_string(run.result.stall_events)});
  };

  add(experiment.run("proposed"));
  add(experiment.run("energy-centric"));
  PerformanceFirstPolicy performance_first(experiment.predictor());
  add(experiment.run(performance_first,
                     std::string(performance_first.name())));

  std::cout << "Custom vs built-in policies (normalised to the base "
               "system):\n";
  table.print(std::cout);
  std::cout << "\nThe performance-first policy trades energy for speed: "
               "fewer total cycles, but it burns energy running small-"
               "working-set jobs on big caches.\n";
  return 0;
}
