// Domain scenario: an automotive engine-control unit.
//
// The paper's introduction motivates embedded systems running a fixed
// application domain. This example builds an automotive-only workload
// (angle-to-time, table lookup, FIR filter, matrix arithmetic, PWM) on a
// custom *asymmetric triple-core* system — showing that the library's
// architecture description, predictor, and scheduler are not hard-wired to
// the paper's quad-core — and reports per-core placement and energy.
//
// Run:  ./build/examples/automotive_pipeline
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  // Characterise the full suite, then restrict scheduling to the
  // automotive kernels.
  ExperimentOptions options;
  options.scenario.arrivals.count = 3000;
  Experiment experiment(options);
  const CharacterizedSuite& suite = experiment.suite();

  std::vector<std::size_t> automotive_ids;
  for (std::size_t id : experiment.scheduling_ids()) {
    if (suite.benchmark(id).instance.domain == Domain::kAutomotive) {
      automotive_ids.push_back(id);
    }
  }
  std::cout << "Automotive workload: ";
  for (std::size_t id : automotive_ids) {
    std::cout << suite.benchmark(id).instance.name << ' ';
  }
  std::cout << "\n\n";

  ArrivalOptions arrival_options;
  arrival_options.count = 3000;
  arrival_options.mean_interarrival_cycles = 70000.0;
  // Both machines below run this stream, each from its own copy.
  GeneratedArrivalStream stream(automotive_ids, arrival_options, 7);
  GeneratedArrivalStream base_stream = stream;

  // A custom ECU: one small 2KB core, two 8KB cores (one of them the
  // profiling core). No 4KB class at all.
  SystemConfig ecu;
  auto spec = [](std::uint32_t size, bool profiling) {
    CoreSpec s;
    s.cache_size_bytes = size;
    s.initial_config =
        CacheConfig{size, DesignSpace::associativities_for(size).front(),
                    DesignSpace::line_sizes().front()};
    s.can_profile = profiling;
    return s;
  };
  ecu.cores = {spec(2048, false), spec(8192, true), spec(8192, true)};
  ecu.primary_profiling_core = 2;
  ecu.secondary_profiling_core = 1;

  // The ANN may predict 4KB, which this machine does not offer; wrap the
  // predictor to clamp predictions onto available sizes.
  class ClampedPredictor final : public SizePredictor {
   public:
    explicit ClampedPredictor(const SizePredictor& inner) : inner_(&inner) {}
    std::uint32_t predict(std::size_t id,
                          const ExecutionStatistics& stats) const override {
      const std::uint32_t size = inner_->predict(id, stats);
      return size <= 2048 ? 2048u : 8192u;
    }

   private:
    const SizePredictor* inner_;
  } predictor(experiment.predictor());

  ProposedPolicy policy(predictor);
  MulticoreSimulator simulator(ecu, suite, experiment.energy(), policy);
  const SimulationResult result = simulator.run_stream(stream);

  // Reference: the same stream on a homogeneous 3-core base machine.
  BasePolicy base_policy;
  MulticoreSimulator base_sim(SystemConfig::fixed_base(3), suite,
                              experiment.energy(), base_policy);
  const SimulationResult base = base_sim.run_stream(base_stream);

  TablePrinter cores({"core", "L1 size", "executions", "utilization"});
  for (std::size_t i = 0; i < result.per_core.size(); ++i) {
    cores.add_row(
        {"core " + std::to_string(i + 1),
         std::to_string(ecu.cores[i].cache_size_bytes / 1024) + " KB",
         std::to_string(result.per_core[i].executions),
         TablePrinter::num(result.per_core[i].utilization * 100.0, 1) +
             "%"});
  }
  std::cout << "Proposed scheduler on the asymmetric ECU:\n";
  cores.print(std::cout);

  std::cout << "\nEnergy: "
            << TablePrinter::num(result.total_energy().millijoules(), 1)
            << " mJ vs "
            << TablePrinter::num(base.total_energy().millijoules(), 1)
            << " mJ on the homogeneous 8KB_4W_64B triple-core ("
            << TablePrinter::pct(result.total_energy() /
                                     base.total_energy() -
                                 1.0)
            << ")\nProfiling runs: " << result.profiling_runs
            << ", tuning runs: " << result.tuning_runs
            << ", reconfigurations: " << result.reconfigurations << "\n";
  return 0;
}
