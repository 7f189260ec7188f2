// Ablation: bagging ensemble size (Section IV.D uses 30 ANNs).
//
// Sweeps the number of bagged nets and reports held-out test accuracy,
// exact best-size hits on the scheduling set, and the energy degradation
// of mispredictions — showing what the ensemble buys over a single ANN.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  // Build the suite once; retrain predictors of different sizes on it.
  ExperimentOptions base_options;
  Experiment experiment(base_options);
  const CharacterizedSuite& suite = experiment.suite();
  const Dataset dataset = build_ann_dataset(suite, suite.training_ids());

  std::cout << "=== Ablation: bagging ensemble size ===\n\n";

  TablePrinter table({"ensemble", "test accuracy", "test MSE",
                      "scheduling hits", "mean degradation",
                      "worst degradation"});
  for (std::size_t ensemble : {1u, 3u, 10u, 30u, 60u}) {
    PredictorConfig config = base_options.scenario.predictor_config();
    config.ensemble_size = ensemble;
    Rng rng(base_options.scenario.seed);
    BestSizePredictor predictor(dataset, config, rng);

    RunningStats degradation;
    std::size_t hits = 0;
    for (std::size_t id : experiment.scheduling_ids()) {
      const BenchmarkProfile& b = suite.benchmark(id);
      const std::uint32_t predicted =
          predictor.predict_size_bytes(b.base_statistics);
      const std::uint32_t oracle = b.oracle_best_size();
      if (predicted == oracle) ++hits;
      degradation.add(b.best_for_size(predicted).energy.total() /
                          b.best_for_size(oracle).energy.total() -
                      1.0);
    }
    table.add_row(
        {std::to_string(ensemble),
         TablePrinter::num(predictor.report().test_accuracy * 100.0, 1) + "%",
         TablePrinter::num(predictor.report().test_mse),
         std::to_string(hits) + "/" +
             std::to_string(experiment.scheduling_ids().size()),
         TablePrinter::pct(degradation.mean()),
         TablePrinter::pct(degradation.max())});
  }
  table.print(std::cout);
  std::cout << "\nPaper setting: 30 bagged ANNs with random weight "
               "initialisation, averaged outputs.\n";
  return 0;
}
