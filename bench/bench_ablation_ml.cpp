// Ablation / future work (§VIII): "evaluating different machine learning
// techniques".
//
// Runs the full predictor pipeline with four interchangeable models —
// the paper's bagged MLP ensemble, k-nearest-neighbours, a CART
// regression tree, and ridge regression — then measures each model's
// best-size quality AND the end-to-end proposed-system energy when the
// scheduler runs on its predictions.
#include <iostream>
#include <memory>

#include "ann/decision_tree.hpp"
#include "ann/knn.hpp"
#include "ann/mlp_regressor.hpp"
#include "ann/ridge.hpp"
#include "core/model_predictor.hpp"
#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  ExperimentOptions options;
  Experiment experiment(options);
  const PredictorConfig config = options.scenario.predictor_config();
  const CharacterizedSuite& suite = experiment.suite();
  const Dataset dataset = build_ann_dataset(suite, suite.training_ids());
  const SystemRun base = experiment.run("base");

  std::cout << "=== Future work: alternative ML techniques ===\n\n";

  TablePrinter table({"model", "test accuracy", "scheduling hits",
                      "mean degradation", "proposed total vs base"});

  auto evaluate = [&](std::unique_ptr<Regressor> model) {
    Rng rng(options.scenario.seed);
    ModelSizePredictor predictor(dataset, std::move(model), config, rng);

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

    ProposedPolicy policy(predictor);
    const SystemRun run =
        experiment.run(policy, std::string(predictor.model().name()));
    const NormalizedEnergy n = normalize(run.result, base.result);

    table.add_row(
        {std::string(predictor.model().name()),
         TablePrinter::num(predictor.report().test_accuracy * 100.0, 1) +
             "%",
         std::to_string(hits) + "/" +
             std::to_string(experiment.scheduling_ids().size()),
         TablePrinter::pct(degradation.mean()),
         TablePrinter::num(n.total, 3)});
  };

  {
    BaggingConfig bagging;
    bagging.ensemble_size = config.ensemble_size;
    bagging.net.layer_sizes = {10, 18, 5, 1};
    bagging.trainer = config.trainer;
    evaluate(std::make_unique<BaggedMlpRegressor>(bagging));
  }
  evaluate(std::make_unique<KnnRegressor>());
  evaluate(std::make_unique<DecisionTreeRegressor>());
  evaluate(std::make_unique<RidgeRegressor>());

  table.print(std::cout);
  std::cout << "\nEach model is trained through the identical pipeline "
               "(stratified split, top-10 feature selection, "
               "standardisation) and then drives the proposed scheduler "
               "over the same 5000-job stream.\n";
  return 0;
}
