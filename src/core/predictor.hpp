// Best-core (best cache size) predictor: the full pipeline of
// Section IV.C/IV.D around a pluggable regression model.
//
// 18 execution statistics → feature selection (top 10 by relevance) →
// standardisation → regression model trained on a 70/15/15 split →
// single regression output snapped to {2,4,8} KB. The paper's model is a
// bagged ensemble of 30 {10,18,5,1} MLPs (paper_model); the §VIII
// comparison of machine-learning techniques runs the other Regressors
// through the same pipeline.
#pragma once

#include <memory>

#include "ann/feature_selection.hpp"
#include "ann/regressor.hpp"
#include "ann/trainer.hpp"
#include "trace/counters.hpp"

namespace hetsched {

class CharacterizedSuite;

// The settings callers vary. The split fractions, feature selection and
// hidden layers are the paper's constants (predictor.cpp).
struct PredictorConfig {
  std::size_t ensemble_size = 30;
  TrainerConfig trainer{};
};

struct PredictorReport {
  std::size_t dataset_rows = 0;
  std::size_t selected_features = 0;
  std::size_t train_rows = 0;
  std::size_t validation_rows = 0;
  std::size_t test_rows = 0;
  double test_mse = 0.0;
  double test_accuracy = 0.0;   // snapped to {2,4,8} KB classes
  double train_accuracy = 0.0;
};

// Interface the scheduler policies consume. The production implementation
// is the ANN (BestSizePredictor); tests and ablation benches substitute an
// oracle or a fixed answer.
class SizePredictor {
 public:
  virtual ~SizePredictor() = default;

  // Best cache size (bytes) for the application with the given profiled
  // statistics. `benchmark_id` identifies the profiling-table entry; the
  // ANN ignores it, oracles use it.
  virtual std::uint32_t predict(std::size_t benchmark_id,
                                const ExecutionStatistics& stats) const = 0;
};

// The paper's model: a bagged ensemble of `config.ensemble_size`
// {n, 18, 5, 1} MLPs over the n selected statistics.
std::unique_ptr<Regressor> paper_model(const PredictorConfig& config);

// The model input for an application's profiled statistics: the
// dataset's per-statistic transform, then the selected columns, then
// standardisation, as every training row went through.
std::vector<double> model_input(const ExecutionStatistics& stats,
                                const SelectedFeatures& selected,
                                const StandardScaler& scaler);

class BestSizePredictor final : public SizePredictor {
 public:
  // `data`: rows of 18 statistics with log2(best KB) targets, grouped
  // by kernel (see workload/dataset_builder). Fits `model` on them;
  // training is deterministic given `rng`.
  BestSizePredictor(const Dataset& data, std::unique_ptr<Regressor> model,
                    Rng& rng);
  // The paper's predictor: paper_model(config).
  BestSizePredictor(const Dataset& data, const PredictorConfig& config,
                    Rng& rng)
      : BestSizePredictor(data, paper_model(config), rng) {}

  // Predicts the best cache size in bytes for an application's profiled
  // statistics.
  std::uint32_t predict_size_bytes(const ExecutionStatistics& stats) const;

  std::uint32_t predict(std::size_t benchmark_id,
                        const ExecutionStatistics& stats) const override {
    (void)benchmark_id;
    return predict_size_bytes(stats);
  }

  // Raw (un-snapped) model output, for diagnostics.
  double predict_raw(const ExecutionStatistics& stats) const;

  const PredictorReport& report() const { return report_; }
  const SelectedFeatures& selected_features() const { return selected_; }
  const StandardScaler& scaler() const { return scaler_; }
  const Regressor& model() const { return *model_; }

 private:
  std::unique_ptr<Regressor> model_;
  SelectedFeatures selected_;
  StandardScaler scaler_;
  PredictorReport report_;
};

// The training step shared by Experiment, ScenarioContext and the CLI's
// `train`: fits the predictor on the suite's variant>0 instances (held-
// out inputs of the scheduled kernels), or on every benchmark when the
// suite has one variant per kernel, with an Rng seeded by `seed`.
std::unique_ptr<BestSizePredictor> train_predictor(
    const CharacterizedSuite& suite, const PredictorConfig& config,
    std::uint64_t seed);

}  // namespace hetsched
