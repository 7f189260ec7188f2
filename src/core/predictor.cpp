#include "core/predictor.hpp"

#include "ann/metrics.hpp"
#include "ann/mlp_regressor.hpp"
#include "util/contracts.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {
namespace {

// The paper's 70/15/15 train/validation/test split (Section IV.D).
constexpr double kTrainFraction = 0.70;
constexpr double kValidationFraction = 0.15;

Matrix predict_rows(const Regressor& model, const Matrix& features) {
  Matrix out(features.rows(), 1);
  for (std::size_t r = 0; r < features.rows(); ++r) {
    out.at(r, 0) = model.predict(features.row(r));
  }
  return out;
}

}  // namespace

std::unique_ptr<Regressor> paper_model(const PredictorConfig& config) {
  BaggingConfig bagging;
  bagging.ensemble_size = config.ensemble_size;
  // Two hidden layers of 18 and 5 PEs; the input width is the selected
  // feature count, set at fit().
  bagging.net.layer_sizes = {10, 18, 5, 1};
  bagging.trainer = config.trainer;
  return std::make_unique<BaggedMlpRegressor>(std::move(bagging));
}

std::vector<double> model_input(const ExecutionStatistics& stats,
                                const SelectedFeatures& selected,
                                const StandardScaler& scaler) {
  auto raw = stats.to_vector();
  for (std::size_t c = 0; c < raw.size(); ++c) {
    raw[c] = transform_statistic(c, raw[c]);
  }
  return scaler.transform_row(selected.project_row(raw));
}

BestSizePredictor::BestSizePredictor(const Dataset& data,
                                     std::unique_ptr<Regressor> model,
                                     Rng& rng)
    : model_(std::move(model)) {
  HETSCHED_REQUIRE(model_ != nullptr);
  HETSCHED_REQUIRE(data.consistent());
  HETSCHED_REQUIRE(data.size() >= 4);
  HETSCHED_REQUIRE(data.feature_count() == kNumExecutionStatistics);

  report_.dataset_rows = data.size();

  // Split on the raw dataset, stratified by application so every kernel
  // contributes training rows. The validation rows stay held out, as in
  // the paper's split; no model reads them.
  const DataSplit split =
      split_dataset(data, kTrainFraction, kValidationFraction, rng);

  // Feature selection (the paper's top 10) fitted on training rows only.
  selected_ = select_features(split.train);
  report_.selected_features = selected_.indices.size();

  Dataset train = selected_.project(split.train);
  Dataset test = selected_.project(split.test);

  scaler_.fit(train.features);
  train.features = scaler_.transform(train.features);
  if (test.size() > 0) {
    test.features = scaler_.transform(test.features);
  }

  model_->fit(train, rng);

  report_.train_rows = train.size();
  report_.validation_rows = split.validation.size();
  report_.test_rows = test.size();
  report_.train_accuracy =
      snapped_accuracy(predict_rows(*model_, train.features), train.targets,
                       size_target_classes());
  if (test.size() > 0) {
    const Matrix predictions = predict_rows(*model_, test.features);
    report_.test_mse = mean_squared_error(predictions, test.targets);
    report_.test_accuracy = snapped_accuracy(predictions, test.targets,
                                             size_target_classes());
  }
}

double BestSizePredictor::predict_raw(
    const ExecutionStatistics& stats) const {
  return model_->predict(model_input(stats, selected_, scaler_));
}

std::uint32_t BestSizePredictor::predict_size_bytes(
    const ExecutionStatistics& stats) const {
  return target_to_size(predict_raw(stats));
}

std::unique_ptr<BestSizePredictor> train_predictor(
    const CharacterizedSuite& suite, const PredictorConfig& config,
    std::uint64_t seed) {
  // build_ann_dataset falls back to every benchmark when the suite has
  // no training split.
  const Dataset dataset = build_ann_dataset(suite, suite.training_ids());
  Rng rng(seed);
  return std::make_unique<BestSizePredictor>(dataset, config, rng);
}

}  // namespace hetsched
