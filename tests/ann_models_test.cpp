// Tests for the alternative regression models (knn, decision tree, ridge)
// and the best-size predictor pipeline running each of them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "ann/decision_tree.hpp"
#include "ann/knn.hpp"
#include "ann/mlp_regressor.hpp"
#include "ann/ridge.hpp"
#include "core/predictor.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {
namespace {

Dataset linear_dataset(std::size_t n, Rng& rng) {
  // y = 3 x0 - 2 x1 + 0.5
  Dataset data;
  std::vector<std::vector<double>> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2, 2);
    const double b = rng.uniform(-2, 2);
    xs.push_back({a, b});
    ys.push_back({3 * a - 2 * b + 0.5});
  }
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  return data;
}

// ---------------- k-NN ----------------

TEST(KnnTest, ExactTrainingPointIsReproduced) {
  Rng rng(1);
  Dataset train;
  train.features = Matrix::from_rows({{0, 0}, {1, 0}, {0, 1}});
  train.targets = Matrix::from_rows({{10}, {20}, {30}});
  KnnRegressor knn(KnnConfig{.k = 2});
  knn.fit(train, rng);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{1, 0}), 20.0);
}

TEST(KnnTest, InterpolatesBetweenNeighbours) {
  Rng rng(2);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {1.0}});
  train.targets = Matrix::from_rows({{0.0}, {10.0}});
  KnnRegressor knn(KnnConfig{.k = 2, .distance_power = 1.0});
  knn.fit(train, rng);
  // Midpoint: equal weights.
  EXPECT_NEAR(knn.predict(std::vector<double>{0.5}), 5.0, 1e-9);
  // Closer to x=1: pulled toward 10.
  EXPECT_GT(knn.predict(std::vector<double>{0.9}), 8.0);
}

TEST(KnnTest, KOneIsNearestNeighbour) {
  Rng rng(3);
  Dataset train = linear_dataset(50, rng);
  KnnRegressor knn(KnnConfig{.k = 1});
  knn.fit(train, rng);
  // k=1 prediction equals the target of the nearest training row — check
  // on the training rows themselves.
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(knn.predict(train.features.row(r)),
                     train.targets.at(r, 0));
  }
}

TEST(KnnTest, KLargerThanDatasetIsClamped) {
  Rng rng(4);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {2.0}});
  train.targets = Matrix::from_rows({{4.0}, {8.0}});
  KnnRegressor knn(KnnConfig{.k = 99, .distance_power = 0.0});
  knn.fit(train, rng);
  EXPECT_NEAR(knn.predict(std::vector<double>{1.0}), 6.0, 1e-9);
}

// ---------------- Decision tree ----------------

TEST(DecisionTreeTest, FitsAStepFunctionExactly) {
  Rng rng(5);
  Dataset train;
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 40; ++i) {
    const double x = i / 40.0;
    xs.push_back({x});
    ys.push_back({x < 0.5 ? 1.0 : 3.0});
  }
  train.features = Matrix::from_rows(xs);
  train.targets = Matrix::from_rows(ys);
  DecisionTreeRegressor tree(DecisionTreeConfig{.max_depth = 3});
  tree.fit(train, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.2}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.8}), 3.0);
  EXPECT_EQ(tree.root_feature(), 0u);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTreeTest, PicksTheInformativeFeature) {
  Rng rng(6);
  Dataset train;
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 60; ++i) {
    const double noise = rng.uniform(-1, 1);
    const double signal = rng.uniform(-1, 1);
    xs.push_back({noise, signal});
    ys.push_back({signal > 0 ? 5.0 : -5.0});
  }
  train.features = Matrix::from_rows(xs);
  train.targets = Matrix::from_rows(ys);
  DecisionTreeRegressor tree;
  tree.fit(train, rng);
  EXPECT_EQ(tree.root_feature(), 1u);
}

TEST(DecisionTreeTest, RespectsMinSamplesLeaf) {
  Rng rng(7);
  Dataset train = linear_dataset(20, rng);
  DecisionTreeRegressor tree(
      DecisionTreeConfig{.max_depth = 20, .min_samples_leaf = 10});
  tree.fit(train, rng);
  // 20 samples, leaves of >= 10: at most one split.
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTreeTest, ConstantTargetYieldsSingleLeaf) {
  Rng rng(8);
  Dataset train;
  train.features = Matrix::from_rows({{1}, {2}, {3}, {4}});
  train.targets = Matrix::from_rows({{7}, {7}, {7}, {7}});
  DecisionTreeRegressor tree;
  tree.fit(train, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{99}), 7.0);
}

// ---------------- Ridge ----------------

TEST(RidgeTest, SolveSpdAgainstKnownSystem) {
  // A = [[4,2],[2,3]], b = [2, 5] -> x = [-0.5, 2]
  const std::vector<double> a{4, 2, 2, 3};
  const std::vector<double> b{2, 5};
  const auto x = solve_spd(a, b, 2);
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(RidgeTest, RecoversLinearCoefficients) {
  Rng rng(9);
  Dataset train = linear_dataset(200, rng);
  RidgeRegressor ridge(RidgeConfig{.lambda = 1e-8});
  ridge.fit(train, rng);
  ASSERT_EQ(ridge.coefficients().size(), 3u);
  EXPECT_NEAR(ridge.coefficients()[0], 3.0, 1e-6);
  EXPECT_NEAR(ridge.coefficients()[1], -2.0, 1e-6);
  EXPECT_NEAR(ridge.coefficients()[2], 0.5, 1e-6);
  EXPECT_NEAR(ridge.predict(std::vector<double>{1.0, 1.0}), 1.5, 1e-6);
}

TEST(RidgeTest, RegularisationShrinksWeights) {
  Rng rng(10);
  Dataset train = linear_dataset(50, rng);
  RidgeRegressor weak(RidgeConfig{.lambda = 1e-8});
  RidgeRegressor strong(RidgeConfig{.lambda = 1000.0});
  weak.fit(train, rng);
  strong.fit(train, rng);
  EXPECT_LT(std::abs(strong.coefficients()[0]),
            std::abs(weak.coefficients()[0]));
}

// ---------------- MLP adapter ----------------

TEST(MlpRegressorTest, AdapterMatchesEnsembleSemantics) {
  Rng rng(11);
  Dataset train = linear_dataset(60, rng);
  BaggingConfig config;
  config.ensemble_size = 3;
  config.net.layer_sizes = {99, 6, 1};  // input width fixed at fit()
  config.trainer.max_epochs = 100;
  BaggedMlpRegressor model(config);
  EXPECT_FALSE(model.fitted());
  model.fit(train, rng);
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.ensemble().size(), 3u);
  EXPECT_EQ(model.ensemble().member(0).input_size(), 2u);
  // Sanity: roughly learns the function.
  const double pred = model.predict(std::vector<double>{1.0, 0.0});
  EXPECT_NEAR(pred, 3.5, 1.5);
}

// ---------------- Generic predictor pipeline ----------------

TEST(ModelPredictorTest, AllModelsRunTheFullPipeline) {
  SuiteOptions suite_options;
  suite_options.kernel_scale = 0.25;
  suite_options.variants_per_kernel = 3;
  const CharacterizedSuite suite =
      CharacterizedSuite::build(EnergyModel{CactiModel{}}, suite_options);
  const Dataset data = build_ann_dataset(suite, {});

  PredictorConfig config;
  config.ensemble_size = 3;
  config.trainer.max_epochs = 100;

  // Every model's raw output for every benchmark, in hexfloat: pins
  // each model's training bit for bit.
  std::ostringstream raw;
  raw << std::hexfloat;
  auto check = [&](std::unique_ptr<Regressor> model) {
    Rng rng(12);
    const std::string name(model->name());
    BestSizePredictor predictor(data, std::move(model), rng);
    EXPECT_EQ(predictor.report().selected_features, 10u) << name;
    EXPECT_GT(predictor.report().train_accuracy, 0.5) << name;
    // Prediction snaps to a legal size.
    const auto size = predictor.predict(
        0, suite.benchmark(0).base_statistics);
    EXPECT_TRUE(size == 2048 || size == 4096 || size == 8192) << name;
    for (std::size_t id = 0; id < suite.size(); ++id) {
      raw << name << ' ' << suite.benchmark(id).instance.name << ' '
          << predictor.predict_raw(suite.benchmark(id).base_statistics)
          << '\n';
    }
  };
  check(paper_model(config));
  check(std::make_unique<KnnRegressor>());
  check(std::make_unique<DecisionTreeRegressor>());
  check(std::make_unique<RidgeRegressor>());

  const std::string golden_path =
      std::string(HETSCHED_SOURCE_DIR) + "/tests/golden/model_predictions.txt";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream golden_out(golden_path);
    golden_out << raw.str();
    ASSERT_TRUE(golden_out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden predictions regenerated at " << golden_path;
  }
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing golden predictions " << golden_path
                         << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_TRUE(raw.str() == golden.str())
      << "model outputs diverged from the checked-in golden; if the "
         "change is intended, regenerate with HETSCHED_REGEN_GOLDEN=1 "
         "and commit the new file";
}

}  // namespace
}  // namespace hetsched
