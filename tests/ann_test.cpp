// Tests for src/ann: matrix algebra, activations, backprop (validated
// against numerical gradients and against the matrix-form step), training,
// bagging, splits, scaling, feature selection and metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "ann/bagging.hpp"
#include "ann/feature_selection.hpp"
#include "ann/metrics.hpp"
#include "ann/trainer.hpp"

namespace hetsched {
namespace {

TEST(MatrixTest, MatmulMatchesHandComputation) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{10, 20}, {30, 40}});
  a.add_inplace(b, 0.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 24);
  a.scale_inplace(2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 12);
}

TEST(MatrixTest, RowVectorBroadcastAndColumnSums) {
  Matrix a = Matrix::from_rows({{1, 1}, {2, 2}});
  const Matrix bias = Matrix::from_rows({{10, 20}});
  a.add_row_vector(bias);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 21);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 12);
}

TEST(MatrixTest, XavierBoundsRespectFanInOut) {
  Rng rng(2);
  const Matrix w = Matrix::xavier(10, 18, rng);
  const double limit = std::sqrt(6.0 / 28.0);
  for (double v : w.flat()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(ActivationTest, ValuesAndDerivatives) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, 3.5), 3.5);
  EXPECT_NEAR(activate(Activation::kTanh, 0.5), std::tanh(0.5), 1e-12);
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 2.0), 2.0);

  // Derivative from output: f'(x) expressed via y = f(x).
  const double y = std::tanh(0.7);
  EXPECT_NEAR(activate_grad_from_output(Activation::kTanh, y), 1 - y * y,
              1e-12);
  EXPECT_NEAR(activate_grad_from_output(Activation::kSigmoid, 0.3),
              0.3 * 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::kIdentity, 9.0),
                   1.0);
}

TEST(MlpTest, TopologyAndParameterCount) {
  Rng rng(3);
  Mlp net(MlpConfig{{10, 18, 5, 1}}, rng);
  EXPECT_EQ(net.input_size(), 10u);
  EXPECT_EQ(net.output_size(), 1u);
  // (10*18+18) + (18*5+5) + (5*1+1) = 198 + 95 + 6
  EXPECT_EQ(net.parameter_count(), 299u);
}

TEST(MlpTest, PredictIsDeterministic) {
  Rng rng(4);
  Mlp net(MlpConfig{{3, 4, 1}}, rng);
  const std::vector<double> x{0.1, -0.2, 0.3};
  EXPECT_DOUBLE_EQ(net.predict_one(x)[0], net.predict_one(x)[0]);
}

// Backprop gradient validated against central finite differences on every
// parameter of a small net — the canonical correctness test for ANN code.
TEST(MlpTest, BackpropMatchesNumericalGradient) {
  Rng rng(5);
  const MlpConfig config{{2, 3, 1}};
  const Matrix inputs = Matrix::from_rows({{0.5, -1.0}, {1.5, 2.0}});
  const Matrix targets = Matrix::from_rows({{1.0}, {-1.0}});

  // Compute the analytic update by training one step with momentum 0 and
  // a tiny learning rate; recover the gradient from the weight delta.
  const double lr = 1e-6;
  Mlp net(config, rng);
  Mlp stepped = net;
  const Dataset batch{inputs, targets, {}};
  const std::vector<std::size_t> rows{0, 1};
  TrainScratch scratch(config, rows.size());
  stepped.train_batch(batch, rows, lr, 0.0, scratch);

  auto loss_of = [&](const Mlp& m) {
    return mean_squared_error(m.predict(inputs), targets);
  };

  // Numerical directional check layer by layer, element by element.
  for (std::size_t layer = 0; layer < net.weights().size(); ++layer) {
    for (std::size_t r = 0; r < net.weights()[layer].rows(); ++r) {
      for (std::size_t c = 0; c < net.weights()[layer].cols(); ++c) {
        const double analytic_grad =
            (net.weights()[layer].at(r, c) -
             stepped.weights()[layer].at(r, c)) /
            lr;
        // Central difference.
        const double eps = 1e-5;
        Mlp plus = net;
        Mlp minus = net;
        const_cast<Matrix&>(plus.weights()[layer]).at(r, c) += eps;
        const_cast<Matrix&>(minus.weights()[layer]).at(r, c) -= eps;
        const double numeric_grad =
            (loss_of(plus) - loss_of(minus)) / (2 * eps);
        EXPECT_NEAR(analytic_grad, numeric_grad,
                    1e-4 * std::max(1.0, std::abs(numeric_grad)))
            << "layer " << layer << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(MlpTest, TrainingFitsLinearFunction) {
  Rng rng(6);
  Mlp net(MlpConfig{{2, 8, 1}}, rng);
  // y = 2a - b over a small grid.
  std::vector<std::vector<double>> xs, ys;
  for (double a = -1.0; a <= 1.0; a += 0.25) {
    for (double b = -1.0; b <= 1.0; b += 0.25) {
      xs.push_back({a, b});
      ys.push_back({2 * a - b});
    }
  }
  const Dataset data{Matrix::from_rows(xs), Matrix::from_rows(ys), {}};
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  TrainScratch scratch(net.config(), all.size());
  const double before =
      mean_squared_error(net.predict(data.features), data.targets);
  for (int epoch = 0; epoch < 1500; ++epoch) {
    net.train_batch(data, all, 0.02, 0.9, scratch);
  }
  const double after =
      mean_squared_error(net.predict(data.features), data.targets);
  EXPECT_LT(after, before / 20.0);
  EXPECT_LT(after, 0.01);
}

// A reference training step in matrix form: the batch copied out of the
// dataset, a forward pass through Matrix::matmul and add_row_vector, and
// backprop through a^T·delta (transposed().matmul: zero inputs skipped,
// batch rows added in order), delta·W^T with no zero-skip, column sums in
// row order and the elementwise activation gradient, then the momentum
// update. Mlp::train_batch must match it bit for bit.
struct ReferenceNet {
  MlpConfig config;
  std::vector<Matrix> weights;
  std::vector<Matrix> biases;
  std::vector<Matrix> velocity_w;
  std::vector<Matrix> velocity_b;

  explicit ReferenceNet(const Mlp& net)
      : config(net.config()), weights(net.weights()), biases(net.biases()) {
    for (const Matrix& w : weights) velocity_w.emplace_back(w.rows(), w.cols());
    for (const Matrix& b : biases) velocity_b.emplace_back(b.rows(), b.cols());
  }

  static void multiply_by_grad(Activation a, Matrix& delta,
                               const Matrix& activated) {
    for (std::size_t r = 0; r < delta.rows(); ++r) {
      for (std::size_t c = 0; c < delta.cols(); ++c) {
        delta.at(r, c) *= activate_grad_from_output(a, activated.at(r, c));
      }
    }
  }

  void train_batch(const Matrix& inputs, const Matrix& targets,
                   double learning_rate, double momentum) {
    std::vector<Matrix> acts{inputs};
    for (std::size_t l = 0; l < weights.size(); ++l) {
      Matrix z = acts.back().matmul(weights[l]);
      z.add_row_vector(biases[l]);
      const Activation a = l + 1 == weights.size() ? config.output_activation
                                                   : config.hidden_activation;
      for (double& v : z.flat()) v = activate(a, v);
      acts.push_back(std::move(z));
    }
    const Matrix& output = acts.back();
    const double n = static_cast<double>(inputs.rows());
    Matrix delta = output;
    delta.add_inplace(targets, -1.0);
    delta.scale_inplace(2.0 / (n * static_cast<double>(output.cols())));
    multiply_by_grad(config.output_activation, delta, output);

    for (std::size_t l = weights.size(); l-- > 0;) {
      const Matrix grad_w = acts[l].transposed().matmul(delta);
      Matrix grad_b(1, delta.cols());
      for (std::size_t r = 0; r < delta.rows(); ++r) {
        for (std::size_t c = 0; c < delta.cols(); ++c) {
          grad_b.at(0, c) += delta.at(r, c);
        }
      }
      Matrix next_delta;
      if (l > 0) {
        next_delta = Matrix(delta.rows(), weights[l].rows());
        for (std::size_t i = 0; i < delta.rows(); ++i) {
          for (std::size_t j = 0; j < weights[l].rows(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < delta.cols(); ++k) {
              acc += delta.at(i, k) * weights[l].at(j, k);
            }
            next_delta.at(i, j) = acc;
          }
        }
        multiply_by_grad(config.hidden_activation, next_delta, acts[l]);
      }
      velocity_w[l].scale_inplace(momentum).add_inplace(grad_w,
                                                        -learning_rate);
      velocity_b[l].scale_inplace(momentum).add_inplace(grad_b,
                                                        -learning_rate);
      weights[l].add_inplace(velocity_w[l]);
      biases[l].add_inplace(velocity_b[l]);
      delta = std::move(next_delta);
    }
  }
};

// 50 steps of the flat step and of the reference on the same batches
// must leave the very same weights. 13 rows in batches of 8 end in a
// ragged batch of 5; a third of the inputs are exact zeros, and the relu
// net's hidden layers add more, so the zero-skips are exercised.
TEST(MlpTest, TrainStepMatchesTheMatrixReferenceBitForBit) {
  const MlpConfig paper{{10, 18, 5, 1}};
  const MlpConfig relu{{3, 7, 4, 2}, Activation::kRelu, Activation::kSigmoid};
  for (const MlpConfig& config : {paper, relu}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      for (const double momentum : {0.0, 0.9}) {
        Rng rng(21);
        std::vector<std::vector<double>> xs(13);
        std::vector<std::vector<double>> ys(13);
        for (std::size_t r = 0; r < xs.size(); ++r) {
          for (std::size_t c = 0; c < config.layer_sizes.front(); ++c) {
            xs[r].push_back(rng.bernoulli(1.0 / 3.0) ? 0.0
                                                     : rng.uniform(-2, 2));
          }
          for (std::size_t c = 0; c < config.layer_sizes.back(); ++c) {
            ys[r].push_back(rng.uniform(0, 1));
          }
        }
        const Dataset data{Matrix::from_rows(xs), Matrix::from_rows(ys), {}};
        Mlp net(config, rng);
        ReferenceNet reference(net);
        TrainScratch scratch(config, batch);
        std::vector<std::size_t> order(data.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::size_t start = order.size();
        for (int step = 0; step < 50; ++step) {
          if (start == order.size()) {
            rng.shuffle(order);
            start = 0;
          }
          const std::size_t count = std::min(batch, order.size() - start);
          const std::vector<std::size_t> rows(order.begin() + start,
                                              order.begin() + start + count);
          net.train_batch(data, rows, 0.05, momentum, scratch);
          const Dataset copy = data.subset(rows);
          reference.train_batch(copy.features, copy.targets, 0.05, momentum);
          start += count;
        }
        const std::string where = "net of " +
                                  std::to_string(config.layer_sizes[1]) +
                                  ", batch " + std::to_string(batch) +
                                  ", momentum " + std::to_string(momentum);
        EXPECT_TRUE(net.weights() == reference.weights) << where;
        EXPECT_TRUE(net.biases() == reference.biases) << where;
      }
    }
  }
}

TEST(TrainerTest, ReducesLossAndReportsHistory) {
  Rng rng(7);
  Dataset train;
  std::vector<std::vector<double>> xs, ys;
  Rng data_rng(8);
  for (int i = 0; i < 64; ++i) {
    const double a = data_rng.uniform(-1, 1);
    const double b = data_rng.uniform(-1, 1);
    xs.push_back({a, b});
    ys.push_back({a * a + 0.5 * b});
  }
  train.features = Matrix::from_rows(xs);
  train.targets = Matrix::from_rows(ys);

  TrainerConfig config;
  config.max_epochs = 200;
  Mlp net(MlpConfig{{2, 10, 1}}, rng);
  const double before =
      mean_squared_error(net.predict(train.features), train.targets);
  train_mlp(net, train, config, rng);
  const double after =
      mean_squared_error(net.predict(train.features), train.targets);
  EXPECT_LT(after, before / 10);
}

TEST(DatasetTest, SubsetSelectsRowsAndGroups) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  data.targets = Matrix::from_rows({{10}, {20}, {30}});
  data.groups = {7, 8, 9};
  const Dataset sub = data.subset({2, 0, 2});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.features.at(0, 0), 5);
  EXPECT_DOUBLE_EQ(sub.targets.at(1, 0), 10);
  EXPECT_EQ(sub.groups, (std::vector<std::size_t>{9, 7, 9}));
}

TEST(DatasetTest, SplitFractionsPartitionExactly) {
  Dataset data;
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back({static_cast<double>(i)});
    ys.push_back({static_cast<double>(i)});
  }
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  data.groups.assign(100, 0);  // one group: its fractions are the split's
  Rng rng(11);
  const DataSplit split = split_dataset(data, 0.7, 0.15, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.validation.size(), 15u);
  EXPECT_EQ(split.test.size(), 15u);
  // Partition: every original value appears exactly once.
  std::multiset<double> seen;
  for (const Dataset* part :
       {&split.train, &split.validation, &split.test}) {
    for (std::size_t r = 0; r < part->size(); ++r) {
      seen.insert(part->features.at(r, 0));
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0.0);
  EXPECT_EQ(*seen.rbegin(), 99.0);
}

TEST(DatasetTest, StratifiedSplitRepresentsEveryGroupInTrain) {
  Dataset data;
  std::vector<std::vector<double>> xs, ys;
  std::vector<std::size_t> groups;
  for (std::size_t g = 0; g < 10; ++g) {
    for (int v = 0; v < 7; ++v) {
      xs.push_back({static_cast<double>(g * 100 + v)});
      ys.push_back({static_cast<double>(g)});
      groups.push_back(g);
    }
  }
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  data.groups = groups;
  Rng rng(12);
  const DataSplit split = split_dataset(data, 0.7, 0.15, rng);
  EXPECT_EQ(split.train.size() + split.validation.size() +
                split.test.size(),
            70u);
  std::set<std::size_t> train_groups(split.train.groups.begin(),
                                     split.train.groups.end());
  EXPECT_EQ(train_groups.size(), 10u)
      << "every group must contribute training rows";
  // Test partition should also be non-empty with 7 rows per group.
  EXPECT_GT(split.test.size(), 0u);
}

// Every dataset the program builds is grouped by kernel, so an ungrouped
// one is a caller error, not a silently unstratified split.
TEST(DatasetTest, SplitRejectsAnUngroupedDataset) {
  Dataset data;
  data.features = Matrix::from_rows({{1}, {2}, {3}, {4}});
  data.targets = Matrix::from_rows({{1}, {2}, {3}, {4}});
  Rng rng(16);
  EXPECT_DEATH(split_dataset(data, 0.7, 0.15, rng), "precondition");
}

TEST(ScalerTest, StandardisesToZeroMeanUnitVariance) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 100}, {2, 200}, {3, 300}});
  StandardScaler scaler;
  scaler.fit(data.features);
  const Matrix scaled = scaler.transform(data.features);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0;
    for (std::size_t r = 0; r < 3; ++r) mean += scaled.at(r, c);
    EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
  }
  EXPECT_NEAR(scaled.at(0, 0), scaled.at(0, 1), 1e-12)
      << "columns with the same shape scale identically";
}

TEST(ScalerTest, ConstantFeaturePassesThrough) {
  StandardScaler scaler;
  Matrix features = Matrix::from_rows({{5, 1}, {5, 2}, {5, 3}});
  scaler.fit(features);
  const Matrix scaled = scaler.transform(features);
  EXPECT_DOUBLE_EQ(scaled.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled.at(2, 0), 0.0);
}

TEST(ScalerTest, TransformRowMatchesMatrixTransform) {
  StandardScaler scaler;
  Matrix features = Matrix::from_rows({{1, 10}, {3, 30}});
  scaler.fit(features);
  const auto row = scaler.transform_row(std::vector<double>{2, 20});
  EXPECT_NEAR(row[0], 0.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(FeatureSelectionTest, RanksByCorrelationAndFiltersRedundancy) {
  // f0 = target (perfect), f1 = 2*f0 (redundant), f2 = noise, f3 = -target.
  Rng rng(13);
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 50; ++i) {
    const double t = rng.uniform(-1, 1);
    xs.push_back({t, 2 * t, rng.uniform(-1, 1), -t + 0.4 * rng.normal()});
    ys.push_back({t});
  }
  Dataset data;
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);

  FeatureSelectionConfig config;
  config.max_features = 2;
  const SelectedFeatures selected = select_features(data, config);
  ASSERT_EQ(selected.indices.size(), 2u);
  EXPECT_EQ(selected.indices[0], 0u);
  // f1 is perfectly redundant with f0, so the second pick must be f3
  // (high relevance, not redundant).
  EXPECT_EQ(selected.indices[1], 3u);
}

TEST(FeatureSelectionTest, ProjectRoundTrips) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  data.targets = Matrix::from_rows({{1}, {0}});
  SelectedFeatures selected;
  selected.indices = {2, 0};
  const Dataset projected = selected.project(data);
  EXPECT_EQ(projected.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(projected.features.at(1, 0), 6);
  EXPECT_DOUBLE_EQ(projected.features.at(1, 1), 4);
  const auto row = selected.project_row(std::vector<double>{7, 8, 9});
  EXPECT_EQ(row, (std::vector<double>{9, 7}));
}

TEST(BaggingTest, EnsemblePredictionIsMeanOfMembers) {
  Rng rng(14);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {0.5}, {1.0}, {-0.5}});
  train.targets = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {-1.0}});
  BaggingConfig config;
  config.ensemble_size = 5;
  config.net.layer_sizes = {1, 4, 1};
  config.trainer.max_epochs = 50;
  const BaggedEnsemble ensemble(config, train, rng);
  EXPECT_EQ(ensemble.size(), 5u);

  const std::vector<double> x{0.25};
  double mean = 0;
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    mean += ensemble.member(i).predict_one(x)[0];
  }
  mean /= static_cast<double>(ensemble.size());
  EXPECT_NEAR(ensemble.predict_one(x)[0], mean, 1e-12);
}

TEST(BaggingTest, MembersDifferFromEachOther) {
  Rng rng(15);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  train.targets = Matrix::from_rows({{0.0}, {1.0}, {0.0}, {1.0}});
  BaggingConfig config;
  config.ensemble_size = 4;
  config.net.layer_sizes = {1, 3, 1};
  config.trainer.max_epochs = 20;
  const BaggedEnsemble ensemble(config, train, rng);
  const std::vector<double> x{0.5};
  std::set<double> distinct;
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    distinct.insert(ensemble.member(i).predict_one(x)[0]);
  }
  EXPECT_GT(distinct.size(), 1u)
      << "random init + bootstrap must decorrelate members";
}

TEST(MetricsTest, RegressionMetrics) {
  const Matrix pred = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const Matrix target = Matrix::from_rows({{1.5}, {2.0}, {2.5}});
  EXPECT_NEAR(mean_squared_error(pred, target), (0.25 + 0 + 0.25) / 3,
              1e-12);
}

TEST(MetricsTest, SnappingToClasses) {
  const std::vector<double> classes{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(snap_to_class(1.4, classes), 1.0);
  EXPECT_DOUBLE_EQ(snap_to_class(1.6, classes), 2.0);
  EXPECT_DOUBLE_EQ(snap_to_class(99.0, classes), 3.0);
  EXPECT_DOUBLE_EQ(snap_to_class(-5.0, classes), 1.0);

  const Matrix pred = Matrix::from_rows({{1.2}, {2.4}, {2.9}});
  const Matrix target = Matrix::from_rows({{1.0}, {3.0}, {3.0}});
  EXPECT_NEAR(snapped_accuracy(pred, target, classes), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hetsched
