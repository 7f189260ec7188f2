#include "ann/bagging.hpp"

#include <optional>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {

BaggedEnsemble::BaggedEnsemble(const BaggingConfig& config,
                               const Dataset& train,
                               const Dataset& validation, Rng& rng) {
  HETSCHED_REQUIRE(config.ensemble_size > 0);
  HETSCHED_REQUIRE(train.size() > 0);

  const Trainer trainer(config.trainer);

  // Member streams are split off serially (split() advances `rng`, so the
  // order must not depend on scheduling); training is then fanned out over
  // the shared pool. Each member's resample, initialisation and fit draw
  // only from its own stream, so the ensemble is bit-identical to the
  // serial build for every thread count.
  std::vector<Rng> member_rngs;
  member_rngs.reserve(config.ensemble_size);
  for (std::size_t m = 0; m < config.ensemble_size; ++m) {
    member_rngs.push_back(rng.split());
  }

  std::vector<std::optional<Mlp>> slots(config.ensemble_size);
  ThreadPool::global().parallel_for(
      config.ensemble_size, [&](std::size_t m) {
        Rng member_rng = member_rngs[m];
        const auto indices =
            member_rng.sample_with_replacement(train.size(), train.size());
        const Dataset resample = train.subset(indices);
        Mlp net(config.net, member_rng);
        trainer.fit(net, resample, validation, member_rng);
        slots[m].emplace(std::move(net));
      });

  members_.reserve(config.ensemble_size);
  for (std::optional<Mlp>& slot : slots) {
    members_.push_back(std::move(*slot));
  }
}

const Mlp& BaggedEnsemble::member(std::size_t i) const {
  HETSCHED_REQUIRE(i < members_.size());
  return members_[i];
}

Matrix BaggedEnsemble::predict(const Matrix& inputs) const {
  Matrix sum = members_.front().predict(inputs);
  for (std::size_t m = 1; m < members_.size(); ++m) {
    sum.add_inplace(members_[m].predict(inputs));
  }
  sum.scale_inplace(1.0 / static_cast<double>(members_.size()));
  return sum;
}

std::vector<double> BaggedEnsemble::predict_one(
    std::span<const double> input) const {
  std::vector<double> acc(members_.front().output_size(), 0.0);
  for (const Mlp& net : members_) {
    const std::vector<double> out = net.predict_one(input);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += out[i];
  }
  for (double& v : acc) v /= static_cast<double>(members_.size());
  return acc;
}

std::vector<double> BaggedEnsemble::member_outputs(
    std::span<const double> input) const {
  std::vector<double> outs;
  outs.reserve(members_.size());
  for (const Mlp& net : members_) {
    outs.push_back(net.predict_one(input).front());
  }
  return outs;
}

double BaggedEnsemble::evaluate_mse(const Matrix& inputs,
                                    const Matrix& targets) const {
  HETSCHED_REQUIRE(inputs.rows() == targets.rows());
  if (inputs.rows() == 0) return 0.0;
  const Matrix out = predict(inputs);
  double acc = 0.0;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      const double d = out.at(r, c) - targets.at(r, c);
      acc += d * d;
    }
  }
  return acc / static_cast<double>(out.rows() * out.cols());
}

}  // namespace hetsched
