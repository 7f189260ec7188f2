#include "ann/bagging.hpp"

#include <optional>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {

BaggedEnsemble::BaggedEnsemble(const BaggingConfig& config,
                               const Dataset& train, Rng& rng) {
  HETSCHED_REQUIRE(config.ensemble_size > 0);
  HETSCHED_REQUIRE(train.size() > 0);

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
        train_mlp(net, resample, config.trainer, member_rng);
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

}  // namespace hetsched
