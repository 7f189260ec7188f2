#include "ann/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

constexpr std::size_t kBatchSize = 8;
constexpr double kLearningRate = 0.05;
constexpr double kMomentum = 0.9;
// Multiplied into the learning rate after every epoch.
constexpr double kLearningRateDecay = 0.998;

}  // namespace

void train_mlp(Mlp& net, const Dataset& train, const TrainerConfig& config,
               Rng& rng) {
  HETSCHED_REQUIRE(config.max_epochs > 0);
  HETSCHED_REQUIRE(train.consistent());
  HETSCHED_REQUIRE(train.size() > 0);
  HETSCHED_REQUIRE(train.feature_count() == net.input_size());

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double lr = kLearningRate;
  for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kBatchSize) {
      const std::size_t end = std::min(order.size(), start + kBatchSize);
      const std::vector<std::size_t> batch_idx(order.begin() + start,
                                               order.begin() + end);
      const Dataset batch = train.subset(batch_idx);
      net.train_batch(batch.features, batch.targets, lr, kMomentum);
    }
    lr *= kLearningRateDecay;
  }
}

}  // namespace hetsched
