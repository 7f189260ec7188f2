#include "ann/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <span>

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
  TrainScratch scratch(net.config(), std::min(kBatchSize, order.size()));
  const std::span<const std::size_t> shuffled(order);

  double lr = kLearningRate;
  for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kBatchSize) {
      const std::size_t count = std::min(kBatchSize, order.size() - start);
      net.train_batch(train, shuffled.subspan(start, count), lr, kMomentum,
                      scratch);
    }
    lr *= kLearningRateDecay;
  }
}

}  // namespace hetsched
