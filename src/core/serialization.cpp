#include "core/serialization.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ann/mlp_regressor.hpp"
#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {
namespace {

constexpr std::string_view kMagic = "hetsched-predictor";
constexpr int kVersion = 1;
const std::string kContext = "PredictorSnapshot::load";

using snapshot_text::write_double;

Activation read_activation(snapshot_text::Reader& r, const char* what) {
  const int code = r.read<int>(what);
  if (code < static_cast<int>(Activation::kIdentity) ||
      code > static_cast<int>(Activation::kRelu)) {
    r.fail("unknown activation code");
  }
  return static_cast<Activation>(code);
}

Matrix read_matrix(snapshot_text::Reader& r, std::size_t rows,
                   std::size_t cols) {
  r.require_fit(rows * cols, 2, "matrix element count");
  Matrix m(rows, cols);
  for (double& v : m.flat()) {
    v = r.read<double>("matrix element");
    if (!std::isfinite(v)) r.fail("non-finite network parameter");
  }
  return m;
}

}  // namespace

PredictorSnapshot PredictorSnapshot::from(
    const BestSizePredictor& predictor) {
  const auto* bagged =
      dynamic_cast<const BaggedMlpRegressor*>(&predictor.model());
  HETSCHED_REQUIRE(bagged != nullptr);
  PredictorSnapshot snapshot;
  snapshot.selected_ = predictor.selected_features();
  snapshot.scaler_ = predictor.scaler();
  const BaggedEnsemble& ensemble = bagged->ensemble();
  snapshot.members_.reserve(ensemble.size());
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    snapshot.members_.push_back(ensemble.member(i));
  }
  return snapshot;
}

void PredictorSnapshot::save(std::ostream& raw_out) const {
  // The body is built in memory so a checksum over its exact bytes can
  // be appended; load() verifies it when present.
  std::ostringstream out;
  out << kMagic << " v" << kVersion << "\n";

  out << "features " << selected_.indices.size();
  for (std::size_t idx : selected_.indices) out << ' ' << idx;
  out << "\n";

  out << "scaler " << scaler_.means().size();
  for (double m : scaler_.means()) {
    out << ' ';
    write_double(out, m);
  }
  for (double s : scaler_.stddevs()) {
    out << ' ';
    write_double(out, s);
  }
  out << "\n";

  out << "members " << members_.size() << "\n";
  for (const Mlp& net : members_) {
    const auto& sizes = net.config().layer_sizes;
    out << "mlp " << sizes.size();
    for (std::size_t s : sizes) out << ' ' << s;
    out << ' ' << static_cast<int>(net.config().hidden_activation) << ' '
        << static_cast<int>(net.config().output_activation) << "\n";
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
      for (double v : net.weights()[l].flat()) {
        write_double(out, v);
        out << ' ';
      }
      for (double v : net.biases()[l].flat()) {
        write_double(out, v);
        out << ' ';
      }
      out << "\n";
    }
  }

  snapshot_text::write_with_checksum(raw_out, out.str());
}

PredictorSnapshot PredictorSnapshot::load(std::istream& raw_in) {
  // The optional trailing checksum line covers the exact bytes of
  // everything before it, so it is split off (and verified) before
  // token-level parsing. Files from before the checksum was introduced
  // simply lack the line and are still accepted.
  std::istringstream in(snapshot_text::read_verified(raw_in, kContext));
  snapshot_text::Reader r(in, kContext);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic ||
      version != "v" + std::to_string(kVersion)) {
    r.fail("bad header");
  }

  PredictorSnapshot snapshot;

  r.expect("features");
  const std::size_t n_features = r.count("feature count");
  if (n_features == 0 || n_features > kNumExecutionStatistics) {
    r.fail("implausible feature count");
  }
  snapshot.selected_.indices.resize(n_features);
  for (auto& idx : snapshot.selected_.indices) {
    idx = r.read<std::size_t>("feature index");
    if (idx >= kNumExecutionStatistics) r.fail("feature index out of range");
  }
  snapshot.selected_.relevance.assign(kNumExecutionStatistics, 0.0);

  r.expect("scaler");
  const std::size_t d = r.count("scaler width", 4);
  if (d != n_features) r.fail("scaler width mismatch");
  std::vector<double> means(d), stds(d);
  for (auto& v : means) {
    v = r.read<double>("scaler mean");
    if (!std::isfinite(v)) r.fail("non-finite scaler mean");
  }
  for (auto& v : stds) {
    v = r.read<double>("scaler stddev");
    if (!std::isfinite(v) || v <= 0.0) {
      r.fail("scaler stddev not finite and positive");
    }
  }
  snapshot.scaler_ =
      StandardScaler::from_moments(std::move(means), std::move(stds));

  r.expect("members");
  const std::size_t n_members = r.count("member count");
  if (n_members == 0 || n_members > 10000) r.fail("implausible member count");
  snapshot.members_.reserve(n_members);
  for (std::size_t m = 0; m < n_members; ++m) {
    r.expect("mlp");
    const std::size_t n_layers = r.count("layer count");
    if (n_layers < 2 || n_layers > 64) r.fail("implausible layer count");
    MlpConfig config;
    config.layer_sizes.resize(n_layers);
    for (auto& s : config.layer_sizes) {
      s = r.read<std::size_t>("layer size");
      if (s == 0 || s > 100000) r.fail("implausible layer size");
    }
    if (config.layer_sizes.front() != n_features) {
      r.fail("net input width does not match feature count");
    }
    config.hidden_activation = read_activation(r, "hidden activation");
    config.output_activation = read_activation(r, "output activation");

    std::vector<Matrix> weights, biases;
    for (std::size_t l = 0; l + 1 < n_layers; ++l) {
      weights.push_back(read_matrix(r, config.layer_sizes[l],
                                    config.layer_sizes[l + 1]));
      biases.push_back(read_matrix(r, 1, config.layer_sizes[l + 1]));
    }
    snapshot.members_.push_back(Mlp::from_parameters(
        std::move(config), std::move(weights), std::move(biases)));
  }
  if (!r.at_end()) r.fail("trailing garbage after last member");
  return snapshot;
}

double PredictorSnapshot::predict_raw(
    const ExecutionStatistics& stats) const {
  HETSCHED_REQUIRE(!members_.empty());
  const std::vector<double> input = model_input(stats, selected_, scaler_);
  double sum = 0.0;
  for (const Mlp& net : members_) {
    sum += net.predict_one(input).front();
  }
  return sum / static_cast<double>(members_.size());
}

std::uint32_t PredictorSnapshot::predict(
    std::size_t benchmark_id, const ExecutionStatistics& stats) const {
  (void)benchmark_id;
  return target_to_size(predict_raw(stats));
}

}  // namespace hetsched
