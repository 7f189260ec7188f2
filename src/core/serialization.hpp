// Predictor persistence.
//
// A deployed scheduler trains its ANN offline (Section IV.D) and ships
// the weights; this module snapshots a trained best-size predictor —
// selected features, scaler moments, and every bagged net's parameters —
// to a versioned text format and reloads it as a ready-to-use
// SizePredictor. Doubles are written in hexfloat so round trips are
// bit-exact.
#pragma once

#include <iosfwd>
#include <vector>

#include "ann/mlp.hpp"
#include "core/predictor.hpp"

namespace hetsched {

// A self-contained, loadable predictor: the inference side of
// BestSizePredictor without the training machinery.
class PredictorSnapshot final : public SizePredictor {
 public:
  // Snapshot a predictor trained on the paper's bagged MLP
  // (paper_model); any other model is a contract failure.
  static PredictorSnapshot from(const BestSizePredictor& predictor);

  // Serialisation. save() writes the versioned text format; load()
  // throws std::runtime_error on malformed input.
  void save(std::ostream& out) const;
  static PredictorSnapshot load(std::istream& in);

  std::uint32_t predict(std::size_t benchmark_id,
                        const ExecutionStatistics& stats) const override;
  double predict_raw(const ExecutionStatistics& stats) const;

  std::size_t member_count() const { return members_.size(); }
  const SelectedFeatures& selected_features() const { return selected_; }

 private:
  PredictorSnapshot() = default;

  SelectedFeatures selected_;
  StandardScaler scaler_;
  std::vector<Mlp> members_;
};

}  // namespace hetsched
