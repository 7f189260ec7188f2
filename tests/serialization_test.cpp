// Tests for predictor persistence: bit-exact round trips, prediction
// equivalence, a golden of the trained weights, and rejection of
// malformed inputs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "ann/ridge.hpp"
#include "core/serialization.hpp"
#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

struct Trained {
  CharacterizedSuite suite;
  std::unique_ptr<BestSizePredictor> predictor;
};

const Trained& trained() {
  static const Trained t = [] {
    SuiteOptions suite_options;
    suite_options.kernel_scale = 0.25;
    suite_options.variants_per_kernel = 3;
    Trained out;
    out.suite =
        CharacterizedSuite::build(EnergyModel{CactiModel{}}, suite_options);
    const Dataset data = build_ann_dataset(out.suite, {});
    PredictorConfig config;
    config.ensemble_size = 4;
    config.trainer.max_epochs = 120;
    Rng rng(21);
    out.predictor =
        std::make_unique<BestSizePredictor>(data, config, rng);
    return out;
  }();
  return t;
}

TEST(SerializationTest, SnapshotMatchesLivePredictor) {
  const Trained& t = trained();
  const PredictorSnapshot snapshot = PredictorSnapshot::from(*t.predictor);
  EXPECT_EQ(snapshot.member_count(), 4u);
  for (std::size_t id = 0; id < t.suite.size(); ++id) {
    const auto& stats = t.suite.benchmark(id).base_statistics;
    EXPECT_DOUBLE_EQ(snapshot.predict_raw(stats),
                     t.predictor->predict_raw(stats));
    EXPECT_EQ(snapshot.predict(id, stats),
              t.predictor->predict_size_bytes(stats));
  }
}

TEST(SerializationTest, SaveLoadRoundTripIsBitExact) {
  const Trained& t = trained();
  const PredictorSnapshot snapshot = PredictorSnapshot::from(*t.predictor);

  std::stringstream stream;
  snapshot.save(stream);
  const PredictorSnapshot loaded = PredictorSnapshot::load(stream);

  EXPECT_EQ(loaded.member_count(), snapshot.member_count());
  EXPECT_EQ(loaded.selected_features().indices,
            snapshot.selected_features().indices);
  for (std::size_t id = 0; id < t.suite.size(); ++id) {
    const auto& stats = t.suite.benchmark(id).base_statistics;
    EXPECT_DOUBLE_EQ(loaded.predict_raw(stats),
                     snapshot.predict_raw(stats))
        << t.suite.benchmark(id).instance.name;
  }
}

TEST(SerializationTest, SecondSaveIsByteIdentical) {
  const Trained& t = trained();
  const PredictorSnapshot snapshot = PredictorSnapshot::from(*t.predictor);
  std::stringstream a, b;
  snapshot.save(a);
  PredictorSnapshot::load(a).save(b);
  EXPECT_EQ(a.str(), b.str());
}

// The fixture's snapshot, byte for byte: pins training (split, feature
// selection, scaling, bagging, every weight update) bit for bit.
TEST(SerializationTest, TrainedSnapshotMatchesGolden) {
  std::stringstream out;
  PredictorSnapshot::from(*trained().predictor).save(out);
  const std::string golden_path =
      std::string(HETSCHED_SOURCE_DIR) + "/tests/golden/trained_predictor.txt";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream golden_out(golden_path);
    golden_out << out.str();
    ASSERT_TRUE(golden_out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path;
  }
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing golden snapshot " << golden_path
                         << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_TRUE(out.str() == golden.str())
      << "trained weights diverged from the checked-in golden; if the "
         "change is intended, regenerate with HETSCHED_REGEN_GOLDEN=1 "
         "and commit the new file";
}

TEST(SerializationTest, SnapshotRequiresThePaperModel) {
  const Trained& t = trained();
  Rng rng(21);
  const BestSizePredictor ridge(build_ann_dataset(t.suite, {}),
                                std::make_unique<RidgeRegressor>(), rng);
  EXPECT_DEATH((void)PredictorSnapshot::from(ridge), "precondition");
}

TEST(SerializationTest, RejectsBadHeader) {
  std::stringstream in("not-a-predictor v1\n");
  EXPECT_THROW(PredictorSnapshot::load(in), std::runtime_error);
  std::stringstream wrong_version("hetsched-predictor v999\n");
  EXPECT_THROW(PredictorSnapshot::load(wrong_version), std::runtime_error);
}

TEST(SerializationTest, RejectsTruncatedStream) {
  const Trained& t = trained();
  std::stringstream full;
  PredictorSnapshot::from(*t.predictor).save(full);
  const std::string text = full.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(PredictorSnapshot::load(truncated), std::runtime_error);
}

TEST(SerializationTest, RejectsOutOfRangeFeatureIndex) {
  std::stringstream in("hetsched-predictor v1\nfeatures 1 99\n");
  EXPECT_THROW(PredictorSnapshot::load(in), std::runtime_error);
}

TEST(SerializationTest, SaveAppendsChecksumLine) {
  const Trained& t = trained();
  std::stringstream out;
  PredictorSnapshot::from(*t.predictor).save(out);
  EXPECT_NE(out.str().find("\nchecksum "), std::string::npos);
}

TEST(SerializationTest, RejectsChecksumMismatch) {
  const Trained& t = trained();
  std::stringstream out;
  PredictorSnapshot::from(*t.predictor).save(out);
  std::string text = out.str();
  // An extra space is invisible to token-level parsing — only the
  // checksum can catch this byte-level corruption.
  text.insert(text.find('\n') + 1, " ");
  std::stringstream corrupted(text);
  try {
    PredictorSnapshot::load(corrupted);
    FAIL() << "corrupted snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(SerializationTest, AcceptsLegacySnapshotWithoutChecksum) {
  const Trained& t = trained();
  const PredictorSnapshot snapshot = PredictorSnapshot::from(*t.predictor);
  std::stringstream out;
  snapshot.save(out);
  std::string text = out.str();
  const auto mark = text.rfind("\nchecksum ");
  ASSERT_NE(mark, std::string::npos);
  std::stringstream legacy(text.substr(0, mark + 1));
  const PredictorSnapshot loaded = PredictorSnapshot::load(legacy);
  const auto& stats = t.suite.benchmark(0).base_statistics;
  EXPECT_DOUBLE_EQ(loaded.predict_raw(stats), snapshot.predict_raw(stats));
}

TEST(SerializationTest, RejectsUnknownActivation) {
  // A structurally valid one-net snapshot; only the activation codes on
  // its `mlp` line vary. Codes outside kIdentity..kRelu are rejected.
  auto snapshot = [](const std::string& codes) {
    return "hetsched-predictor v1\n"
           "features 2 0 1\n"
           "scaler 2 0x0p+0 0x0p+0 0x1p+0 0x1p+0\n"
           "members 1\n"
           "mlp 3 2 2 1 " + codes + "\n"
           "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0\n"
           "0x0p+0 0x0p+0 0x0p+0\n";
  };
  std::stringstream valid(snapshot("1 0"));
  EXPECT_NO_THROW(PredictorSnapshot::load(valid));
  for (const char* codes : {"7 0", "-1 0", "1 4", "1 -1"}) {
    std::stringstream in(snapshot(codes));
    EXPECT_THROW(PredictorSnapshot::load(in), std::runtime_error) << codes;
  }
}

TEST(SerializationTest, RejectsNonFiniteParameters) {
  // A structurally valid snapshot whose first weight is NaN; strtod
  // happily parses "nan", so an explicit finiteness check must reject it.
  const std::string nan_weight(
      "hetsched-predictor v1\n"
      "features 2 0 1\n"
      "scaler 2 0x0p+0 0x0p+0 0x1p+0 0x1p+0\n"
      "members 1\n"
      "mlp 3 2 2 1 0 0\n"
      "nan 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0\n"
      "0x0p+0 0x0p+0 0x0p+0\n");
  std::stringstream weights(nan_weight);
  EXPECT_THROW(PredictorSnapshot::load(weights), std::runtime_error);

  std::stringstream scaler_mean(
      "hetsched-predictor v1\n"
      "features 2 0 1\n"
      "scaler 2 inf 0x0p+0 0x1p+0 0x1p+0\n");
  EXPECT_THROW(PredictorSnapshot::load(scaler_mean), std::runtime_error);

  std::stringstream scaler_stddev(
      "hetsched-predictor v1\n"
      "features 2 0 1\n"
      "scaler 2 0x0p+0 0x0p+0 0x0p+0 0x1p+0\n");
  EXPECT_THROW(PredictorSnapshot::load(scaler_stddev), std::runtime_error);
}

// A checksum-less snapshot declaring two 100,000-wide hidden layers: the
// first layer's parameters are all there, but the 100,000 x 100,000
// weight matrix cannot fit in the rest of the file, so the load fails
// before allocating it.
TEST(SerializationTest, RejectsLayersWiderThanTheFile) {
  std::string text =
      "hetsched-predictor v1\n"
      "features 1 0\n"
      "scaler 1 0x0p+0 0x1p+0\n"
      "members 1\n"
      "mlp 4 1 100000 100000 1 1 0\n";
  text.reserve(text.size() + 4 * 100000 + 64);
  for (int i = 0; i < 2 * 100000; ++i) text += "0 ";
  text += "0\n";
  std::stringstream in(text);
  try {
    PredictorSnapshot::load(in);
    ADD_FAILURE() << "a snapshot wider than its file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the rest of the input"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializationTest, LoadedSnapshotDrivesTheScheduler) {
  const Trained& t = trained();
  std::stringstream stream;
  PredictorSnapshot::from(*t.predictor).save(stream);
  const PredictorSnapshot loaded = PredictorSnapshot::load(stream);

  Rng rng(33);
  ArrivalOptions arrival_options;
  arrival_options.count = 150;
  arrival_options.mean_interarrival_cycles = 50000.0;
  const auto arrivals =
      generate_arrivals(t.suite.scheduling_ids(), arrival_options, rng);

  const EnergyModel energy{CactiModel{}};
  auto run = [&](const SizePredictor& predictor) {
    ProposedPolicy policy(predictor);
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), t.suite, energy,
                           policy);
    return sim.run(arrivals);
  };
  const SimulationResult live = run(*t.predictor);
  const SimulationResult from_snapshot = run(loaded);
  EXPECT_DOUBLE_EQ(live.total_energy().value(),
                   from_snapshot.total_energy().value());
  EXPECT_EQ(live.makespan, from_snapshot.makespan);
}

}  // namespace
}  // namespace hetsched
