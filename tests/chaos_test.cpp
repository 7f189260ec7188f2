// Chaos suite: crash-safety properties of the resilient-execution layer.
//
// The headline property: a streaming run killed at ANY checkpoint
// boundary and resumed from the snapshot produces bit-identical outputs
// (StreamStats digest, serialized result, window JSONL, and every later
// checkpoint) to the uninterrupted run — with and without fault
// injection. Alongside it: corrupted/truncated/mismatched snapshots are
// rejected, supervised sweeps quarantine hung and timed-out cells
// instead of aborting, a manifest-resumed sweep merges byte-identically,
// and the bench gate treats non-finite candidate values as regressions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "experiment/sweep.hpp"
#include "obs/bench_diff.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

// One cheap suite shared by every test below; the base/optimal policies
// need no predictor training. Fault plans vary per test but do not
// affect the context, so one context serves them all.
struct World {
  Scenario base;
  ScenarioContext context;
};

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "chaos-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "optimal";
    s.seed = 42;
    s.arrivals.count = 300;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    return new World{s, ScenarioContext(s)};
  }();
  return *w;
}

std::string result_text(const SimulationResult& result) {
  std::ostringstream out;
  save_simulation_result(out, result);
  return out.str();
}

std::string windows_text(const WindowedCollector& collector) {
  std::ostringstream out;
  collector.write_jsonl(out);
  return out.str();
}

// --- Durable atomic outputs ----------------------------------------------

TEST(AtomicFile, WritesAndOverwrites) {
  const std::string path = testing::TempDir() + "chaos_atomic.txt";
  ASSERT_TRUE(atomic_write_file(path, "first\n"));
  ASSERT_TRUE(atomic_write_file(path, "second\n"));
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "second\n");
}

TEST(AtomicFile, FailsWithoutParentDirectory) {
  const std::string path =
      testing::TempDir() + "no-such-dir-chaos/out.txt";
  EXPECT_FALSE(atomic_write_file(path, "content"));
  EXPECT_FALSE(std::ifstream(path).good());
}

// --- Rng state round trip ------------------------------------------------

TEST(RngState, RoundTripContinuesBitIdentically) {
  Rng original(1234);
  for (int i = 0; i < 17; ++i) (void)original.next();
  // One normal() leaves the Marsaglia spare pending — the part of the
  // state a naive xoshiro-words-only snapshot would lose.
  (void)original.normal();

  std::ostringstream saved;
  original.save_state(saved);
  Rng restored(999);  // deliberately different seed
  std::istringstream in(saved.str());
  restored.restore_state(in, "test");

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.next(), restored.next());
    EXPECT_EQ(original.normal(), restored.normal());
  }
}

TEST(RngState, RejectsGarbage) {
  Rng rng(1);
  std::istringstream in("not an rng snapshot");
  EXPECT_THROW(rng.restore_state(in, "test"), std::runtime_error);
}

// --- Checkpoint / resume -------------------------------------------------

CheckpointRunOptions base_checkpoint_options() {
  CheckpointRunOptions options;
  options.window_cycles = 1'000'000;
  options.checkpoint_every = 1;
  return options;
}

// The checkpointing driver itself must not perturb the simulation.
TEST(CheckpointResume, DriverMatchesPlainScenarioRun) {
  World& w = world();
  const ScenarioOutcome plain = run_scenario(w.base, w.context);
  const CheckpointRunOutcome checkpointed =
      run_scenario_checkpointed(w.base, w.context,
                                base_checkpoint_options());
  EXPECT_FALSE(checkpointed.halted);
  EXPECT_GT(checkpointed.checkpoints_written, 2u);
  EXPECT_EQ(checkpointed.stream.digest(), plain.stream.digest());
  EXPECT_EQ(result_text(checkpointed.result), result_text(plain.result));
}

// Kill-and-resume property: for EVERY checkpoint the full run produced,
// a fresh process resuming from it reproduces the full run's outputs
// byte for byte — including all later checkpoints.
void expect_kill_resume_identity(const Scenario& scenario,
                                 const ScenarioContext& context) {
  CheckpointRunOptions options = base_checkpoint_options();
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  const CheckpointRunOutcome full =
      run_scenario_checkpointed(scenario, context, options);
  ASSERT_FALSE(full.halted);
  ASSERT_GE(checkpoints.size(), 3u);

  const std::uint64_t ref_digest = full.stream.digest();
  const std::string ref_result = result_text(full.result);
  const std::string ref_windows = windows_text(full.windows);

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    CheckpointRunOptions resume = base_checkpoint_options();
    resume.resume_text = checkpoints[k];
    std::vector<std::string> tail;
    resume.capture_checkpoints = &tail;
    const CheckpointRunOutcome resumed =
        run_scenario_checkpointed(scenario, context, resume);
    ASSERT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.resumed_from, k + 1);
    EXPECT_EQ(resumed.stream.digest(), ref_digest) << "boundary " << k + 1;
    EXPECT_EQ(result_text(resumed.result), ref_result)
        << "boundary " << k + 1;
    EXPECT_EQ(windows_text(resumed.windows), ref_windows)
        << "boundary " << k + 1;
    ASSERT_EQ(tail.size(), checkpoints.size() - k - 1);
    for (std::size_t j = 0; j < tail.size(); ++j) {
      EXPECT_EQ(tail[j], checkpoints[k + 1 + j])
          << "checkpoint " << k + 1 + j << " resumed from " << k + 1;
    }
  }
}

TEST(CheckpointResume, KillAtEveryBoundaryIsBitIdentical) {
  World& w = world();
  expect_kill_resume_identity(w.base, w.context);
}

TEST(CheckpointResume, KillAtEveryBoundaryWithFaultsIsBitIdentical) {
  World& w = world();
  Scenario faulty = w.base;
  faulty.name = "chaos-fixture-faulty";
  faulty.faults.seed = 7;
  faulty.faults.core_events.push_back({2'000'000, 1, true});
  faulty.faults.core_events.push_back({5'000'000, 1, false});
  faulty.faults.reconfig_failure_rate = 0.05;
  faulty.faults.stuck_job_rate = 0.05;
  expect_kill_resume_identity(faulty, w.context);
}

// 64-core machine: the dispatch index is derived state, rebuilt (not
// serialized) on restore, so a resume must reconstruct multi-word idle
// bitmaps, per-size online counts and the clamp memo epoch exactly —
// including boundaries where failed cores are offline. The context is
// reusable because it never depends on the machine shape.
TEST(CheckpointResume, SixtyFourCoreKillAtEveryBoundaryIsBitIdentical) {
  World& w = world();
  Scenario big = w.base;
  big.name = "chaos-fixture-64core";
  big.cores = 64;
  // Keep the per-core load of the 4-core fixture so the run still spans
  // several checkpoint windows.
  big.arrivals.mean_interarrival_cycles = 40000.0 * 4.0 / 64.0;
  big.arrivals.count = 2000;
  // Overlapping outages in different size classes, so some checkpoint
  // boundaries land with cores down in more than one bitmap word.
  big.faults.seed = 11;
  big.faults.core_events.push_back({1'500'000, 9, true});
  big.faults.core_events.push_back({4'500'000, 9, false});
  big.faults.core_events.push_back({2'000'000, 33, true});
  big.faults.core_events.push_back({5'500'000, 33, false});
  big.faults.core_events.push_back({2'500'000, 60, true});
  big.faults.core_events.push_back({6'000'000, 60, false});
  expect_kill_resume_identity(big, w.context);
}

// File-level crash walkthrough: halt after two checkpoints (exit-3 path
// in the CLI), then resume from the file on disk.
TEST(CheckpointResume, HaltAndResumeFromFile) {
  World& w = world();
  const std::string path = testing::TempDir() + "chaos_resume.ckpt";

  CheckpointRunOptions halt = base_checkpoint_options();
  halt.checkpoint_out = path;
  halt.halt_after_checkpoints = 2;
  const CheckpointRunOutcome halted =
      run_scenario_checkpointed(w.base, w.context, halt);
  EXPECT_TRUE(halted.halted);
  EXPECT_EQ(halted.checkpoints_written, 2u);

  CheckpointRunOptions resume = base_checkpoint_options();
  resume.resume_from = path;
  const CheckpointRunOutcome resumed =
      run_scenario_checkpointed(w.base, w.context, resume);
  EXPECT_EQ(resumed.resumed_from, 2u);

  const CheckpointRunOutcome full = run_scenario_checkpointed(
      w.base, w.context, base_checkpoint_options());
  EXPECT_EQ(resumed.stream.digest(), full.stream.digest());
  EXPECT_EQ(result_text(resumed.result), result_text(full.result));
  EXPECT_EQ(windows_text(resumed.windows), windows_text(full.windows));
}

// --- Checkpoint rejection ------------------------------------------------

class CheckpointRejection : public ::testing::Test {
 protected:
  static const std::string& checkpoint() {
    static const std::string* text = [] {
      CheckpointRunOptions options = base_checkpoint_options();
      options.halt_after_checkpoints = 1;
      std::vector<std::string> captured;
      options.capture_checkpoints = &captured;
      run_scenario_checkpointed(world().base, world().context, options);
      return new std::string(captured.at(0));
    }();
    return *text;
  }

  static void expect_rejected(const CheckpointRunOptions& options) {
    EXPECT_THROW(
        run_scenario_checkpointed(world().base, world().context, options),
        std::runtime_error);
  }
};

TEST_F(CheckpointRejection, Garbage) {
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_text = "definitely not a checkpoint\n";
  expect_rejected(options);
}

TEST_F(CheckpointRejection, Truncated) {
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_text = checkpoint().substr(0, checkpoint().size() / 2);
  expect_rejected(options);
}

TEST_F(CheckpointRejection, CorruptedByte) {
  std::string mutated = checkpoint();
  const std::size_t at = mutated.size() / 2;
  mutated[at] = mutated[at] == '7' ? '8' : '7';
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_text = mutated;
  expect_rejected(options);
}

// Checkpoints never had a checksum-less format, so a body without its
// checksum line is rejected even though it is otherwise intact.
TEST_F(CheckpointRejection, MissingChecksumLine) {
  std::string stripped = checkpoint();
  stripped.erase(stripped.rfind("checksum "));
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_text = stripped;
  expect_rejected(options);
}

TEST_F(CheckpointRejection, DifferentScenario) {
  Scenario other = world().base;
  other.seed = 43;
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_text = checkpoint();
  EXPECT_THROW(run_scenario_checkpointed(other, world().context, options),
               std::runtime_error);
}

TEST_F(CheckpointRejection, DifferentWindowParameters) {
  CheckpointRunOptions options = base_checkpoint_options();
  options.window_cycles = 2'000'000;
  options.resume_text = checkpoint();
  expect_rejected(options);
}

TEST_F(CheckpointRejection, MissingFile) {
  CheckpointRunOptions options = base_checkpoint_options();
  options.resume_from = testing::TempDir() + "chaos-no-such.ckpt";
  expect_rejected(options);
}

// --- Supervised sweeps ---------------------------------------------------

SweepGrid sweep_grid() {
  SweepGrid grid;
  grid.base = world().base;
  grid.base.arrivals.count = 60;
  grid.core_counts = {4, 6};
  grid.mean_gaps = {40000.0};
  grid.policies = {"base", "optimal"};
  return grid;
}

TEST(SupervisedSweep, TimeoutQuarantineWithRetries) {
  SweepGrid grid = sweep_grid();
  grid.base.arrivals.count = 200000;  // far beyond a 1 ms budget
  grid.core_counts = {4};
  grid.policies = {"optimal"};

  SweepSupervisorOptions options;
  options.cell_timeout_ms = 1;
  options.supervision_slice_cycles = 50'000;
  options.max_attempts = 2;
  const SupervisedSweepResult result = run_sweep_supervised(
      grid, world().context, 1, ThreadPool::global(), options);

  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].label, "c4.g0.optimal");
  EXPECT_TRUE(result.failed[0].timed_out);
  EXPECT_EQ(result.failed[0].attempts, 2u);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].completed);
  EXPECT_EQ(result.cells[0].label, "c4.g0.optimal");
}

TEST(SupervisedSweep, DeadlockedCellsAreQuarantinedNotFatal) {
  SweepGrid grid = sweep_grid();
  // Fail every core of the 4-core machines with no scheduled recovery:
  // those cells deadlock (a thrown error), the 6-core cells keep two
  // live cores and must complete untouched.
  for (std::size_t core = 0; core < 4; ++core) {
    grid.base.faults.core_events.push_back({50'000, core, true});
  }

  SweepSupervisorOptions options;
  const SupervisedSweepResult result = run_sweep_supervised(
      grid, world().context, grid.cell_count(), ThreadPool::global(),
      options);

  ASSERT_EQ(result.failed.size(), 2u);
  EXPECT_EQ(result.failed[0].label, "c4.g0.base");
  EXPECT_EQ(result.failed[1].label, "c4.g0.optimal");
  EXPECT_FALSE(result.failed[0].timed_out);
  EXPECT_NE(result.failed[0].reason.find("deadlock"), std::string::npos);
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.completed, cell.cores == 6) << cell.label;
    if (cell.completed) {
      EXPECT_EQ(cell.result.completed_jobs, 60u) << cell.label;
    }
  }
}

TEST(SupervisedSweep, ManifestResumeIsByteIdentical) {
  const SweepGrid grid = sweep_grid();
  SweepSupervisorOptions options;
  options.window_cycles = 1'000'000;

  const SupervisedSweepResult clean = run_sweep_supervised(
      grid, world().context, 2, ThreadPool::global(), options);
  ASSERT_TRUE(clean.failed.empty());
  ASSERT_EQ(clean.cells.size(), 4u);
  EXPECT_FALSE(clean.cells[0].windows_jsonl.empty());

  // Simulate a crash after two completed cells: a manifest holding only
  // those, resumed into a fresh sweep.
  const std::vector<SweepCell> subset(clean.cells.begin(),
                                      clean.cells.begin() + 2);
  SweepSupervisorOptions resume = options;
  resume.resume_manifest_text = serialize_sweep_manifest(grid, subset);
  const SupervisedSweepResult resumed = run_sweep_supervised(
      grid, world().context, 2, ThreadPool::global(), resume);

  ASSERT_TRUE(resumed.failed.empty());
  EXPECT_EQ(resumed.resumed_cells, 2u);
  // Byte-identity of the complete merged payload (results, digests,
  // window summaries and raw window JSONL) via the canonical
  // serialization.
  EXPECT_EQ(serialize_sweep_manifest(grid, resumed.cells),
            serialize_sweep_manifest(grid, clean.cells));
}

TEST(SupervisedSweep, ManifestRejection) {
  const SweepGrid grid = sweep_grid();
  SweepSupervisorOptions options;
  options.window_cycles = 1'000'000;
  const SupervisedSweepResult clean = run_sweep_supervised(
      grid, world().context, 2, ThreadPool::global(), options);
  const std::string manifest =
      serialize_sweep_manifest(grid, clean.cells);

  EXPECT_THROW(parse_sweep_manifest("garbage", grid, "test"),
               std::runtime_error);
  EXPECT_THROW(parse_sweep_manifest(
                   manifest.substr(0, manifest.size() / 2), grid, "test"),
               std::runtime_error);
  std::string mutated = manifest;
  const std::size_t at = mutated.size() / 3;
  mutated[at] = mutated[at] == '7' ? '8' : '7';
  EXPECT_THROW(parse_sweep_manifest(mutated, grid, "test"),
               std::runtime_error);
  SweepGrid other = grid;
  other.base.seed = 43;
  EXPECT_THROW(parse_sweep_manifest(manifest, other, "test"),
               std::runtime_error);

  // A rejected manifest must also fail the supervised run up front.
  SweepSupervisorOptions resume = options;
  resume.resume_manifest_text = "garbage";
  EXPECT_THROW(run_sweep_supervised(grid, world().context, 2,
                                    ThreadPool::global(), resume),
               std::runtime_error);
}

// Same rule for sweep manifests: an intact body parses only with its
// checksum line.
TEST(SupervisedSweep, ManifestWithoutChecksumIsRejected) {
  const SweepGrid grid = sweep_grid();
  const std::string manifest = serialize_sweep_manifest(grid, {});
  EXPECT_NO_THROW(parse_sweep_manifest(manifest, grid, "test"));
  std::string stripped = manifest;
  stripped.erase(stripped.rfind("checksum "));
  EXPECT_THROW(parse_sweep_manifest(stripped, grid, "test"),
               std::runtime_error);
}

// --- Bench regression gate vs non-finite values --------------------------

TEST(BenchDiffGate, NonFiniteCurrentAlwaysRegresses) {
  // 1e999 overflows strtod to +inf — the way a broken bench's NaN/Inf
  // actually reaches the gate. Without the isfinite guard every
  // comparison against inf/NaN is false and the gate waves it through.
  const std::string baseline =
      R"({"wall_ms": 100.0, "speedup": 2.0})";
  const std::string current =
      R"({"wall_ms": 1e999, "speedup": 1e999})";
  const BenchDiffResult diff = bench_diff(baseline, current, 0.5);
  ASSERT_EQ(diff.compared.size(), 2u);
  EXPECT_TRUE(diff.regressed());
  // Both directions: inf wall time (lower-is-better) and inf "speedup"
  // (higher-is-better, where inf would naively look like a win).
  for (const BenchComparison& c : diff.compared) {
    EXPECT_TRUE(c.regressed) << c.path;
  }
}

TEST(BenchDiffGate, NonFiniteBaselineIsSkippedNotCompared) {
  const std::string baseline = R"({"wall_ms": 1e999})";
  const std::string current = R"({"wall_ms": 100.0})";
  const BenchDiffResult diff = bench_diff(baseline, current, 0.5);
  EXPECT_TRUE(diff.compared.empty());
  EXPECT_FALSE(diff.regressed());
  ASSERT_EQ(diff.skipped.size(), 1u);
  EXPECT_EQ(diff.skipped[0], "wall_ms");
}

}  // namespace
}  // namespace hetsched
