// DAG task-graph suite (ctest label: dag).
//
// Covers the release-on-completion arrival source end to end: the
// topological-order invariant (no successor is dispatched before its
// last predecessor retires) over hundreds of random seeded DAGs crossed
// with every registered policy, bit-identity between the streaming run
// and a batch replay of the realized arrival order, HETSCHED_THREADS
// invariance, checkpoint kill-and-resume at every stride boundary over
// varied graphs, checkpoint size bounded by live state, rejection of
// malformed DAG blocks, the cp-aware policy's fall-back contract
// (identical to `proposed` when every rank is zero), and the golden
// dag_smoke scenario whose checked-in window stream and run report pin
// the release telemetry.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/simulator.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/rng.hpp"
#include "util/snapshot_text.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

// One suite build + one ANN training shared by every test in this file
// (the fixture policy is cp-aware, so the context carries a predictor
// for every predictor-backed contender).
struct World {
  Scenario base;
  ScenarioContext context;
};

// Layered random DAG over `nodes` jobs: every edge points from a lower
// to a strictly higher index, so the graph is acyclic by construction;
// a seen-set keeps edges unique.
DagSpec random_dag(Rng& rng, std::size_t nodes) {
  DagSpec spec;
  if (nodes < 2) return spec;
  std::vector<std::vector<char>> seen(nodes, std::vector<char>(nodes, 0));
  const std::size_t target = nodes / 2 + rng.below(nodes);
  for (std::size_t k = 0; k < target; ++k) {
    const std::size_t to = 1 + rng.below(nodes - 1);
    const std::size_t from = rng.below(to);
    if (seen[from][to]) continue;
    seen[from][to] = 1;
    spec.edges.push_back({from, to});
  }
  return spec;
}

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "dag-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "cp-aware";
    s.seed = 42;
    s.arrivals.count = 120;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    s.predictor_ensemble = 5;
    s.predictor_max_epochs = 120;
    Rng rng(7);
    s.dag = random_dag(rng, s.arrivals.count);
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

// Records first-dispatch and retirement times per job id — the raw
// material of the topological-order check.
struct PrecedenceRecorder final : public ScheduleObserver {
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  std::vector<SimTime> first_dispatch;
  std::vector<SimTime> completion;

  void grow(std::uint64_t job_id) {
    const std::size_t need = static_cast<std::size_t>(job_id) + 1;
    if (first_dispatch.size() < need) {
      first_dispatch.resize(need, kNever);
      completion.resize(need, kNever);
    }
  }
  void on_dispatch(const DispatchEvent& event) override {
    grow(event.job_id);
    const std::size_t id = static_cast<std::size_t>(event.job_id);
    if (first_dispatch[id] == kNever) first_dispatch[id] = event.time;
  }
  void on_slice(const ScheduledSlice& slice) override {
    if (!slice.completed) return;
    grow(slice.job_id);
    completion[static_cast<std::size_t>(slice.job_id)] = slice.end;
  }
};

// Drives a DAG scenario through ScenarioRun (exposing the source) with a
// precedence recorder attached and checks every edge: the successor's
// first dispatch must not precede the predecessor's retirement.
void check_topological_order(const Scenario& scenario,
                             const ScenarioContext& context,
                             const std::string& where) {
  PrecedenceRecorder recorder;
  ScenarioRun run(scenario, context, &recorder);
  run.start();
  run.advance_until(std::numeric_limits<SimTime>::max());
  const SimulationResult result = run.finish();
  ASSERT_EQ(result.completed_jobs, scenario.arrivals.count) << where;
  ASSERT_NE(run.dag(), nullptr) << where;

  const std::vector<std::size_t>& emitted = run.dag()->emission_order();
  ASSERT_EQ(emitted.size(), scenario.arrivals.count) << where;
  std::vector<std::size_t> job_of(emitted.size(), SIZE_MAX);
  for (std::size_t job = 0; job < emitted.size(); ++job) {
    ASSERT_EQ(job_of[emitted[job]], SIZE_MAX)
        << where << ": node emitted twice";
    job_of[emitted[job]] = job;
  }
  ASSERT_EQ(recorder.completion.size(), emitted.size()) << where;

  for (const DagEdge& edge : scenario.dag.edges) {
    const SimTime retired = recorder.completion[job_of[edge.from]];
    const SimTime started = recorder.first_dispatch[job_of[edge.to]];
    ASSERT_NE(retired, PrecedenceRecorder::kNever) << where;
    ASSERT_NE(started, PrecedenceRecorder::kNever) << where;
    EXPECT_LE(retired, started)
        << where << ": job " << edge.to << " dispatched at " << started
        << " before predecessor " << edge.from << " retired at " << retired;
  }
}

// --- Rank / spec unit checks ---------------------------------------------

TEST(DagSpec, RanksAreLongestPathToSink) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 2 -> 4; node 5 independent.
  DagSpec spec;
  spec.edges = {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {2, 4}};
  ASSERT_FALSE(spec.validate(6).has_value());
  const std::vector<std::uint32_t> rank = spec.ranks(6);
  EXPECT_EQ(rank, (std::vector<std::uint32_t>{2, 1, 1, 0, 0, 0}));
}

TEST(DagSpec, ValidateRejectsStructuralErrors) {
  DagSpec out_of_range;
  out_of_range.edges = {{0, 5}};
  auto issue = out_of_range.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 0u);
  EXPECT_NE(issue->what.find("out of range"), std::string::npos);

  DagSpec self_edge;
  self_edge.edges = {{0, 1}, {2, 2}};
  issue = self_edge.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 1u);
  EXPECT_NE(issue->what.find("repeats job 2"), std::string::npos);

  DagSpec duplicate;
  duplicate.edges = {{0, 1}, {1, 2}, {0, 1}};
  issue = duplicate.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 2u);  // the later copy is the offender
  EXPECT_NE(issue->what.find("duplicate dep 0 -> 1"), std::string::npos);

  DagSpec cycle;
  cycle.edges = {{0, 1}, {1, 2}, {2, 0}};
  issue = cycle.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_NE(issue->what.find("cycle"), std::string::npos);
}

// --- Topological order ---------------------------------------------------

// The headline property: over 200 random seeded DAGs, each run under
// every registered policy, no successor ever starts before its last
// predecessor retires. Small graphs keep the 200 x |policies| matrix
// cheap.
TEST(DagDeterminism, TopologicalOrderHoldsAcrossSeedsAndPolicies) {
  World& w = world();
  const std::vector<std::string> policies =
      PolicyRegistry::instance().names();
  ASSERT_GE(policies.size(), 10u);

  const int kDags = 200;
  for (int i = 0; i < kDags; ++i) {
    Scenario s = w.base;
    s.name = "dag-prop";
    s.seed = 1000 + static_cast<std::uint64_t>(i);
    s.arrivals.count = 24;
    s.arrivals.mean_interarrival_cycles = 15000.0;
    Rng rng(s.seed);
    s.dag = random_dag(rng, s.arrivals.count);
    if (s.dag.empty()) s.dag.edges = {{0, 1}};
    for (const std::string& policy : policies) {
      s.policy = policy;
      check_topological_order(
          s, w.context,
          "dag seed " + std::to_string(s.seed) + ", policy " + policy);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first violation at dag seed " << s.seed << ", policy "
               << policy;
      }
    }
  }
}

// --- Stream / batch bit-identity -----------------------------------------

// A streaming DAG run and a batch run() over the realized arrival order
// must produce the same event stream: same digest, same serialized
// result. This is the DAG extension of the repo's core determinism
// contract.
void check_stream_matches_batch(const Scenario& scenario,
                                const ScenarioContext& context,
                                const std::string& where) {
  ScenarioRun run(scenario, context);
  run.start();
  run.advance_until(std::numeric_limits<SimTime>::max());
  const SimulationResult streamed = run.finish();
  ASSERT_NE(run.dag(), nullptr) << where;
  const std::vector<JobArrival> realized = run.dag()->realized();
  ASSERT_EQ(realized.size(), scenario.arrivals.count) << where;
  for (std::size_t k = 1; k < realized.size(); ++k) {
    ASSERT_LE(realized[k - 1].arrival, realized[k].arrival)
        << where << ": realized order not sorted at " << k;
  }

  std::unique_ptr<SchedulerPolicy> policy =
      make_scenario_policy(scenario, context);
  MulticoreSimulator simulator(scenario.make_system(), context.suite(),
                               context.energy(), *policy,
                               scenario.discipline);
  StreamStats batch_stats(scenario.make_system().core_count());
  simulator.set_observer(&batch_stats);
  const SimulationResult batch = simulator.run(realized);

  EXPECT_EQ(run.stats().digest(), batch_stats.digest()) << where;
  EXPECT_EQ(result_text(streamed), result_text(batch)) << where;
}

TEST(DagDeterminism, StreamMatchesBatchReplayOfRealizedArrivals) {
  World& w = world();
  for (const std::string& policy :
       {std::string("optimal"), std::string("sjf"),
        std::string("cp-aware")}) {
    Scenario s = w.base;
    s.policy = policy;
    check_stream_matches_batch(s, w.context, "policy " + policy);
  }
}

TEST(DagDeterminism, StreamMatchesBatchUnderRealtimeAttributes) {
  World& w = world();
  Scenario s = w.base;
  s.policy = "cp-aware";
  RealtimeOptions rt;
  rt.slack_factor = 2.0;
  s.realtime = rt;
  check_stream_matches_batch(s, w.context, "realtime dag");
}

// --- Thread-count invariance ---------------------------------------------

TEST(DagDeterminism, OutputsInvariantAcrossThreadCounts) {
  World& w = world();
  auto run_at = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    WindowedCollector collector(w.base.make_system().core_count(),
                                WindowedOptions{1'000'000, 0},
                                &w.context.suite());
    ScenarioOutcome outcome = run_scenario(w.base, w.context, &collector);
    collector.finalize();
    EXPECT_TRUE(outcome.dag.has_value());
    return windows_text(collector) + "digest " +
           std::to_string(outcome.stream.digest());
  };
  const std::string at1 = run_at(1);
  const std::string at3 = run_at(3);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, at3);
}

// --- cp-aware contract ---------------------------------------------------

// Without dep edges every cp_rank is zero, the stall-cost boost is the
// identity, and cp-aware must reproduce the proposed policy bit for bit.
TEST(CpAwarePolicy, MatchesProposedWhenEveryRankIsZero) {
  World& w = world();
  Scenario proposed = w.base;
  proposed.dag = DagSpec{};
  proposed.policy = "proposed";
  Scenario cp = proposed;
  cp.policy = "cp-aware";

  const ScenarioOutcome a = run_scenario(proposed, w.context);
  const ScenarioOutcome b = run_scenario(cp, w.context);
  EXPECT_EQ(a.stream.digest(), b.stream.digest());
  EXPECT_EQ(result_text(a.result), result_text(b.result));
  EXPECT_FALSE(a.dag.has_value());
  EXPECT_FALSE(b.dag.has_value());
}

// --- Release accounting --------------------------------------------------

TEST(DagStatsAccounting, FixedDiamondReportsExpectedNumbers) {
  World& w = world();
  Scenario s = w.base;
  s.policy = "optimal";
  s.arrivals.count = 6;
  // Diamond 0 -> {1, 2} -> 3 with a tail 3 -> 4; node 5 independent.
  s.dag.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};

  WindowedCollector collector(s.make_system().core_count(),
                              WindowedOptions{1'000'000, 0},
                              &w.context.suite());
  const ScenarioOutcome outcome = run_scenario(s, w.context, &collector);
  collector.finalize();
  ASSERT_TRUE(outcome.dag.has_value());
  const DagStats& stats = *outcome.dag;
  EXPECT_EQ(stats.nodes, 6u);
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.releases, 4u);  // nodes 1..4; roots 0 and 5 are free
  EXPECT_EQ(stats.max_rank, 3u);  // 0 -> 1/2 -> 3 -> 4
  EXPECT_GE(stats.ready_peak, 1u);
  EXPECT_EQ(outcome.stream.dag_releases(), stats.releases);
  EXPECT_EQ(outcome.result.completed_jobs, 6u);

  // The window stream carries the same release count.
  std::uint64_t windowed_releases = 0;
  for (const WindowRecord& window : collector.windows()) {
    windowed_releases += window.dag_releases;
  }
  EXPECT_EQ(windowed_releases, stats.releases);
  EXPECT_NE(windows_text(collector).find("\"dag_releases\""),
            std::string::npos);
}

// --- Checkpoint kill-and-resume ------------------------------------------

// What one checkpoint's DAG block holds, for the coverage checks below.
struct DagBlockShape {
  std::size_t partial = 0;
  std::size_t eligible = 0;
  // The simulator holds a lookahead, and it is a root: a release right
  // after a resume must unget it back onto the root cursor.
  bool root_lookahead = false;
};

std::vector<std::uint32_t> indegrees(const Scenario& scenario) {
  std::vector<std::uint32_t> indegree(scenario.arrivals.count, 0);
  for (const DagEdge& e : scenario.dag.edges) ++indegree[e.to];
  return indegree;
}

DagBlockShape dag_block_shape(const std::string& checkpoint,
                              const std::vector<std::uint32_t>& indegree) {
  // The text after the first "<header> " line prefix.
  auto after = [&](const std::string& header) {
    const std::size_t at = checkpoint.find("\n" + header + " ");
    EXPECT_NE(at, std::string::npos) << header;
    return std::istringstream(at == std::string::npos
                                  ? std::string()
                                  : checkpoint.substr(at + header.size() + 2));
  };
  DagBlockShape shape;
  after("partial") >> shape.partial;
  after("eligible") >> shape.eligible;
  std::size_t cursor = 0;
  std::uint64_t emitted = 0;
  after("roots") >> cursor >> emitted;
  // A held lookahead is always the last emitted job.
  const bool pending = checkpoint.find("\npending 1 ") != std::string::npos;
  std::istringstream live = after("live");
  std::size_t count = 0;
  live >> count;
  for (std::size_t k = 0; k < count; ++k) {
    std::uint64_t job = 0;
    std::size_t node = 0;
    SimTime release = 0;
    live >> job >> node >> release;
    if (pending && job + 1 == emitted && indegree.at(node) == 0) {
      shape.root_lookahead = true;
    }
  }
  return shape;
}

// A DAG run killed at ANY stride boundary and resumed from the snapshot
// must rebuild the exact release frontier: digest, result, window
// stream (including the dag_* columns), final DagStats and every later
// checkpoint all match the uninterrupted run. Returns the shape of each
// checkpoint's DAG block.
std::vector<DagBlockShape> expect_dag_kill_resume_identity(
    const Scenario& scenario, const ScenarioContext& context,
    SimTime window_cycles, const std::string& where) {
  CheckpointRunOptions options;
  options.window_cycles = window_cycles;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  const CheckpointRunOutcome full =
      run_scenario_checkpointed(scenario, context, options);
  EXPECT_FALSE(full.halted) << where;
  EXPECT_TRUE(full.dag.has_value()) << where;
  if (!full.dag.has_value()) return {};
  EXPECT_GE(full.dag->releases, 1u) << where;
  EXPECT_GE(checkpoints.size(), 3u) << where;

  const std::string ref_result = result_text(full.result);
  const std::string ref_windows = windows_text(full.windows);
  const std::vector<std::uint32_t> indegree = indegrees(scenario);
  std::vector<DagBlockShape> shapes;
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    shapes.push_back(dag_block_shape(checkpoints[k], indegree));
    const std::string at = where + ", boundary " + std::to_string(k + 1);
    CheckpointRunOptions resume;
    resume.window_cycles = options.window_cycles;
    resume.checkpoint_every = options.checkpoint_every;
    resume.resume_text = checkpoints[k];
    std::vector<std::string> tail;
    resume.capture_checkpoints = &tail;
    const CheckpointRunOutcome resumed =
        run_scenario_checkpointed(scenario, context, resume);
    EXPECT_FALSE(resumed.halted) << at;
    EXPECT_EQ(resumed.resumed_from, k + 1) << at;
    EXPECT_EQ(resumed.stream.digest(), full.stream.digest()) << at;
    EXPECT_EQ(result_text(resumed.result), ref_result) << at;
    EXPECT_EQ(windows_text(resumed.windows), ref_windows) << at;
    EXPECT_TRUE(resumed.dag.has_value()) << at;
    if (!resumed.dag.has_value()) continue;
    EXPECT_EQ(resumed.dag->releases, full.dag->releases) << at;
    EXPECT_EQ(resumed.dag->ready_peak, full.dag->ready_peak) << at;
    EXPECT_EQ(resumed.dag->release_latency_total,
              full.dag->release_latency_total)
        << at;
    EXPECT_EQ(resumed.dag->cp_slack_total, full.dag->cp_slack_total) << at;
    EXPECT_EQ(tail.size(), checkpoints.size() - k - 1) << at;
    for (std::size_t j = 0; j < tail.size() && k + 1 + j < checkpoints.size();
         ++j) {
      EXPECT_EQ(tail[j], checkpoints[k + 1 + j])
          << "checkpoint " << k + 2 + j << " resumed from " << k + 1;
    }
  }
  return shapes;
}

// The fixture graph, then 20 seeded random graphs with fan-in,
// checkpointed at every window: partly satisfied nodes, a root
// lookahead that a release right after the resume sends back, and an
// empty released heap must each cross some boundary.
TEST(DagDeterminism, CheckpointKillAtEveryBoundaryMatches) {
  World& w = world();
  expect_dag_kill_resume_identity(w.base, w.context, 1'000'000, "fixture");

  bool saw_partial = false;
  bool saw_root_lookahead = false;
  bool saw_empty_heap = false;
  for (std::uint64_t g = 0; g < 20; ++g) {
    Scenario s = w.base;
    s.name = "dag-kill-resume";
    s.seed = 3000 + g;
    s.arrivals.count = 60;
    Rng rng(s.seed);
    s.dag = random_dag(rng, s.arrivals.count);
    const std::string where = "graph seed " + std::to_string(s.seed);
    for (const DagBlockShape& shape :
         expect_dag_kill_resume_identity(s, w.context, 250'000, where)) {
      saw_partial = saw_partial || shape.partial > 0;
      saw_root_lookahead = saw_root_lookahead || shape.root_lookahead;
      saw_empty_heap = saw_empty_heap || shape.eligible == 0;
    }
    if (::testing::Test::HasFailure()) FAIL() << "first failure at " << where;
  }
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_root_lookahead);
  EXPECT_TRUE(saw_empty_heap);
}

// Checkpoint size is bounded by live state: outside the retained-window
// history, the last checkpoint of a 20k-job run of half-chained 10-job
// blocks stays within 2x of a 2k-job run's with the same shape.
TEST(DagCheckpoint, SizeDoesNotGrowWithNodeCount) {
  World& w = world();
  auto last_checkpoint_bytes = [&](std::size_t jobs) {
    Scenario s = w.base;
    s.name = "dag-size";
    s.arrivals.count = jobs;
    s.dag = DagSpec{};
    for (std::size_t block = 0; block + 10 <= jobs; block += 20) {
      for (std::size_t k = block; k + 1 < block + 10; ++k) {
        s.dag.edges.push_back({k, k + 1});
      }
    }
    CheckpointRunOptions options;
    options.window_cycles = 1'000'000;
    options.checkpoint_every = 10;
    options.checkpoint_out = testing::TempDir() + "dag_size_" +
                             std::to_string(jobs) + ".ckpt";
    const CheckpointRunOutcome outcome =
        run_scenario_checkpointed(s, w.context, options);
    EXPECT_EQ(outcome.result.completed_jobs, jobs);
    std::ifstream in(options.checkpoint_out);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::size_t from = text.find("\nretained ");
    const std::size_t to = text.find("\nlast-core ");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    if (from == std::string::npos || to == std::string::npos) return 0.0;
    return static_cast<double>(text.size() - (to - from));
  };
  const double small = last_checkpoint_bytes(2'000);
  const double large = last_checkpoint_bytes(20'000);
  ASSERT_GT(small, 0.0);
  EXPECT_LE(large, 2.0 * small) << "2k jobs: " << small
                                << " B, 20k jobs: " << large << " B";
  EXPECT_LE(small, 2.0 * large);
}

// --- Restored source -----------------------------------------------------

ScheduledSlice completion_of(std::uint64_t job_id, SimTime end) {
  ScheduledSlice slice;
  slice.job_id = job_id;
  slice.start = end;
  slice.end = end;
  return slice;
}

DagArrivalSource make_source(const DagSpec& spec, std::size_t count) {
  ArrivalOptions options = world().base.arrivals;
  options.count = count;
  return DagArrivalSource(spec, world().context.scheduling_ids(), options,
                          99, std::nullopt);
}

// The simulator's protocol at the source level: a fan-in node is partly
// satisfied and a root is the held lookahead when the source is saved;
// the first completion after the restore releases the fan-in node, and
// the stale root lookahead goes back onto the root cursor. The restored
// source must then emit, account and save exactly like the original.
TEST(DagCheckpoint, RestoredSourceContinuesLikeTheOriginal) {
  // 0 -> 2 <- 1, 2 -> 3; roots 0, 1, 4, 5.
  DagSpec spec;
  spec.edges = {{0, 2}, {1, 2}, {2, 3}};
  DagArrivalSource original = make_source(spec, 6);
  const JobArrival first = *original.next();   // root 0, job 0
  const JobArrival second = *original.next();  // root 1, job 1
  const JobArrival lookahead = *original.next();  // root 4, held
  original.on_slice(completion_of(0, first.arrival));
  EXPECT_FALSE(original.lookahead_stale());

  std::ostringstream saved;
  original.save_state(saved);
  EXPECT_NE(saved.str().find("\nroots 3 3\n"), std::string::npos)
      << saved.str();
  EXPECT_NE(saved.str().find("\npartial 1\n2 1\n"), std::string::npos);
  EXPECT_NE(saved.str().find("\neligible 0\n"), std::string::npos);
  DagArrivalSource restored = make_source(spec, 6);
  std::istringstream in(saved.str());
  restored.restore_state(in, "test");

  auto continue_run = [&](DagArrivalSource& source) {
    source.on_slice(completion_of(1, second.arrival));
    EXPECT_TRUE(source.lookahead_stale());
    source.unget(lookahead);
    std::ostringstream trace;
    for (std::uint64_t job = 2; const auto arrival = source.next(); ++job) {
      trace << arrival->arrival << ' ' << arrival->benchmark_id << ' '
            << arrival->cp_rank << '\n';
      source.on_slice(completion_of(job, arrival->arrival + 1));
    }
    const DagStats& stats = source.stats();
    trace << stats.releases << ' ' << stats.ready_peak << ' '
          << stats.release_latency_total << ' ' << stats.cp_slack_total
          << '\n';
    source.save_state(trace);
    return trace.str();
  };
  EXPECT_EQ(continue_run(restored), continue_run(original));
  EXPECT_EQ(original.emission_order(),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(original.realized().size(), 6u);
}

// The emission history before a checkpoint is not in the file, so a
// restored source must refuse to report it rather than invent it.
TEST(DagCheckpointDeathTest, RestoredSourceHasNoEmissionHistory) {
  DagSpec spec;
  spec.edges = {{0, 1}};
  DagArrivalSource original = make_source(spec, 4);
  (void)original.next();
  std::ostringstream saved;
  original.save_state(saved);
  DagArrivalSource restored = make_source(spec, 4);
  std::istringstream in(saved.str());
  restored.restore_state(in, "test");
  EXPECT_DEATH((void)restored.realized(), "restored DAG source");
  EXPECT_DEATH((void)restored.emission_order(), "restored DAG source");
}

// A checkpoint from a DAG run must not resume the same scenario with the
// dep edges stripped (and vice versa).
TEST(DagCheckpoint, RejectsDagStateMismatch) {
  World& w = world();
  CheckpointRunOptions options;
  options.window_cycles = 1'000'000;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  const CheckpointRunOutcome full =
      run_scenario_checkpointed(w.base, w.context, options);
  ASSERT_FALSE(full.halted);
  ASSERT_GE(checkpoints.size(), 1u);

  Scenario stripped = w.base;
  stripped.dag = DagSpec{};
  CheckpointRunOptions resume;
  resume.window_cycles = options.window_cycles;
  resume.checkpoint_every = options.checkpoint_every;
  resume.resume_text = checkpoints[0];
  // The scenario fingerprint covers the dep edges, so the mismatch is
  // caught before the dag-state flag is even reached.
  EXPECT_THROW(run_scenario_checkpointed(stripped, w.context, resume),
               std::runtime_error);
}

// --- Malformed v5 DAG blocks ---------------------------------------------

// Edits one checkpoint's body line by line and re-signs it, so the
// checksum passes and the DAG block's own validation must catch the
// edit.
class DagCheckpointRejection : public ::testing::Test {
 protected:
  // A mid-run checkpoint of the fixture: jobs in flight, roots left.
  static const std::vector<std::string>& lines() {
    static const std::vector<std::string>* body = [] {
      CheckpointRunOptions options;
      options.window_cycles = 1'000'000;
      options.checkpoint_every = 1;
      options.halt_after_checkpoints = 2;
      std::vector<std::string> captured;
      options.capture_checkpoints = &captured;
      run_scenario_checkpointed(world().base, world().context, options);
      std::istringstream in(captured.at(1));
      auto* out = new std::vector<std::string>;
      for (std::string line; std::getline(in, line);) out->push_back(line);
      out->pop_back();  // the checksum line
      return out;
    }();
    return *body;
  }

  static std::size_t find(const std::vector<std::string>& body,
                          const std::string& prefix) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i].rfind(prefix, 0) == 0) return i;
    }
    ADD_FAILURE() << "no line starting with '" << prefix << "'";
    return 0;
  }

  // The numbers on one line, after its keyword when it has one.
  static std::vector<std::uint64_t> numbers(const std::string& line) {
    std::istringstream in(line);
    std::string first;
    in >> first;
    std::vector<std::uint64_t> values;
    if (!first.empty() && std::isdigit(static_cast<unsigned char>(first[0]))) {
      values.push_back(std::stoull(first));
    }
    for (std::uint64_t v = 0; in >> v;) values.push_back(v);
    return values;
  }

  static CheckpointRunOutcome resume(const std::vector<std::string>& body,
                                     bool sign = true) {
    std::string text;
    for (const std::string& line : body) text += line + "\n";
    std::ostringstream signed_text;
    snapshot_text::write_with_checksum(signed_text, text);
    CheckpointRunOptions options;
    options.window_cycles = 1'000'000;
    options.checkpoint_every = 1;
    options.resume_text = sign ? signed_text.str() : text;
    return run_scenario_checkpointed(world().base, world().context, options);
  }

  static void expect_rejected(const std::vector<std::string>& body,
                              const std::string& needle, bool sign = true) {
    try {
      resume(body, sign);
      ADD_FAILURE() << "edited checkpoint was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }

  // The node of the first live job, and a fan-in node no number in the
  // block names.
  static std::size_t first_live_node() {
    const std::vector<std::string>& body = lines();
    return numbers(body[find(body, "live ") + 1]).at(1);
  }
  static std::size_t unlisted_fan_in_node() {
    const std::vector<std::uint32_t> indegree = indegrees(world().base);
    const std::vector<std::string>& body = lines();
    std::vector<char> listed(indegree.size(), 0);
    for (std::size_t i = find(body, "live "); i < find(body, "dag-stats");
         ++i) {
      for (const std::uint64_t v : numbers(body[i])) {
        if (v < listed.size()) listed[v] = 1;
      }
    }
    for (std::size_t node = indegree.size(); node-- > 0;) {
      if (indegree[node] >= 2 && listed[node] == 0) return node;
    }
    ADD_FAILURE() << "fixture graph has no unlisted fan-in node";
    return 0;
  }
};

// The control: re-signed without edits, the block resumes the run.
TEST_F(DagCheckpointRejection, UneditedBodyResumes) {
  const std::vector<std::string>& body = lines();
  EXPECT_GE(numbers(body[find(body, "live ")]).at(0), 1u);
  const CheckpointRunOutcome resumed = resume(body);
  EXPECT_EQ(resumed.result.completed_jobs, world().base.arrivals.count);
}

TEST_F(DagCheckpointRejection, LiveJobIdAtOrBeyondEmittedCount) {
  std::vector<std::string> body = lines();
  const std::uint64_t emitted = numbers(body[find(body, "roots ")]).at(1);
  const std::size_t at = find(body, "live ") + 1;
  const std::vector<std::uint64_t> job = numbers(body[at]);
  body[at] = std::to_string(emitted) + ' ' + std::to_string(job.at(1)) + ' ' +
             std::to_string(job.at(2));
  expect_rejected(body, "not below the emitted count");
}

TEST_F(DagCheckpointRejection, LiveJobIdListedTwice) {
  std::vector<std::string> body = lines();
  const std::size_t at = find(body, "live ");
  const std::uint64_t count = numbers(body[at]).at(0);
  const std::vector<std::uint64_t> job = numbers(body[at + 1]);
  body[at] = "live " + std::to_string(count + 1);
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(at) + 2,
              std::to_string(job.at(0)) + ' ' +
                  std::to_string(unlisted_fan_in_node()) + ' ' +
                  std::to_string(job.at(2)));
  expect_rejected(body, "live job id listed twice");
}

TEST_F(DagCheckpointRejection, NodeOutOfRange) {
  std::vector<std::string> body = lines();
  const std::size_t at = find(body, "live ") + 1;
  const std::vector<std::uint64_t> job = numbers(body[at]);
  body[at] = std::to_string(job.at(0)) + ' ' +
             std::to_string(world().base.arrivals.count) + ' ' +
             std::to_string(job.at(2));
  expect_rejected(body, "out of range");
}

TEST_F(DagCheckpointRejection, NodeListedTwice) {
  std::vector<std::string> body = lines();
  const std::size_t at = find(body, "eligible ");
  const std::uint64_t count = numbers(body[at]).at(0);
  body[at] = "eligible " + std::to_string(count + 1);
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(at) + 1,
              "0 " + std::to_string(first_live_node()));
  expect_rejected(body, "listed twice");
}

TEST_F(DagCheckpointRejection, PartialNodeWithNothingLeft) {
  std::vector<std::string> body = lines();
  const std::size_t at = find(body, "partial ");
  const std::uint64_t count = numbers(body[at]).at(0);
  body[at] = "partial " + std::to_string(count + 1);
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(at) + 1,
              std::to_string(unlisted_fan_in_node()) + " 0");
  expect_rejected(body, "some but not all predecessors");
}

TEST_F(DagCheckpointRejection, PartialNodeWithEveryPredecessorLeft) {
  std::vector<std::string> body = lines();
  const std::size_t node = unlisted_fan_in_node();
  const std::size_t at = find(body, "partial ");
  const std::uint64_t count = numbers(body[at]).at(0);
  body[at] = "partial " + std::to_string(count + 1);
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(at) + 1,
              std::to_string(node) + ' ' +
                  std::to_string(indegrees(world().base)[node]));
  expect_rejected(body, "some but not all predecessors");
}

TEST_F(DagCheckpointRejection, RootCursorBeyondRootCount) {
  std::vector<std::string> body = lines();
  std::size_t roots = 0;
  for (const std::uint32_t d : indegrees(world().base)) roots += d == 0;
  const std::size_t at = find(body, "roots ");
  body[at] = "roots " + std::to_string(roots + 1) + ' ' +
             std::to_string(numbers(body[at]).at(1));
  expect_rejected(body, "root cursor beyond the root count");
}

TEST_F(DagCheckpointRejection, VersionFourCheckpoint) {
  std::vector<std::string> body = lines();
  ASSERT_EQ(body[0], "hetsched-checkpoint 5");
  body[0] = "hetsched-checkpoint 4";
  expect_rejected(body, "unsupported checkpoint version");
}

// Checkpoints never had a checksum-less format: an edited body without
// its checksum line must not load (it would resume with made-up stats).
TEST_F(DagCheckpointRejection, UnsignedEdit) {
  std::vector<std::string> body = lines();
  body[find(body, "dag-stats ")] = "dag-stats 1009872 1 0 0";
  expect_rejected(body, "missing checksum line", false);
}

// --- Golden scenario -----------------------------------------------------

// dag_smoke.scn runs a fan-out/fan-in pipeline under cp-aware dispatch;
// the checked-in window stream and deterministic run report pin the
// release telemetry (dag_* columns and the report's "dag" section) byte
// for byte.
TEST(DagGolden, SmokeScenarioWindowsAndReport) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "dag_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "dag_smoke.scn";
  const Scenario scenario = Scenario::parse(in);
  ASSERT_FALSE(scenario.dag.empty());

  const ScenarioContext context(scenario);
  // The CLI scenario path: the observed driver's stack, so the goldens
  // pin the lat_* columns and latency section.
  const CheckpointRunOutcome outcome =
      run_scenario_checkpointed(scenario, context, CheckpointRunOptions{});
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  ASSERT_TRUE(outcome.dag.has_value());
  EXPECT_GE(outcome.dag->releases, 1u);

  const std::string windows = outcome.jsonl();

  // The deterministic report the CLI emits for this run.
  RunReport report = observed_scenario_report(scenario, context, outcome);
  report.include_phases = false;
  const std::string report_json = run_report_to_json(report);
  EXPECT_NE(report_json.find("\"dag\": {"), std::string::npos);

  const std::string windows_path = dir + "dag_smoke.windows.jsonl";
  const std::string report_path = dir + "dag_smoke.report.json";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream windows_out(windows_path);
    windows_out << windows;
    ASSERT_TRUE(windows_out) << "cannot write " << windows_path;
    std::ofstream report_out(report_path);
    report_out << report_json;
    ASSERT_TRUE(report_out) << "cannot write " << report_path;
    GTEST_SKIP() << "dag goldens regenerated in " << dir;
  }

  auto slurp = [](const std::string& path) {
    std::ifstream golden(path);
    std::stringstream buffer;
    buffer << golden.rdbuf();
    return golden ? buffer.str() : std::string();
  };
  const std::string golden_windows = slurp(windows_path);
  ASSERT_FALSE(golden_windows.empty())
      << "missing golden " << windows_path
      << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  EXPECT_EQ(windows, golden_windows)
      << "dag window stream diverged; if intended, regenerate with "
         "HETSCHED_REGEN_GOLDEN=1 and commit";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty())
      << "missing golden " << report_path
      << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  EXPECT_EQ(report_json, golden_report)
      << "dag run report diverged; if intended, regenerate with "
         "HETSCHED_REGEN_GOLDEN=1 and commit";
}

}  // namespace
}  // namespace hetsched
