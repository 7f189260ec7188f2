// Policy registry + portfolio meta-scheduler suite (ctest label:
// portfolio).
//
// Covers the registry's name-addressable construction (fixed order,
// portfolio:... spec parsing, predictor/suite requirements), the
// PortfolioPolicy determinism contract — a single-contender portfolio is
// byte-identical to running that contender directly, the selection
// sequence is invariant across HETSCHED_THREADS and between streaming
// and batch execution, and checkpoint kill-and-resume rebuilds the full
// selector state — plus the golden portfolio_smoke scenario whose
// checked-in window stream and run report pin at least one mid-run
// policy switch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/portfolio_policy.hpp"
#include "core/simulator.hpp"
#include "drained_stream.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/arrivals.hpp"

namespace hetsched {
namespace {

// One cheap suite shared by every test below: the portfolio roster
// avoids ANN contenders, so the context never trains a predictor.
struct World {
  Scenario base;
  ScenarioContext context;
};

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "portfolio-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 6;
    s.policy = "portfolio:optimal+sjf+energy-greedy+random";
    s.seed = 42;
    s.arrivals.count = 400;
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

// --- Registry ------------------------------------------------------------

TEST(PolicyRegistryTest, NamesKeepRegistrationOrder) {
  const std::vector<std::string> expected = {
      "base",     "optimal",       "energy-centric", "proposed", "realtime",
      "sjf",      "energy-greedy", "random",         "oracle",   "cp-aware"};
  EXPECT_EQ(PolicyRegistry::instance().names(), expected);
}

TEST(PolicyRegistryTest, KnownCoversBaseNamesAndPortfolioSpecs) {
  const PolicyRegistry& r = PolicyRegistry::instance();
  EXPECT_TRUE(r.known("proposed"));
  EXPECT_TRUE(r.known("oracle"));
  EXPECT_TRUE(r.known("portfolio:optimal+sjf"));
  EXPECT_TRUE(r.known("portfolio:optimal+sjf@250000"));
  EXPECT_FALSE(r.known(""));
  EXPECT_FALSE(r.known("propsed"));
  EXPECT_FALSE(r.known("portfolio:"));
  EXPECT_FALSE(r.known("portfolio:optimal+"));
  EXPECT_FALSE(r.known("portfolio:optimal+no-such-policy"));
  EXPECT_FALSE(r.known("portfolio:optimal+optimal"));  // duplicate
  EXPECT_FALSE(r.known("portfolio:optimal@"));         // empty window
  EXPECT_FALSE(r.known("portfolio:optimal@0"));        // zero window
  EXPECT_FALSE(r.known("portfolio:optimal@12x"));      // trailing garbage
  EXPECT_FALSE(r.known("portfolio:portfolio:optimal+sjf"));  // no nesting
}

TEST(PolicyRegistryTest, NeedsPredictorFollowsTheContenders) {
  const PolicyRegistry& r = PolicyRegistry::instance();
  EXPECT_TRUE(r.needs_predictor("proposed"));
  EXPECT_TRUE(r.needs_predictor("realtime"));
  EXPECT_TRUE(r.needs_predictor("cp-aware"));
  EXPECT_FALSE(r.needs_predictor("sjf"));
  EXPECT_FALSE(r.needs_predictor("oracle"));
  EXPECT_TRUE(r.needs_predictor("portfolio:sjf+proposed"));
  EXPECT_FALSE(r.needs_predictor("portfolio:optimal+sjf+random"));
  EXPECT_FALSE(r.needs_predictor("no-such-policy"));
}

TEST(PolicyRegistryTest, ParsePortfolioExtractsRosterAndWindow) {
  const PolicyRegistry& r = PolicyRegistry::instance();
  const auto spec =
      r.parse_portfolio("portfolio:optimal+sjf+energy-greedy@250000");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->contenders, (std::vector<std::string>{
                                  "optimal", "sjf", "energy-greedy"}));
  EXPECT_EQ(spec->window_cycles, 250000u);

  const auto defaulted = r.parse_portfolio("portfolio:base+random");
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->window_cycles, PortfolioPolicy::kDefaultWindowCycles);

  EXPECT_FALSE(r.parse_portfolio("optimal").has_value());
}

TEST(PolicyRegistryTest, MakeBuildsNamedPoliciesAndPortfolios) {
  World& w = world();
  const PolicyContext ctx{nullptr, &w.context.suite(), 42};
  const PolicyRegistry& r = PolicyRegistry::instance();
  EXPECT_EQ(r.make("base", ctx)->name(), "base");
  EXPECT_EQ(r.make("optimal", ctx)->name(), "optimal");
  EXPECT_EQ(r.make("sjf", ctx)->name(), "sjf");
  EXPECT_EQ(r.make("energy-greedy", ctx)->name(), "energy-greedy");
  EXPECT_EQ(r.make("random", ctx)->name(), "random");
  EXPECT_EQ(r.make("oracle", ctx)->name(), "oracle");
  EXPECT_EQ(r.make("portfolio:optimal+sjf", ctx)->name(), "portfolio");
}

TEST(PolicyRegistryTest, ScenarioParserRejectsUnknownPolicyWithHelp) {
  std::istringstream in(
      "name bad\nsystem scaled\ncores 4\npolicy no-such-policy\n");
  try {
    (void)Scenario::parse(in);
    FAIL() << "expected the parser to reject the policy";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("policy must be one of"),
              std::string::npos);
  }

  Scenario s = world().base;
  s.policy = "portfolio:optimal+optimal";
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// --- Determinism properties ----------------------------------------------

// A portfolio with one contender never switches and must reproduce that
// contender's run bit for bit: digest, serialized result, and windows.
TEST(PortfolioDeterminism, SingleContenderPortfolioMatchesThePolicyItself) {
  World& w = world();
  Scenario direct = w.base;
  direct.policy = "optimal";
  Scenario wrapped = w.base;
  wrapped.policy = "portfolio:optimal";

  auto run_with_windows = [&](const Scenario& s) {
    WindowedCollector collector(s.make_system().core_count(),
                                WindowedOptions{1'000'000, 0},
                                &w.context.suite());
    ScenarioOutcome outcome = run_scenario(s, w.context, &collector);
    collector.finalize();
    return std::make_pair(std::move(outcome), windows_text(collector));
  };
  const auto [direct_outcome, direct_windows] = run_with_windows(direct);
  const auto [wrapped_outcome, wrapped_windows] = run_with_windows(wrapped);

  EXPECT_EQ(wrapped_outcome.stream.digest(), direct_outcome.stream.digest());
  EXPECT_EQ(result_text(wrapped_outcome.result),
            result_text(direct_outcome.result));
  EXPECT_EQ(wrapped_windows, direct_windows);

  EXPECT_FALSE(direct_outcome.portfolio.has_value());
  ASSERT_TRUE(wrapped_outcome.portfolio.has_value());
  const PortfolioStats& stats = *wrapped_outcome.portfolio;
  EXPECT_EQ(stats.contenders, std::vector<std::string>{"optimal"});
  EXPECT_TRUE(stats.switches.empty());
  EXPECT_EQ(stats.active, "optimal");
  ASSERT_EQ(stats.windows_active.size(), 1u);
  EXPECT_EQ(stats.windows_active[0], stats.windows_closed);
}

// The fixture portfolio must actually exercise mid-run switching — the
// rest of the suite rides on that.
TEST(PortfolioDeterminism, FixtureSwitchesPoliciesMidRun) {
  World& w = world();
  const ScenarioOutcome outcome = run_scenario(w.base, w.context);
  ASSERT_TRUE(outcome.portfolio.has_value());
  EXPECT_GE(outcome.portfolio->switches.size(), 1u);
  EXPECT_GE(outcome.portfolio->windows_closed, 4u);
}

TEST(PortfolioDeterminism, SelectionSequenceInvariantAcrossThreadCounts) {
  World& w = world();
  auto run_at = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    WindowedCollector collector(w.base.make_system().core_count(),
                                WindowedOptions{1'000'000, 0},
                                &w.context.suite());
    ScenarioOutcome outcome = run_scenario(w.base, w.context, &collector);
    collector.finalize();
    EXPECT_TRUE(outcome.portfolio.has_value());
    return windows_text(collector) +
           portfolio_switch_jsonl(*outcome.portfolio) + "digest " +
           std::to_string(outcome.stream.digest());
  };
  const std::string at1 = run_at(1);
  const std::string at3 = run_at(3);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, at3);
}

TEST(PortfolioDeterminism, StreamAndBatchAgreeIncludingSwitchEvents) {
  World& w = world();
  const Scenario& s = w.base;

  // Batch: materialise the arrivals, run via run(vector), with the
  // policy built through the registry exactly as the streaming driver
  // builds it.
  const PolicyContext ctx{w.context.predictor(), &w.context.suite(),
                          s.seed};
  std::unique_ptr<SchedulerPolicy> policy =
      PolicyRegistry::instance().make(s.policy, ctx);
  MulticoreSimulator simulator(s.make_system(), w.context.suite(),
                               w.context.energy(), *policy, s.discipline);
  WindowedCollector batch_collector(s.make_system().core_count(),
                                    WindowedOptions{1'000'000, 0},
                                    &w.context.suite());
  simulator.set_observer(&batch_collector);
  const SimulationResult batch = simulator.run(generated_arrivals(
      w.context.scheduling_ids(), s.arrivals, s.seed ^ 0xa5a5a5a5ULL));
  batch_collector.finalize();
  const auto* batch_portfolio =
      dynamic_cast<const PortfolioPolicy*>(policy.get());
  ASSERT_NE(batch_portfolio, nullptr);

  WindowedCollector stream_collector(s.make_system().core_count(),
                                     WindowedOptions{1'000'000, 0},
                                     &w.context.suite());
  const ScenarioOutcome streamed =
      run_scenario(s, w.context, &stream_collector);
  stream_collector.finalize();
  ASSERT_TRUE(streamed.portfolio.has_value());

  EXPECT_EQ(batch.completed_jobs, streamed.result.completed_jobs);
  EXPECT_EQ(result_text(batch), result_text(streamed.result));
  EXPECT_EQ(windows_text(batch_collector), windows_text(stream_collector));
  EXPECT_EQ(portfolio_switch_jsonl(batch_portfolio->stats()),
            portfolio_switch_jsonl(*streamed.portfolio));
  EXPECT_EQ(batch_portfolio->stats().windows_active,
            streamed.portfolio->windows_active);
}

// Checkpoint kill-and-resume must rebuild the whole selector state —
// scores, window cursor, switch history, and the seeded contender Rng —
// so the resumed run's outputs and final stats match the uninterrupted
// run byte for byte.
TEST(PortfolioDeterminism, CheckpointKillAndResumeRebuildsSelectorState) {
  World& w = world();
  CheckpointRunOptions options;
  options.window_cycles = 1'000'000;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  const CheckpointRunOutcome full =
      run_scenario_checkpointed(w.base, w.context, options);
  ASSERT_FALSE(full.halted);
  ASSERT_TRUE(full.portfolio.has_value());
  EXPECT_GE(full.portfolio->switches.size(), 1u);
  ASSERT_GE(checkpoints.size(), 3u);

  const std::string ref_result = result_text(full.result);
  const std::string ref_windows = windows_text(full.windows);
  const std::string ref_switches = portfolio_switch_jsonl(*full.portfolio);

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    CheckpointRunOptions resume;
    resume.window_cycles = options.window_cycles;
    resume.checkpoint_every = options.checkpoint_every;
    resume.resume_text = checkpoints[k];
    const CheckpointRunOutcome resumed =
        run_scenario_checkpointed(w.base, w.context, resume);
    ASSERT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.resumed_from, k + 1);
    EXPECT_EQ(resumed.stream.digest(), full.stream.digest())
        << "boundary " << k + 1;
    EXPECT_EQ(result_text(resumed.result), ref_result)
        << "boundary " << k + 1;
    EXPECT_EQ(windows_text(resumed.windows), ref_windows)
        << "boundary " << k + 1;
    ASSERT_TRUE(resumed.portfolio.has_value());
    EXPECT_EQ(portfolio_switch_jsonl(*resumed.portfolio), ref_switches)
        << "boundary " << k + 1;
    EXPECT_EQ(resumed.portfolio->windows_active,
              full.portfolio->windows_active);
    EXPECT_EQ(resumed.portfolio->windows_scored,
              full.portfolio->windows_scored);
    EXPECT_EQ(resumed.portfolio->active, full.portfolio->active);
  }
}

TEST(PortfolioState, RestoreRejectsGarbageAndRosterMismatch) {
  World& w = world();
  const PolicyContext ctx{nullptr, &w.context.suite(), 42};
  const PolicyRegistry& r = PolicyRegistry::instance();

  std::unique_ptr<SchedulerPolicy> saved =
      r.make("portfolio:optimal+sjf", ctx);
  std::ostringstream out;
  saved->save_state(out);

  // Same roster: restores cleanly.
  std::unique_ptr<SchedulerPolicy> same =
      r.make("portfolio:optimal+sjf", ctx);
  std::istringstream ok(out.str());
  same->restore_state(ok, "test");

  // Different roster labels: rejected.
  std::unique_ptr<SchedulerPolicy> other =
      r.make("portfolio:optimal+random", ctx);
  std::istringstream mismatched(out.str());
  EXPECT_THROW(other->restore_state(mismatched, "test"),
               std::runtime_error);

  // Garbage: rejected.
  std::unique_ptr<SchedulerPolicy> fresh =
      r.make("portfolio:optimal+sjf", ctx);
  std::istringstream garbage("definitely not policy state");
  EXPECT_THROW(fresh->restore_state(garbage, "test"), std::runtime_error);
}

// --- Golden scenario -----------------------------------------------------

// portfolio_smoke.scn runs a four-contender portfolio; the checked-in
// window stream (windows + switch events) and deterministic run report
// pin the selector's behaviour, including at least one mid-run switch.
TEST(PortfolioGolden, SmokeScenarioWindowsAndReport) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "portfolio_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "portfolio_smoke.scn";
  const Scenario scenario = Scenario::parse(in);

  const ScenarioContext context(scenario);
  // The CLI scenario path: the observed driver's stack, so the goldens
  // pin the lat_* columns and latency section.
  const CheckpointRunOutcome outcome =
      run_scenario_checkpointed(scenario, context, CheckpointRunOptions{});
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  ASSERT_TRUE(outcome.portfolio.has_value());
  EXPECT_GE(outcome.portfolio->switches.size(), 1u);

  const std::string windows = outcome.jsonl(outcome.portfolio);
  EXPECT_NE(windows.find("\"event\":\"policy_switch\""), std::string::npos);

  // The deterministic report the CLI emits for this run.
  RunReport report = observed_scenario_report(scenario, context, outcome);
  report.include_phases = false;
  const std::string report_json = run_report_to_json(report);

  const std::string windows_path = dir + "portfolio_smoke.windows.jsonl";
  const std::string report_path = dir + "portfolio_smoke.report.json";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream windows_out(windows_path);
    windows_out << windows;
    ASSERT_TRUE(windows_out) << "cannot write " << windows_path;
    std::ofstream report_out(report_path);
    report_out << report_json;
    ASSERT_TRUE(report_out) << "cannot write " << report_path;
    GTEST_SKIP() << "portfolio goldens regenerated in " << dir;
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
      << "portfolio window/switch stream diverged; if intended, "
         "regenerate with HETSCHED_REGEN_GOLDEN=1 and commit";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty())
      << "missing golden " << report_path
      << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  EXPECT_EQ(report_json, golden_report)
      << "portfolio run report diverged; if intended, regenerate with "
         "HETSCHED_REGEN_GOLDEN=1 and commit";
}

}  // namespace
}  // namespace hetsched
