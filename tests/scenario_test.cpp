// Scenario engine: description-file round trips, streaming-vs-batch
// equivalence, schedule/energy property checks over randomised
// scenarios, sweep thread/shard invariance, and the golden end-to-end
// scenario (ctest label: integration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/schedule_log.hpp"
#include "drained_stream.hpp"
#include "experiment/experiment.hpp"
#include "experiment/sweep.hpp"
#include "obs/observability.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

// One suite build + one ANN training shared by every test in this file.
struct World {
  Scenario base;
  ScenarioContext context;
};

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "proposed";
    s.seed = 42;
    s.arrivals.count = 250;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    s.predictor_ensemble = 5;
    s.predictor_max_epochs = 120;
    return new World{s, ScenarioContext(s)};
  }();
  return *w;
}

void expect_same_result(const SimulationResult& a, const SimulationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.idle_energy.value(), b.idle_energy.value()) << what;
  EXPECT_EQ(a.dynamic_energy.value(), b.dynamic_energy.value()) << what;
  EXPECT_EQ(a.busy_static_energy.value(), b.busy_static_energy.value())
      << what;
  EXPECT_EQ(a.cpu_energy.value(), b.cpu_energy.value()) << what;
  EXPECT_EQ(a.reconfig_energy.value(), b.reconfig_energy.value()) << what;
  EXPECT_EQ(a.profiling_energy.value(), b.profiling_energy.value()) << what;
  EXPECT_EQ(a.tuning_energy.value(), b.tuning_energy.value()) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.total_execution_cycles, b.total_execution_cycles) << what;
  EXPECT_EQ(a.completed_jobs, b.completed_jobs) << what;
  EXPECT_EQ(a.stall_events, b.stall_events) << what;
  EXPECT_EQ(a.profiling_runs, b.profiling_runs) << what;
  EXPECT_EQ(a.tuning_runs, b.tuning_runs) << what;
  EXPECT_EQ(a.reconfigurations, b.reconfigurations) << what;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  EXPECT_EQ(a.jobs_with_deadline, b.jobs_with_deadline) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  EXPECT_EQ(a.total_response_cycles, b.total_response_cycles) << what;
  EXPECT_EQ(a.faults.injected, b.faults.injected) << what;
  ASSERT_EQ(a.per_core.size(), b.per_core.size()) << what;
  for (std::size_t core = 0; core < a.per_core.size(); ++core) {
    EXPECT_EQ(a.per_core[core].busy_cycles, b.per_core[core].busy_cycles)
        << what << " core " << core;
    EXPECT_EQ(a.per_core[core].executions, b.per_core[core].executions)
        << what << " core " << core;
  }
}

TEST(Scenario, SaveParseRoundTrip) {
  Scenario s;
  s.name = "round-trip";
  s.system = Scenario::SystemKind::kFixedBase;
  s.cores = 7;
  s.policy = "energy-centric";
  s.discipline = QueueDiscipline::kEdf;
  s.seed = 977;
  s.arrivals.count = 1234;
  s.arrivals.mean_interarrival_cycles = 41234.56789012345;
  s.arrivals.distribution = InterarrivalDistribution::kExponential;
  s.arrivals.burstiness = 2.5;
  s.arrivals.phase_switch = 0.07;
  s.suite.kernel_scale = 0.33;
  s.suite.variants_per_kernel = 3;
  s.suite.include_extended = true;
  s.predictor_ensemble = 9;
  s.predictor_max_epochs = 55;
  RealtimeOptions rt;
  rt.slack_factor = 1.75;
  rt.priority_levels = 4;
  s.realtime = rt;
  s.faults.reconfig_failure_rate = 0.125;
  s.faults.stuck_job_rate = 0.125;
  s.faults.counter_corruption_rate = 0.125;
  s.faults.seed = 9;
  CoreFaultEvent fail;
  fail.fail = true;
  fail.core = 2;
  fail.at = 100000;
  CoreFaultEvent recover = fail;
  recover.fail = false;
  recover.at = 400000;
  s.faults.core_events = {fail, recover};

  std::ostringstream first;
  s.save(first);
  std::istringstream in(first.str());
  const Scenario parsed = Scenario::parse(in);
  std::ostringstream second;
  parsed.save(second);
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(parsed.name, s.name);
  EXPECT_EQ(parsed.cores, s.cores);
  EXPECT_EQ(parsed.policy, s.policy);
  EXPECT_EQ(parsed.discipline, s.discipline);
  EXPECT_EQ(parsed.seed, s.seed);
  EXPECT_EQ(parsed.arrivals.count, s.arrivals.count);
  // precision(17) must round-trip doubles exactly.
  EXPECT_EQ(parsed.arrivals.mean_interarrival_cycles,
            s.arrivals.mean_interarrival_cycles);
  EXPECT_EQ(parsed.arrivals.burstiness, s.arrivals.burstiness);
  EXPECT_EQ(parsed.suite.kernel_scale, s.suite.kernel_scale);
  ASSERT_TRUE(parsed.realtime.has_value());
  EXPECT_EQ(parsed.realtime->slack_factor, rt.slack_factor);
  EXPECT_EQ(parsed.realtime->priority_levels, rt.priority_levels);
  EXPECT_EQ(parsed.faults.reconfig_failure_rate, 0.125);
  ASSERT_EQ(parsed.faults.core_events.size(), 2u);
  EXPECT_EQ(parsed.faults.core_events[1].at, recover.at);
}

TEST(Scenario, ParseRejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return Scenario::parse(in);
  };
  EXPECT_THROW(parse("bogus 1\n"), std::runtime_error);
  EXPECT_THROW(parse("cores 0\n"), std::runtime_error);
  EXPECT_THROW(parse("cores 4 garbage\n"), std::runtime_error);
  EXPECT_THROW(parse("policy sched-o-matic\n"), std::runtime_error);
  // Validation failures surface as parse errors too.
  EXPECT_THROW(parse("system paper\ncores 6\n"), std::runtime_error);
  EXPECT_THROW(parse("cores 4\nfail 9 1000\n"), std::runtime_error);
  // A count past its field's range is a parse error on its line, not a
  // truncated value (4294967297 would read as 1 level).
  for (const char* levels : {"2147483648", "4294967297"}) {
    try {
      parse(std::string("name x\npriority-levels ") + levels + "\n");
      ADD_FAILURE() << "priority-levels " << levels << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("scenario line 2"),
                std::string::npos)
          << e.what();
    }
  }
  // Comments and blank lines are fine.
  EXPECT_NO_THROW(parse("# comment\n\nname ok # trailing comment\n"));
}

// Structural dep errors are attributed to the offending source line;
// arity errors fire immediately on their own line.
TEST(Scenario, ParseRejectsBadDepEdgesWithLineNumbers) {
  auto parse_error = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)Scenario::parse(in);
      return std::string("(no error)");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };

  // Missing successor index: rejected at line 3.
  EXPECT_NE(parse_error("name x\njobs 4\ndep 0\n").find("scenario line 3"),
            std::string::npos);
  // Out-of-range job id (jobs run 0..3): line 4.
  {
    const std::string what = parse_error("name x\njobs 4\ndep 0 1\ndep 2 9\n");
    EXPECT_NE(what.find("scenario line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  // Self dependency (one job id repeated in an edge): line 3.
  {
    const std::string what = parse_error("name x\njobs 4\ndep 3 3\n");
    EXPECT_NE(what.find("scenario line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("repeats job 3"), std::string::npos) << what;
  }
  // Duplicate edge: blamed on the second copy, line 5.
  {
    const std::string what =
        parse_error("name x\njobs 4\ndep 0 1\ndep 1 2\ndep 0 1\n");
    EXPECT_NE(what.find("scenario line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate dep 0 -> 1"), std::string::npos) << what;
  }
  // Cycle: blamed on an edge of the cycle, with the job named.
  {
    const std::string what =
        parse_error("name x\njobs 4\ndep 0 1\ndep 1 2\ndep 2 0\n");
    EXPECT_NE(what.find("scenario line"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
  }
  // A well-formed DAG parses.
  EXPECT_NO_THROW(parse_error("name x\njobs 4\ndep 0 1\ndep 0 2\ndep 1 3\n"));
}

TEST(Scenario, DepEdgesSurviveSaveParseRoundTrip) {
  Scenario s;
  s.name = "dag-round-trip";
  s.arrivals.count = 5;
  s.dag.edges = {{0, 2}, {1, 2}, {2, 4}, {3, 4}};

  std::ostringstream first;
  s.save(first);
  EXPECT_NE(first.str().find("dep 0 2"), std::string::npos);
  std::istringstream in(first.str());
  const Scenario parsed = Scenario::parse(in);
  ASSERT_EQ(parsed.dag.edges.size(), s.dag.edges.size());
  for (std::size_t i = 0; i < s.dag.edges.size(); ++i) {
    EXPECT_EQ(parsed.dag.edges[i].from, s.dag.edges[i].from) << i;
    EXPECT_EQ(parsed.dag.edges[i].to, s.dag.edges[i].to) << i;
  }
  std::ostringstream second;
  parsed.save(second);
  EXPECT_EQ(first.str(), second.str());
}

void expect_well_formed_stream(const ArrivalOptions& options,
                               std::uint64_t seed) {
  const std::vector<std::size_t> ids = {0, 1, 2, 5, 9};
  GeneratedArrivalStream stream(ids, options, seed);
  const std::vector<JobArrival> streamed = drain(stream);
  EXPECT_FALSE(stream.next().has_value());  // exhaustion is sticky

  ASSERT_EQ(streamed.size(), options.count);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), streamed[i].benchmark_id),
              ids.end())
        << i;
    if (i > 0) {
      EXPECT_GE(streamed[i].arrival, streamed[i - 1].arrival) << i;
    }
  }
}

TEST(ArrivalStream, MatchesBatchGenerationBitForBit) {
  ArrivalOptions options;
  options.count = 500;
  options.mean_interarrival_cycles = 30000.0;
  for (const InterarrivalDistribution dist :
       {InterarrivalDistribution::kUniform,
        InterarrivalDistribution::kExponential,
        InterarrivalDistribution::kFixed}) {
    options.distribution = dist;
    options.burstiness = 1.0;
    expect_well_formed_stream(options, 42);
    options.burstiness = 3.0;
    options.phase_switch = 0.1;
    expect_well_formed_stream(options, 1234567);
  }
}

TEST(ArrivalStream, RealtimeAttributesMatchBatchAssignment) {
  const std::vector<std::size_t> ids = {0, 1, 2, 5, 9};
  ArrivalOptions options;
  options.count = 300;
  options.mean_interarrival_cycles = 25000.0;
  std::vector<Cycles> reference(10, 0);
  for (std::size_t id = 0; id < reference.size(); ++id) {
    reference[id] = 10000 + 1000 * id;
  }
  RealtimeOptions rt;
  rt.slack_factor = 2.5;
  rt.priority_levels = 3;

  // Priorities come from their own stream: the arrival draws are the
  // best-effort stream's.
  const std::vector<JobArrival> plain = generated_arrivals(ids, options, 7);
  GeneratedArrivalStream stream(ids, options, 7);
  stream.set_realtime(reference, rt, 99);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const std::optional<JobArrival> next = stream.next();
    ASSERT_TRUE(next.has_value()) << i;
    EXPECT_EQ(next->arrival, plain[i].arrival) << i;
    EXPECT_EQ(next->benchmark_id, plain[i].benchmark_id) << i;
    ASSERT_TRUE(next->deadline.has_value()) << i;
    EXPECT_EQ(*next->deadline,
              next->arrival + static_cast<SimTime>(std::llround(
                                  rt.slack_factor *
                                  static_cast<double>(
                                      reference[next->benchmark_id]))))
        << i;
    EXPECT_GE(next->priority, 0) << i;
    EXPECT_LT(next->priority, rt.priority_levels) << i;
  }
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ScenarioRunner, StreamingRunMatchesBatchRun) {
  World& w = world();
  const Scenario& s = w.base;

  // Batch reference: materialise the whole stream, run via run(vector).
  ProposedPolicy policy(*w.context.predictor());
  MulticoreSimulator simulator(s.make_system(), w.context.suite(),
                               w.context.energy(), policy, s.discipline);
  StreamStats batch_stats(s.cores);
  simulator.set_observer(&batch_stats);
  const SimulationResult batch = simulator.run(generated_arrivals(
      w.context.scheduling_ids(), s.arrivals, s.seed ^ 0xa5a5a5a5ULL));

  const ScenarioOutcome streamed = run_scenario(s, w.context);
  expect_same_result(batch, streamed.result, "stream-vs-batch");
  EXPECT_EQ(batch_stats.digest(), streamed.stream.digest());
  EXPECT_EQ(streamed.stream.invariant_violations(), 0u);
}

TEST(ScenarioRunner, RandomScenarioInvariants) {
  World& w = world();
  const std::vector<std::string> policies = {"base", "optimal", "proposed",
                                             "energy-centric"};
  const InterarrivalDistribution distributions[] = {
      InterarrivalDistribution::kUniform,
      InterarrivalDistribution::kExponential,
      InterarrivalDistribution::kFixed};
  Rng rng(20260807);
  for (int i = 0; i < 6; ++i) {
    Scenario s = w.base;
    s.name = "prop" + std::to_string(i);
    s.cores = 2 + static_cast<std::size_t>(rng.below(9));  // 2..10
    s.policy = policies[rng.below(policies.size())];
    s.system = s.policy == "base"
                   ? Scenario::SystemKind::kFixedBase
                   : Scenario::SystemKind::kScaledHeterogeneous;
    s.seed = rng.next();
    s.arrivals.count = 150 + static_cast<std::size_t>(rng.below(200));
    s.arrivals.mean_interarrival_cycles = rng.uniform(20000.0, 80000.0);
    s.arrivals.distribution = distributions[rng.below(3)];
    s.arrivals.burstiness = rng.uniform(1.0, 4.0);
    s.arrivals.phase_switch = rng.uniform(0.0, 0.2);

    const ScenarioOutcome outcome = run_scenario(s, w.context);
    const StreamStats& stream = outcome.stream;
    const SimulationResult& result = outcome.result;

    // No core ever runs two jobs at once (and every slice is well
    // formed): the incremental checker saw nothing.
    EXPECT_EQ(stream.invariant_violations(), 0u) << s.name;
    // Every admitted job completes in a fault-free scenario, each with
    // exactly one completing slice.
    EXPECT_EQ(result.completed_jobs, s.arrivals.count) << s.name;
    EXPECT_EQ(stream.completed_slices(), result.completed_jobs) << s.name;

    // Per-core cycle accounting closes: the compacted aggregates agree
    // with the simulator's own books, and with no faults (hence no
    // retry backoff) every online core is either busy or idle for the
    // whole run.
    ASSERT_EQ(stream.per_core().size(), s.cores) << s.name;
    ASSERT_EQ(result.per_core.size(), s.cores) << s.name;
    Cycles busy_total = 0;
    for (std::size_t core = 0; core < s.cores; ++core) {
      const StreamStats::CoreAggregate& agg = stream.per_core()[core];
      EXPECT_EQ(agg.busy_cycles, result.per_core[core].busy_cycles)
          << s.name << " core " << core;
      EXPECT_EQ(agg.busy_cycles + agg.idle_cycles, result.makespan)
          << s.name << " core " << core;
      busy_total += agg.busy_cycles;
    }
    EXPECT_EQ(busy_total, result.total_execution_cycles) << s.name;
    EXPECT_EQ(stream.busy_cycles(), result.total_execution_cycles) << s.name;
  }
}

// Every observer callback as kind@time/where, in delivery order.
class EventLog final : public ScheduleObserver {
 public:
  std::vector<std::string> events;

  void on_slice(const ScheduledSlice& e) override {
    add("slice", e.end, e.core);
  }
  void on_fault(const FaultRecord& e) override { add("fault", e.time, 0); }
  void on_arrival(const ArrivalEvent& e) override {
    add("arrival", e.time, 0);
  }
  void on_dispatch(const DispatchEvent& e) override {
    add("dispatch", e.time, e.core);
  }
  void on_reconfig(const ReconfigEvent& e) override {
    add("reconfig", e.time, e.core);
  }
  void on_idle(const IdleEvent& e) override { add("idle", e.to, e.core); }
  void on_preempt(const PreemptEvent& e) override {
    add("preempt", e.time, e.core);
  }
  void on_stall(const StallEvent& e) override { add("stall", e.time, 0); }
  void on_queue_depth(const QueueSample& e) override {
    add("queue", e.time, 0);
  }
  void on_dag_release(const DagReleaseEvent& e) override {
    add("release", e.time, e.node);
  }

 private:
  void add(const char* kind, SimTime time, std::size_t where) {
    events.push_back(std::string(kind) + "@" + std::to_string(time) + "/" +
                     std::to_string(where));
  }
};

// kRaw drops only the internal StreamStats: the caller's observer sees
// exactly what it sees in an observed run, DAG releases included.
TEST(ScenarioRunner, RawRunDeliversTheObservedEventsToItsObserver) {
  World& w = world();
  Scenario chains = w.base;
  chains.name = "chains";
  for (std::size_t job = 0; job + 1 < 60; job += 2) {
    chains.dag.edges.push_back({job, job + 1});
  }
  for (const Scenario* s : {&w.base, &chains}) {
    EventLog observed_log;
    EventLog raw_log;
    ScenarioRun observed(*s, w.context, &observed_log);
    ScenarioRun raw(*s, w.context, &raw_log,
                    ScenarioRun::ObserverMode::kRaw);
    for (ScenarioRun* run : {&observed, &raw}) {
      run->start();
      run->advance_until(std::numeric_limits<SimTime>::max());
      run->finish();
    }
    EXPECT_FALSE(observed_log.events.empty()) << s->name;
    EXPECT_EQ(raw_log.events, observed_log.events) << s->name;
    const auto releases = std::count_if(
        raw_log.events.begin(), raw_log.events.end(),
        [](const std::string& e) { return e.rfind("release@", 0) == 0; });
    EXPECT_EQ(static_cast<std::size_t>(releases), s->dag.edges.size())
        << s->name;
    EXPECT_GT(observed.stats().slices(), 0u) << s->name;
    EXPECT_EQ(raw.stats().slices(), 0u) << s->name;
    EXPECT_EQ(raw.stats().dispatches(), 0u) << s->name;
    EXPECT_EQ(raw.stats().digest(), StreamStats(s->cores).digest())
        << s->name;
  }
}

TEST(ScenarioRunner, EnergyMatchesPerSliceRecomputation) {
  World& w = world();
  const Scenario& s = w.base;

  ProposedPolicy policy(*w.context.predictor());
  MulticoreSimulator simulator(s.make_system(), w.context.suite(),
                               w.context.energy(), policy, s.discipline);
  ScheduleLog log;
  simulator.set_observer(&log);
  const SimulationResult result = simulator.run(generated_arrivals(
      w.context.scheduling_ids(), s.arrivals, s.seed ^ 0xa5a5a5a5ULL));
  ASSERT_TRUE(log.well_formed());
  ASSERT_FALSE(log.slices().empty());

  // Replay the simulator's settlement arithmetic per retained slice, in
  // slice order: portion = slice cycles / characterised total cycles,
  // energy = characterised bucket * portion. Same operands, same
  // accumulation order => the totals must match bit for bit.
  NanoJoules dynamic, busy_static, cpu;
  for (const ScheduledSlice& slice : log.slices()) {
    const ConfigProfile& cp = w.context.suite()
                                  .benchmark(slice.benchmark_id)
                                  .profile_for(slice.config);
    const double portion = static_cast<double>(slice.end - slice.start) /
                           static_cast<double>(cp.energy.total_cycles);
    dynamic += cp.energy.dynamic_energy * portion;
    busy_static += cp.energy.static_energy * portion;
    cpu += cp.energy.cpu_energy * portion;
  }
  EXPECT_EQ(dynamic.value(), result.dynamic_energy.value());
  EXPECT_EQ(busy_static.value(), result.busy_static_energy.value());
  EXPECT_EQ(cpu.value(), result.cpu_energy.value());
}

TEST(Sweep, ResultsAreThreadAndShardInvariant) {
  World& w = world();
  SweepGrid grid;
  grid.base = w.base;
  grid.base.arrivals.count = 120;
  grid.core_counts = {2, 4};
  grid.mean_gaps = {30000.0, 60000.0};
  grid.policies = {"base", "proposed"};

  const auto snapshot = [&](std::size_t threads, std::size_t shards) {
    ThreadPool pool(threads);
    const SupervisedSweepResult sweep = run_sweep_supervised(
        grid, w.context, shards, pool, SweepSupervisorOptions{});
    EXPECT_TRUE(sweep.failed.empty());
    MetricsRegistry metrics;
    record_sweep_metrics(metrics, "sweep.", sweep.cells);
    std::ostringstream json;
    metrics.write_json(json);
    return json.str();
  };

  // The merged grid must be byte-identical for every (thread count,
  // shard count) combination — the scale-out contract of the sweep.
  const std::string reference = snapshot(1, 1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(reference, snapshot(4, 2));
  EXPECT_EQ(reference, snapshot(8, 8));
  EXPECT_EQ(reference, snapshot(2, grid.cell_count()));
}

TEST(Scenario, GoldenStreamingSmokeScenario) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "streaming_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "streaming_smoke.scn";
  const Scenario scenario = Scenario::parse(in);
  EXPECT_EQ(scenario.name, "streaming-smoke");
  EXPECT_EQ(scenario.cores, 6u);

  const ScenarioContext context(scenario);
  const ScenarioOutcome outcome = run_scenario(scenario, context);
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  MetricsRegistry metrics;
  record_scenario_metrics(metrics, scenario.name + ".", outcome);
  std::ostringstream json;
  metrics.write_json(json);

  const std::string golden_path = dir + "streaming_smoke.metrics.json";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << json.str();
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path;
  }
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing golden snapshot " << golden_path
                         << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(json.str(), golden.str())
      << "metrics diverged from the checked-in snapshot; if the change "
         "is intended, regenerate with HETSCHED_REGEN_GOLDEN=1 and "
         "commit the new snapshot";
}

// Regression for the latent 4-core assumptions the scenario work
// removed: the Experiment harness itself must run end-to-end on a
// non-paper core count.
TEST(ExperimentCoreCount, SixCoreSystemsRunAllPolicies) {
  ExperimentOptions options = ExperimentOptions::quick();
  options.scenario.suite.variants_per_kernel = 1;
  options.scenario.arrivals.count = 150;
  options.scenario.cores = 6;
  const Experiment experiment(options);

  for (const SystemRun& run :
       {experiment.run("base"), experiment.run("optimal"),
        experiment.run("proposed")}) {
    EXPECT_EQ(run.result.per_core.size(), 6u) << run.name;
    EXPECT_EQ(run.result.completed_jobs, 150u) << run.name;
  }
}

}  // namespace
}  // namespace hetsched
