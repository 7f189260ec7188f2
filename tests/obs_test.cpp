// Tests for the observability layer (src/obs): metrics-registry
// semantics and JSON snapshots, tracer/simulator consistency, the
// headline determinism contract — trace and metrics output is
// byte-identical for every HETSCHED_THREADS value — and the Chrome trace
// bytes of every event kind, pinned in tests/golden/chrome_trace.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "obs/observability.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
namespace {

TEST(MetricsRegistryTest, JsonKeysFollowRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("zeta").add(3);
  registry.counter("alpha");
  registry.gauge("mid").set(1.5);
  const std::string json = registry.to_json();
  // "zeta" registered first must precede "alpha" despite sorting last.
  EXPECT_LT(json.find("\"zeta\""), json.find("\"alpha\""));
  EXPECT_EQ(json, registry.to_json());  // snapshots are stable
}

TEST(MetricsRegistryTest, ReRegistrationReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hits");
  a.add(2);
  Counter& b = registry.counter("hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 2u);
  Gauge& g = registry.gauge("level");
  g.set(4.25);
  EXPECT_EQ(&registry.gauge("level"), &g);
  FixedHistogram& h = registry.histogram("lat", 0.0, 10.0, 5);
  EXPECT_EQ(&registry.histogram("lat", 0.0, 10.0, 5), &h);
}

TEST(MetricsRegistryTest, KindMismatchDies) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_DEATH(registry.gauge("x"), "precondition");
  registry.histogram("h", 0.0, 1.0, 4);
  EXPECT_DEATH(registry.histogram("h", 0.0, 2.0, 4), "precondition");
}

TEST(MetricsRegistryTest, SnapshotValues) {
  MetricsRegistry registry;
  registry.counter("jobs").add(7);
  registry.gauge("energy_mj").set(2.5);
  FixedHistogram& h = registry.histogram("cycles", 0.0, 100.0, 4);
  h.record(-1.0);   // underflow
  h.record(10.0);   // bucket 0
  h.record(99.0);   // bucket 3
  h.record(100.0);  // overflow (range is [lo, hi))
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"jobs\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"energy_mj\": 2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"underflow\": 1"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(EventTracerTest, CountersMatchSimulationResult) {
  ExperimentOptions options = ExperimentOptions::quick();
  options.scenario.arrivals.count = 200;
  Experiment experiment(options);

  MetricsRegistry metrics;
  EventTracer tracer(&metrics);
  const SystemRun run = experiment.run("proposed", &tracer);

  EXPECT_EQ(metrics.counter("sim.dispatches").value(),
            run.result.completed_jobs);
  EXPECT_EQ(metrics.counter("sim.completed_slices").value(),
            run.result.completed_jobs);
  EXPECT_EQ(metrics.counter("sim.preemptions").value(),
            run.result.preemptions);
  EXPECT_EQ(metrics.counter("sim.reconfig_attempts").value(),
            run.result.reconfigurations);
  EXPECT_EQ(metrics.counter("sim.reconfig_failures").value(), 0u);
  EXPECT_FALSE(tracer.events().empty());
  // Every slice span stays within the makespan.
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_LE(e.ts + e.dur, run.result.makespan);
  }
}

TEST(EventTracerTest, ObserverDoesNotPerturbSimulation) {
  ExperimentOptions options = ExperimentOptions::quick();
  options.scenario.arrivals.count = 150;
  Experiment experiment(options);

  const SystemRun bare = experiment.run("proposed");
  MetricsRegistry metrics;
  EventTracer tracer(&metrics);
  const SystemRun traced = experiment.run("proposed", &tracer);

  EXPECT_EQ(bare.result.makespan, traced.result.makespan);
  EXPECT_EQ(bare.result.completed_jobs, traced.result.completed_jobs);
  EXPECT_EQ(bare.result.total_energy().value(),
            traced.result.total_energy().value());
}

// The headline contract: one full observed run — profile-cache path,
// suite build over the pool, four simulated systems, merged trace and
// metrics snapshot — produces byte-identical JSON for every thread
// count.
std::pair<std::string, std::string> observed_run(std::size_t threads) {
  ThreadPool::set_global_threads(threads);

  const std::string cache_path =
      "obs_determinism_" + std::to_string(threads) + ".profile";
  std::remove(cache_path.c_str());

  MetricsRegistry metrics;
  EventTracer runtime;
  ProbeRecorder recorder(metrics, &runtime);
  ScopedProbe probe(&recorder);

  ExperimentOptions options = ExperimentOptions::quick();
  options.scenario.arrivals.count = 120;
  options.profile_cache_path = cache_path;
  Experiment experiment(options);

  // Four per-system tracers, registered serially before the fan-out.
  const char* names[4] = {"base", "optimal", "energy-centric", "proposed"};
  std::vector<EventTracer> tracers;
  tracers.reserve(4);
  for (const char* name : names) {
    tracers.emplace_back(&metrics, std::string(name) + ".sim.");
  }
  const Experiment::StandardRuns runs = experiment.run_standard_systems(
      {&tracers[0], &tracers[1], &tracers[2], &tracers[3]});

  record_result_metrics(metrics, "base.", runs.base.result);
  record_result_metrics(metrics, "optimal.", runs.optimal.result);
  record_result_metrics(metrics, "energy-centric.",
                        runs.energy_centric.result);
  record_result_metrics(metrics, "proposed.", runs.proposed.result);

  std::vector<std::pair<std::string, const EventTracer*>> processes;
  processes.emplace_back("runtime", &runtime);
  for (std::size_t i = 0; i < 4; ++i) {
    processes.emplace_back(names[i], &tracers[i]);
  }
  std::ostringstream trace;
  write_chrome_trace(trace, processes);

  std::remove(cache_path.c_str());
  return {trace.str(), metrics.to_json()};
}

TEST(ObsDeterminismTest, TraceAndMetricsIdenticalAcrossThreadCounts) {
  const auto [trace1, metrics1] = observed_run(1);
  const auto [trace3, metrics3] = observed_run(3);
  const auto [trace4, metrics4] = observed_run(4);
  ThreadPool::set_global_threads(ThreadPool::default_threads());

  EXPECT_EQ(trace1, trace3);
  EXPECT_EQ(trace1, trace4);
  EXPECT_EQ(metrics1, metrics3);
  EXPECT_EQ(metrics1, metrics4);
  // And the trace is non-trivial: it holds events from all five
  // processes (runtime + four systems).
  EXPECT_NE(trace1.find("\"runtime\""), std::string::npos);
  EXPECT_NE(trace1.find("\"energy-centric\""), std::string::npos);
  EXPECT_NE(trace1.find("pool_job"), std::string::npos);
  EXPECT_NE(trace1.find("profile_cache:miss"), std::string::npos);
}

// --- Chrome trace golden ---------------------------------------------------

// A trace that holds every event the tracer records: a faulty run of the
// optimal policy (no predictor to train, so the bytes depend on the
// simulation alone) with job spans and a core failure mid-slice, a
// base-policy run capped after its first 25 events, hand-built events at
// extreme values (no policy here preempts), and the runtime track's pool
// spans and profile-cache instants.
std::string golden_trace() {
  Scenario scenario;
  scenario.name = "trace-golden";
  scenario.system = Scenario::SystemKind::kScaledHeterogeneous;
  scenario.cores = 4;
  scenario.policy = "optimal";
  scenario.seed = 42;
  scenario.arrivals.count = 40;
  scenario.arrivals.mean_interarrival_cycles = 20000.0;
  scenario.suite.kernel_scale = 0.25;
  scenario.suite.variants_per_kernel = 1;
  scenario.faults.seed = 7;
  scenario.faults.reconfig_failure_rate = 0.3;
  scenario.faults.stuck_job_rate = 0.3;
  scenario.faults.counter_corruption_rate = 0.5;
  scenario.faults.core_events = {{460'000, 1, true}, {900'000, 1, false}};
  const ScenarioContext context(scenario);

  MetricsRegistry metrics;
  EventTracer runtime;
  ProbeRecorder recorder(metrics, &runtime);
  recorder.on_pool_job(3);
  recorder.on_profile_cache(false);
  recorder.on_pool_job(18);
  recorder.on_profile_cache(true);

  EventTracer sim(&metrics, "sim.");
  sim.set_job_spans(true);
  run_scenario(scenario, context, &sim);

  // The base policy runs every job in its core's initial configuration.
  Scenario base = scenario;
  base.policy = "base";
  EventTracer capped(&metrics, "capped.");
  capped.set_job_spans(true);
  capped.set_max_events(25);
  run_scenario(base, context, &capped);
  EXPECT_GT(capped.dropped_events(), 0u);

  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EventTracer hand;
  hand.set_job_spans(true);
  hand.on_arrival(ArrivalEvent{5, kMax, kMax, -3, 4'000'000'000u});
  hand.on_dispatch(DispatchEvent{6, 2, kMax, 17, ExecutionKind::kTuning,
                                 kMax, kMax, true});
  hand.on_reconfig(ReconfigEvent{7, 2, 1, 4'000'000'000u, false, kMax});
  hand.on_slice(ScheduledSlice{kMax, 17, 2, 8, kMax,
                               CacheConfig{2048, 1, 16},
                               ExecutionKind::kProfiling, true});
  hand.on_preempt(PreemptEvent{9, 3, 11, true});
  hand.on_preempt(PreemptEvent{10, 3, 12, false});
  hand.on_idle(IdleEvent{3, 10, kMax});
  hand.on_fault(FaultRecord{11, 0, 0, FaultRecord::Kind::kCoreRecovery});
  hand.add_span("span \"quoted\"", 12, 4, 5,
                {{"key\\", "value\n"}, {"second", ""}});
  hand.add_instant("instant", 13, 6);

  const std::vector<std::pair<std::string, const EventTracer*>> processes = {
      {"runtime", &runtime},
      {"sim \"spans\" \\ on", &sim},
      {"capped", &capped},
      {"hand\tbuilt", &hand}};
  std::ostringstream out;
  write_chrome_trace(out, processes);
  return out.str();
}

TEST(ChromeTraceGolden, EveryEventKindMatchesTheGoldenBytes) {
  const std::string trace = golden_trace();
  for (const char* needle :
       {"\"exec:normal\"", "\"exec:profiling\"", "\"exec:tuning\"",
        "\"dispatch\"", "\"reconfig\"", "\"reconfig-retry\"", "\"idle\"",
        "\"preempt\"", "\"ph\":\"b\"", "\"ph\":\"e\"",
        "\"fault:core-failure\"", "\"fault:core-recovery\"",
        "\"fault:reconfig-failure\"", "\"fault:counter-corruption\"",
        "\"fault:watchdog-fire\"", "\"pool_job\"", "\"units\":\"18\"",
        "\"profile_cache:hit\"", "\"profile_cache:miss\"",
        "\"completed\":\"0\"", "\"hung\":\"1\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
  }

  const std::string golden_path =
      std::string(HETSCHED_SOURCE_DIR) + "/tests/golden/chrome_trace.json";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << trace;
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden trace regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden trace " << golden_path
                  << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(trace, golden.str())
      << "Chrome trace bytes diverged from the checked-in golden; "
         "regenerate it with HETSCHED_REGEN_GOLDEN=1 only for an intended "
         "format change, from a build of the commit before the change";
}

}  // namespace
}  // namespace hetsched
