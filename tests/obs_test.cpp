// Tests for the observability layer (src/obs): metrics-registry
// semantics and JSON snapshots, tracer/simulator consistency, and the
// headline determinism contract — trace and metrics output is
// byte-identical for every HETSCHED_THREADS value.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "obs/observability.hpp"
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

}  // namespace
}  // namespace hetsched
