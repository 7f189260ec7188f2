// Latency suite: job lifecycle spans and deterministic percentiles
// (ctest label: latency).
//
// The headline properties: the JobSpanCollector's windows-JSONL lat_*
// columns and the report's latency section are byte-identical across
// HETSCHED_THREADS values, between streaming and batch runs, and across
// a checkpoint kill-resume at every boundary (in-flight spans join the
// snapshot). Alongside them: Log2Histogram bucket/percentile/merge/
// round-trip semantics, the exact queue/service/stall/sojourn
// decomposition on hand-built event streams, EventTracer span export and
// exact drop accounting under a retention cap, the bench-diff self-diff
// identity of a report, and a pinned golden for `hetsched analyze` over the
// streaming-smoke scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/simulator.hpp"
#include "drained_stream.hpp"
#include "obs/analyzer.hpp"
#include "obs/bench_diff.hpp"
#include "obs/event_trace.hpp"
#include "obs/latency.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/arrivals.hpp"

namespace hetsched {
namespace {

// --- Log2Histogram -------------------------------------------------------

TEST(Log2Histogram, EmptyIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.percentile(99.0), 0.0);
}

TEST(Log2Histogram, ZeroBucketAndExactTotals) {
  Log2Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.max(), 1024u);
  // The zero bucket interpolates to exactly zero.
  Log2Histogram zeros;
  zeros.record(0);
  zeros.record(0);
  EXPECT_EQ(zeros.percentile(100.0), 0.0);
}

TEST(Log2Histogram, PercentilesAreMonotoneAndClampedToMax) {
  Log2Histogram h;
  for (std::uint64_t v : {3u, 17u, 900u, 1000u, 1000u, 50'000u}) h.record(v);
  double prev = 0.0;
  for (double p : {0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    const double value = h.percentile(p);
    EXPECT_GE(value, prev) << "p" << p;
    EXPECT_LE(value, static_cast<double>(h.max())) << "p" << p;
    prev = value;
  }
  // A single value interpolates within its bucket and clamps to itself.
  Log2Histogram one;
  one.record(1000);
  EXPECT_EQ(one.percentile(100.0), 1000.0);
  EXPECT_GE(one.percentile(50.0), 512.0);  // bucket [512, 1024)
  EXPECT_LE(one.percentile(50.0), 1000.0);
}

TEST(Log2Histogram, MergeMatchesCombinedRecording) {
  Log2Histogram a, b, combined;
  for (std::uint64_t v : {0u, 5u, 90u, 4096u}) {
    a.record(v);
    combined.record(v);
  }
  for (std::uint64_t v : {7u, 7u, 300'000u}) {
    b.record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {1.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p" << p;
  }
}

TEST(Log2Histogram, StateRoundTripsAndRejectsGarbage) {
  Log2Histogram h;
  for (std::uint64_t v : {0u, 1u, 777u, 1u << 20}) h.record(v);
  std::ostringstream saved;
  h.save_state(saved);

  Log2Histogram restored;
  std::istringstream in(saved.str());
  restored.restore_state(in, "test");
  EXPECT_EQ(restored.count(), h.count());
  EXPECT_EQ(restored.sum(), h.sum());
  EXPECT_EQ(restored.max(), h.max());
  for (double p : {10.0, 50.0, 99.0}) {
    EXPECT_EQ(restored.percentile(p), h.percentile(p));
  }

  Log2Histogram garbage;
  std::istringstream bad("not a histogram");
  EXPECT_THROW(garbage.restore_state(bad, "test"), std::runtime_error);
}

// --- JobSpanCollector decomposition --------------------------------------

ArrivalEvent arrival(std::uint64_t job, SimTime t,
                     std::size_t benchmark = 0) {
  ArrivalEvent e;
  e.time = t;
  e.job_id = job;
  e.benchmark_id = benchmark;
  return e;
}

DispatchEvent dispatch(std::uint64_t job, SimTime t, std::size_t core = 0) {
  DispatchEvent e;
  e.time = t;
  e.core = core;
  e.job_id = job;
  return e;
}

ScheduledSlice slice(std::uint64_t job, SimTime start, SimTime end,
                     bool completed = true) {
  ScheduledSlice s;
  s.job_id = job;
  s.core = 0;
  s.start = start;
  s.end = end;
  s.completed = completed;
  return s;
}

TEST(JobSpanCollector, DecomposesSingleSliceLifecycle) {
  JobSpanCollector spans("test", 1'000'000);
  spans.on_arrival(arrival(1, 100));
  EXPECT_EQ(spans.in_flight(), 1u);
  spans.on_dispatch(dispatch(1, 300));
  spans.on_slice(slice(1, 400, 900));
  spans.finalize();

  EXPECT_EQ(spans.in_flight(), 0u);
  EXPECT_EQ(spans.jobs_completed(), 1u);
  EXPECT_EQ(spans.totals().queue.sum(), 200u);    // 300 - 100
  EXPECT_EQ(spans.totals().service.sum(), 500u);  // 900 - 400
  EXPECT_EQ(spans.totals().sojourn.sum(), 800u);  // 900 - 100
  EXPECT_EQ(spans.totals().stall.sum(), 100u);    // 800 - 200 - 500

  ASSERT_EQ(spans.slowest().size(), 1u);
  const SlowJob& job = spans.slowest().front();
  EXPECT_EQ(job.job_id, 1u);
  EXPECT_EQ(job.queue, 200u);
  EXPECT_EQ(job.service, 500u);
  EXPECT_EQ(job.stall, 100u);
  EXPECT_EQ(job.sojourn, 800u);
  EXPECT_EQ(job.slices, 1u);
}

TEST(JobSpanCollector, PreemptedFragmentsFoldIntoServiceAndSliceCount) {
  JobSpanCollector spans("test", 1'000'000);
  spans.on_arrival(arrival(7, 0));
  spans.on_dispatch(dispatch(7, 10));
  spans.on_slice(slice(7, 20, 50, /*completed=*/false));  // preempted
  spans.on_dispatch(dispatch(7, 100));  // re-dispatch: queue unchanged
  spans.on_slice(slice(7, 110, 160));
  spans.finalize();

  EXPECT_EQ(spans.jobs_completed(), 1u);
  EXPECT_EQ(spans.totals().queue.sum(), 10u);
  EXPECT_EQ(spans.totals().service.sum(), 80u);   // 30 + 50
  EXPECT_EQ(spans.totals().sojourn.sum(), 160u);
  EXPECT_EQ(spans.totals().stall.sum(), 70u);     // 160 - 10 - 80
  ASSERT_EQ(spans.slowest().size(), 1u);
  EXPECT_EQ(spans.slowest().front().slices, 2u);
}

TEST(JobSpanCollector, SlowestListIsSojournOrderedAndBounded) {
  JobSpanCollector spans("test", 1'000'000, /*top_k=*/2);
  // Three jobs with sojourns 500, 900, 700: top-2 is {900, 700}.
  for (std::uint64_t job : {1u, 2u, 3u}) {
    spans.on_arrival(arrival(job, 0));
    spans.on_dispatch(dispatch(job, 0));
  }
  spans.on_slice(slice(1, 0, 500));
  spans.on_slice(slice(2, 0, 900));
  spans.on_slice(slice(3, 0, 700));
  spans.finalize();

  EXPECT_EQ(spans.jobs_completed(), 3u);
  ASSERT_EQ(spans.slowest().size(), 2u);
  EXPECT_EQ(spans.slowest()[0].job_id, 2u);
  EXPECT_EQ(spans.slowest()[0].sojourn, 900u);
  EXPECT_EQ(spans.slowest()[1].job_id, 3u);
  EXPECT_EQ(spans.slowest()[1].sojourn, 700u);
}

TEST(JobSpanCollector, WindowDigestTracksRetirementsPerWindow) {
  JobSpanCollector spans("test", 1000);
  spans.on_arrival(arrival(1, 100));
  spans.on_dispatch(dispatch(1, 200));
  spans.on_slice(slice(1, 300, 900));  // retires in window 0, sojourn 800
  spans.on_arrival(arrival(2, 950));
  spans.on_dispatch(dispatch(2, 1100));
  spans.on_slice(slice(2, 1200, 1500));  // retires in window 1, sojourn 550
  spans.finalize();

  const WindowLatency w0 = spans.take_window(0);
  EXPECT_EQ(w0.index, 0u);
  EXPECT_EQ(w0.jobs, 1u);
  EXPECT_EQ(w0.max, 800u);
  const WindowLatency w1 = spans.take_window(1);
  EXPECT_EQ(w1.jobs, 1u);
  EXPECT_EQ(w1.max, 550u);
  // No job retired in window 2, and a taken window is gone: both digest
  // to zeros.
  EXPECT_EQ(spans.take_window(2).jobs, 0u);
  EXPECT_EQ(spans.take_window(1).jobs, 0u);
  EXPECT_EQ(spans.take_window(1).max, 0u);
}

TEST(JobSpanCollector, StateRoundTripPreservesInFlightSpans) {
  // A collector checkpointed mid-span must retire the job after restore
  // with the same decomposition the uninterrupted collector produces.
  JobSpanCollector live("test", 1'000'000);
  live.on_arrival(arrival(42, 100, /*benchmark=*/3));
  live.on_dispatch(dispatch(42, 250));
  live.on_slice(slice(42, 260, 400, /*completed=*/false));

  std::ostringstream saved;
  live.save_state(saved);
  JobSpanCollector restored("test", 1'000'000);
  std::istringstream in(saved.str());
  restored.restore_state(in, "test");
  EXPECT_EQ(restored.in_flight(), 1u);

  for (JobSpanCollector* c : {&live, &restored}) {
    c->on_slice(slice(42, 500, 800));
    c->finalize();
  }
  EXPECT_EQ(restored.jobs_completed(), 1u);
  EXPECT_EQ(restored.totals().queue.sum(), live.totals().queue.sum());
  EXPECT_EQ(restored.totals().service.sum(), live.totals().service.sum());
  EXPECT_EQ(restored.totals().stall.sum(), live.totals().stall.sum());
  EXPECT_EQ(restored.totals().sojourn.sum(), live.totals().sojourn.sum());
  ASSERT_EQ(restored.slowest().size(), 1u);
  EXPECT_EQ(restored.slowest().front().benchmark_id, 3u);
  EXPECT_EQ(restored.slowest().front().service, 440u);  // 140 + 300

  JobSpanCollector garbage("test", 1'000'000);
  std::istringstream bad("not a span snapshot");
  EXPECT_THROW(garbage.restore_state(bad, "test"), std::runtime_error);
  // Mismatched construction parameters are rejected, not silently adopted.
  JobSpanCollector narrower("test", 500);
  std::istringstream mismatched(saved.str());
  EXPECT_THROW(narrower.restore_state(mismatched, "test"),
               std::runtime_error);
}

// --- End-to-end determinism ----------------------------------------------

// One cheap suite shared by the integration tests below; the optimal
// policy needs no predictor training.
struct World {
  Scenario base;
  ScenarioContext context;
};

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "latency-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "optimal";
    s.seed = 42;
    s.arrivals.count = 250;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    return new World{s, ScenarioContext(s)};
  }();
  return *w;
}

std::string windows_text(const WindowedCollector& collector) {
  std::ostringstream out;
  collector.write_jsonl(out);
  return out.str();
}

// The deterministic latency fingerprint of a run: the report's latency
// section rendered through the real JSON writer (phases suppressed).
std::string latency_json(const JobSpanCollector& spans) {
  RunReport report;
  report.include_phases = false;
  attach_latency_summary(report, {&spans});
  return run_report_to_json(report);
}

struct SpannedRun {
  std::string windows_jsonl;
  std::string latency;
  std::uint64_t completed = 0;
};

SpannedRun run_with_spans(std::size_t threads) {
  World& w = world();
  ThreadPool::set_global_threads(threads);
  JobSpanCollector spans(w.base.policy, 1'000'000);
  WindowedCollector collector(w.base.cores, WindowedOptions{1'000'000, 0},
                              &w.context.suite());
  collector.set_span_source(&spans);
  FanoutObserver fanout({&spans, &collector});
  const ScenarioOutcome outcome = run_scenario(w.base, w.context, &fanout);
  spans.finalize();
  collector.finalize();
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  EXPECT_EQ(spans.jobs_completed(), outcome.result.completed_jobs);
  EXPECT_EQ(spans.in_flight(), 0u);
  return {windows_text(collector), latency_json(spans),
          outcome.result.completed_jobs};
}

TEST(LatencyDeterminism, ByteIdenticalAcrossThreadCounts) {
  const SpannedRun r1 = run_with_spans(1);
  const SpannedRun r3 = run_with_spans(3);
  const SpannedRun r4 = run_with_spans(4);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_GT(r1.completed, 0u);
  EXPECT_FALSE(r1.windows_jsonl.empty());
  EXPECT_EQ(r1.windows_jsonl, r3.windows_jsonl);
  EXPECT_EQ(r1.windows_jsonl, r4.windows_jsonl);
  EXPECT_EQ(r1.latency, r3.latency);
  EXPECT_EQ(r1.latency, r4.latency);
}

// The span collector keeps no window clock, so the windowed collector
// may see every event first and be finalized first: the windows JSONL
// is still the observer stack's.
TEST(LatencyDeterminism, WindowedCollectorFirstYieldsTheStackJsonl) {
  World& w = world();
  CheckpointRunOptions options;
  options.window_cycles = 1'000'000;
  const CheckpointRunOutcome stacked =
      run_scenario_checkpointed(w.base, w.context, options);

  JobSpanCollector spans(w.base.policy, 1'000'000);
  WindowedCollector collector(w.base.cores, WindowedOptions{1'000'000, 0},
                              &w.context.suite());
  collector.set_span_source(&spans);
  FanoutObserver fanout({&collector, &spans});
  run_scenario(w.base, w.context, &fanout);
  collector.finalize();
  spans.finalize();
  EXPECT_EQ(windows_text(collector), stacked.jsonl());
  EXPECT_EQ(latency_json(spans), latency_json(stacked.spans));
}

TEST(LatencyDeterminism, StreamAndBatchSpansAreByteIdentical) {
  World& w = world();
  const Scenario& s = w.base;

  // Batch: materialise the arrivals, run via run(vector).
  OptimalPolicy policy;
  MulticoreSimulator simulator(s.make_system(), w.context.suite(),
                               w.context.energy(), policy, s.discipline);
  JobSpanCollector batch_spans(s.policy, 1'000'000);
  WindowedCollector batch_collector(s.cores, WindowedOptions{1'000'000, 0},
                                    &w.context.suite());
  batch_collector.set_span_source(&batch_spans);
  FanoutObserver batch_fanout({&batch_spans, &batch_collector});
  simulator.set_observer(&batch_fanout);
  const SimulationResult batch = simulator.run(generated_arrivals(
      w.context.scheduling_ids(), s.arrivals, s.seed ^ 0xa5a5a5a5ULL));
  batch_spans.finalize();
  batch_collector.finalize();

  const SpannedRun streamed = run_with_spans(ThreadPool::default_threads());
  EXPECT_EQ(batch.completed_jobs, streamed.completed);
  EXPECT_EQ(batch_spans.jobs_completed(), batch.completed_jobs);
  EXPECT_EQ(windows_text(batch_collector), streamed.windows_jsonl);
  EXPECT_EQ(latency_json(batch_spans), streamed.latency);
}

TEST(LatencyDeterminism, KillAtEveryBoundaryPreservesSpanState) {
  World& w = world();
  CheckpointRunOptions options;
  options.window_cycles = 1'000'000;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  const CheckpointRunOutcome full =
      run_scenario_checkpointed(w.base, w.context, options);
  ASSERT_FALSE(full.halted);
  ASSERT_GE(checkpoints.size(), 3u);

  const std::string ref_windows = windows_text(full.windows);
  const std::string ref_latency = latency_json(full.spans);
  EXPECT_EQ(full.spans.jobs_completed(), full.result.completed_jobs);

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    CheckpointRunOptions resume;
    resume.window_cycles = 1'000'000;
    resume.checkpoint_every = 1;
    resume.resume_text = checkpoints[k];
    const CheckpointRunOutcome resumed =
        run_scenario_checkpointed(w.base, w.context, resume);
    ASSERT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.resumed_from, k + 1);
    EXPECT_EQ(windows_text(resumed.windows), ref_windows)
        << "boundary " << k + 1;
    EXPECT_EQ(latency_json(resumed.spans), ref_latency)
        << "boundary " << k + 1;
  }
}

// --- EventTracer span export ---------------------------------------------

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TracerSpans, ChromeTraceExportsPairedAsyncSpans) {
  World& w = world();
  EventTracer tracer;
  tracer.set_job_spans(true);
  const ScenarioOutcome outcome = run_scenario(w.base, w.context, &tracer);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const TraceEvent& event : tracer.events()) {
    begins += event.phase == 'b' ? 1 : 0;
    ends += event.phase == 'e' ? 1 : 0;
  }
  // One 'b' per admitted job, one 'e' per retirement.
  EXPECT_EQ(begins, w.base.arrivals.count);
  EXPECT_EQ(ends, outcome.result.completed_jobs);

  std::ostringstream json;
  const std::vector<std::pair<std::string, const EventTracer*>> procs = {
      {"sim", &tracer}};
  write_chrome_trace(json, procs);
  const std::string text = json.str();
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"b\""), begins);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"e\""), ends);
  // Async pairing needs cat + id on every span event.
  EXPECT_EQ(count_occurrences(text, "\"cat\":\"job\""), begins + ends);

  // The disabled path stays span-free (the pre-span trace byte contract).
  EventTracer plain;
  run_scenario(w.base, w.context, &plain);
  for (const TraceEvent& event : plain.events()) {
    EXPECT_NE(event.phase, 'b');
    EXPECT_NE(event.phase, 'e');
  }
}

TEST(TracerSpans, DroppedEventsCountsExactDropsUnderRetentionCap) {
  World& w = world();
  EventTracer unlimited;
  unlimited.set_job_spans(true);
  run_scenario(w.base, w.context, &unlimited);
  const std::size_t total = unlimited.events().size();
  ASSERT_GT(total, 10u);
  EXPECT_EQ(unlimited.dropped_events(), 0u);

  const std::size_t cap = total / 2;
  EventTracer capped;
  capped.set_job_spans(true);
  capped.set_max_events(cap);
  EXPECT_EQ(capped.max_events(), cap);
  run_scenario(w.base, w.context, &capped);
  EXPECT_EQ(capped.events().size(), cap);
  EXPECT_EQ(capped.dropped_events(), total - cap);
  // The retained stream is the run's prefix.
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(capped.events()[i].ts, unlimited.events()[i].ts) << i;
    EXPECT_EQ(capped.events()[i].phase, unlimited.events()[i].phase) << i;
  }
}

// --- analyze -------------------------------------------------------------

TEST(Analyze, SelfDiffIsCleanAndRegressionsAreFlagged) {
  const SpannedRun run = run_with_spans(ThreadPool::default_threads());
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  bool regressed = true;
  const std::string self =
      bench_diff(run.latency, run.latency, 0.05, &regressed);
  EXPECT_FALSE(regressed);
  EXPECT_NE(self.find("deltas: 0\n"), std::string::npos) << self;
  EXPECT_NE(self.find("verdict: pass\n"), std::string::npos);

  // A worsened lower-is-better metric regresses...
  const std::string worse = bench_diff(R"({"overhead_ms": 10})",
                                       R"({"overhead_ms": 20})", 0.05,
                                       &regressed);
  EXPECT_TRUE(regressed);
  EXPECT_NE(worse.find("REGRESSED"), std::string::npos);
  // ...and so does a metric that vanished.
  bench_diff(R"({"jobs_per_sec": 5})", R"({"other": 5})", 0.05, &regressed);
  EXPECT_TRUE(regressed);
  // A neutral-direction drift is reported but not a failure.
  const std::string neutral = bench_diff(R"({"result": {"makespan": 10}})",
                                         R"({"result": {"makespan": 12}})",
                                         0.05, &regressed);
  EXPECT_FALSE(regressed);
  EXPECT_NE(neutral.find("deltas: 1\n"), std::string::npos);
}

TEST(Analyze, GoldenStreamingSmokeAnalysis) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "streaming_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "streaming_smoke.scn";
  const Scenario scenario = Scenario::parse(in);
  const ScenarioContext context(scenario);

  // The CLI scenario path: the observed driver and its report.
  const CheckpointRunOutcome outcome =
      run_scenario_checkpointed(scenario, context, CheckpointRunOptions{});
  RunReport report = observed_scenario_report(scenario, context, outcome);
  report.include_phases = false;
  const std::string report_json = run_report_to_json(report);

  const std::string analysis =
      analyze_run(report_json, outcome.jsonl(), AnalyzeOptions{});
  // Sanity: the breakdown found the latency section and the policy row.
  EXPECT_NE(analysis.find("== latency breakdown (cycles) =="),
            std::string::npos);
  EXPECT_NE(analysis.find(scenario.policy), std::string::npos);

  const std::string golden_path = dir + "streaming_smoke.analyze.txt";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << analysis;
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden analysis regenerated at " << golden_path;
  }
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing golden analysis " << golden_path
                         << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(analysis, golden.str())
      << "analyze output diverged from the checked-in golden; if the "
         "change is intended, regenerate with HETSCHED_REGEN_GOLDEN=1 "
         "and commit the new file";

  // bench-diff of a report against itself is the identity.
  bool regressed = true;
  const std::string self = bench_diff(report_json, report_json, 0.0,
                                      &regressed);
  EXPECT_FALSE(regressed);
  EXPECT_NE(self.find("deltas: 0\n"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
