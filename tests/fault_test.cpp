// Fault-injection framework tests: plan parsing, injector determinism,
// core failure/recovery inside the simulator, watchdog semantics,
// degraded-mode reconfiguration and the policies' prediction sanity
// guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "core/policies.hpp"
#include "core/schedule_log.hpp"
#include "core/simulator.hpp"
#include "drained_stream.hpp"
#include "experiment/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "obs/windowed.hpp"

namespace hetsched {
namespace {

struct Fixture {
  EnergyModel energy{CactiModel{}};
  CharacterizedSuite suite;
  std::vector<JobArrival> arrivals;

  explicit Fixture(std::size_t jobs = 200, double mean_gap = 60000.0) {
    SuiteOptions options;
    options.kernel_scale = 0.25;
    options.variants_per_kernel = 1;
    suite = CharacterizedSuite::build(energy, options);
    ArrivalOptions arrival_options;
    arrival_options.count = jobs;
    arrival_options.mean_interarrival_cycles = mean_gap;
    arrivals = generated_arrivals(suite.scheduling_ids(), arrival_options, 99);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// A predictor whose answer is never a legal design-space size; the
// policies' sanity guard must catch it and fall back to the base size.
class GarbagePredictor final : public SizePredictor {
 public:
  std::uint32_t predict(std::size_t,
                        const ExecutionStatistics&) const override {
    return 1234567;
  }
};

// ---------------- FaultPlan ----------------

TEST(FaultPlanTest, DefaultPlanIsEmptyAndValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanTest, ValidateRejectsBadRates) {
  FaultPlan plan;
  plan.reconfig_failure_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.reconfig_failure_rate = 0.5;
  plan.stuck_job_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.stuck_job_rate = 0.0;
  plan.counter_noise_stddev = std::nan("");
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanTest, SaveParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 77;
  plan.core_events.push_back({120000, 2, true});
  plan.core_events.push_back({450000, 2, false});
  plan.reconfig_failure_rate = 0.01;
  plan.stuck_job_rate = 0.005;
  plan.counter_corruption_rate = 0.02;
  plan.counter_mode = FaultPlan::CounterMode::kNaN;
  plan.counter_noise_stddev = 0.25;

  std::stringstream stream;
  plan.save(stream);
  const FaultPlan loaded = FaultPlan::parse(stream);
  EXPECT_EQ(loaded.seed, plan.seed);
  EXPECT_EQ(loaded.core_events, plan.core_events);
  EXPECT_DOUBLE_EQ(loaded.reconfig_failure_rate,
                   plan.reconfig_failure_rate);
  EXPECT_DOUBLE_EQ(loaded.stuck_job_rate, plan.stuck_job_rate);
  EXPECT_DOUBLE_EQ(loaded.counter_corruption_rate,
                   plan.counter_corruption_rate);
  EXPECT_EQ(loaded.counter_mode, plan.counter_mode);
  EXPECT_DOUBLE_EQ(loaded.counter_noise_stddev, plan.counter_noise_stddev);
}

TEST(FaultPlanTest, ParseAcceptsCommentsAndReportsLineNumbers) {
  std::stringstream good(
      "# a comment\n"
      "\n"
      "seed 3\n"
      "fail 1 5000   # inline comment\n"
      "stuck-rate 0.5\n");
  const FaultPlan plan = FaultPlan::parse(good);
  EXPECT_EQ(plan.seed, 3u);
  ASSERT_EQ(plan.core_events.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stuck_job_rate, 0.5);

  for (const char* bad :
       {"bogus 1\n", "stuck-rate 1.5\n", "stuck-rate x\n", "fail 1\n",
        "seed 1 extra\n", "counter-mode sideways\n", "counter-noise -1\n"}) {
    std::stringstream in(std::string("seed 1\n") + bad);
    try {
      FaultPlan::parse(in);
      FAIL() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultPlanTest, UniformSetsEveryRate) {
  const FaultPlan plan = FaultPlan::uniform(0.02, 9);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.reconfig_failure_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.stuck_job_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.counter_corruption_rate, 0.02);
  EXPECT_THROW(FaultPlan::uniform(2.0, 9), std::invalid_argument);
}

// ---------------- FaultInjector ----------------

TEST(FaultInjectorTest, DecisionsAreDeterministicAndOrderIndependent) {
  const FaultPlan plan = FaultPlan::uniform(0.3, 1234);
  FaultInjector forward(plan);
  FaultInjector backward(plan);

  // Same (core, job, attempt) triples queried in opposite orders must
  // agree: decisions are pure hashes, not draws from shared state.
  constexpr int kQueries = 64;
  std::vector<bool> a(kQueries), b(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    a[static_cast<std::size_t>(i)] =
        forward.reconfig_fails(static_cast<std::size_t>(i % 4),
                               static_cast<std::uint64_t>(i), 0);
  }
  for (int i = kQueries - 1; i >= 0; --i) {
    b[static_cast<std::size_t>(i)] =
        backward.reconfig_fails(static_cast<std::size_t>(i % 4),
                                static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjectorTest, SameSeedSameDecisionsDifferentSeedDiffers) {
  const FaultPlan a_plan = FaultPlan::uniform(0.5, 42);
  FaultPlan b_plan = a_plan;
  b_plan.seed = 43;
  FaultInjector a1(a_plan), a2(a_plan), b(b_plan);

  int differences = 0;
  for (std::uint64_t job = 0; job < 256; ++job) {
    EXPECT_EQ(a1.reconfig_fails(job % 4, job, 1),
              a2.reconfig_fails(job % 4, job, 1));
    if (a1.reconfig_fails(job % 4, job, 1) != b.reconfig_fails(job % 4, job, 1)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0) << "seed must influence the decisions";
}

TEST(FaultInjectorTest, JobHangsAtMostOncePerJob) {
  FaultPlan plan;
  plan.stuck_job_rate = 1.0;
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.job_hangs(7));
  EXPECT_FALSE(injector.job_hangs(7)) << "a job wedges at most once";
  EXPECT_TRUE(injector.job_hangs(8));
}

TEST(FaultInjectorTest, CoreEventsConsumedInTimeOrder) {
  FaultPlan plan;
  plan.core_events.push_back({300, 1, false});
  plan.core_events.push_back({100, 0, true});
  plan.core_events.push_back({100, 1, true});
  FaultInjector injector(plan);

  ASSERT_TRUE(injector.next_core_event_time().has_value());
  EXPECT_EQ(*injector.next_core_event_time(), 100u);
  const auto first = injector.take_core_events(100);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].core, 0u);
  EXPECT_EQ(first[1].core, 1u);
  EXPECT_EQ(*injector.next_core_event_time(), 300u);
  EXPECT_TRUE(injector.take_core_events(200).empty());
  EXPECT_EQ(injector.take_core_events(1000).size(), 1u);
  EXPECT_FALSE(injector.next_core_event_time().has_value());
}

TEST(FaultInjectorTest, CounterCorruptionModes) {
  ExecutionStatistics reference;
  reference.total_instructions = 1000;
  reference.cycles = 5000;
  reference.loads = 400;
  reference.l1_miss_rate = 0.125;

  auto corrupted = [&](FaultPlan::CounterMode mode) {
    FaultPlan plan;
    plan.counter_corruption_rate = 1.0;
    plan.counter_mode = mode;
    FaultInjector injector(plan);
    ExecutionStatistics stats = reference;
    EXPECT_TRUE(injector.corrupt_statistics(3, stats));
    return stats;
  };

  const auto gaussian = corrupted(FaultPlan::CounterMode::kGaussian);
  EXPECT_NE(gaussian.cycles, reference.cycles);
  EXPECT_TRUE(std::isfinite(gaussian.cycles));

  const auto poisoned = corrupted(FaultPlan::CounterMode::kNaN);
  int nans = 0;
  for (double v : poisoned.to_vector()) nans += std::isnan(v) ? 1 : 0;
  EXPECT_EQ(nans, 1) << "nan mode poisons exactly one statistic";

  const auto zeroed = corrupted(FaultPlan::CounterMode::kZero);
  for (double v : zeroed.to_vector()) EXPECT_EQ(v, 0.0);

  const auto saturated = corrupted(FaultPlan::CounterMode::kSaturate);
  for (double v : saturated.to_vector()) EXPECT_EQ(v, 1e30);

  // Zero rate never corrupts.
  FaultInjector quiet((FaultPlan()));
  ExecutionStatistics stats = reference;
  EXPECT_FALSE(quiet.corrupt_statistics(3, stats));
  EXPECT_EQ(stats.cycles, reference.cycles);
}

// ---------------- simulator integration ----------------

TEST(FaultSimulatorTest, ZeroFaultPlanIsBitIdenticalToNoInjector) {
  const Fixture& f = fixture();
  auto run = [&](bool attach) {
    OptimalPolicy policy;
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy);
    FaultInjector injector((FaultPlan()));
    if (attach) sim.set_fault_injector(&injector);
    return sim.run(f.arrivals);
  };
  const SimulationResult bare = run(false);
  const SimulationResult with = run(true);
  EXPECT_EQ(bare.makespan, with.makespan);
  EXPECT_EQ(bare.total_energy().value(), with.total_energy().value());
  EXPECT_EQ(bare.idle_energy.value(), with.idle_energy.value());
  EXPECT_EQ(bare.dynamic_energy.value(), with.dynamic_energy.value());
  EXPECT_EQ(bare.stall_events, with.stall_events);
  EXPECT_EQ(bare.reconfigurations, with.reconfigurations);
  EXPECT_EQ(bare.completed_jobs, with.completed_jobs);
  EXPECT_FALSE(with.faults.any());
}

TEST(FaultSimulatorTest, CoreFailureSettlesProRataAndRequeues) {
  const Fixture& f = fixture();

  // First run fault-free to find a moment core 0 is mid-execution.
  ScheduleLog reference;
  {
    BasePolicy policy;
    MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                           policy);
    sim.set_observer(&reference);
    sim.run(f.arrivals);
  }
  const ScheduledSlice* victim = nullptr;
  for (const ScheduledSlice& slice : reference.slices()) {
    if (slice.core == 0 && slice.end - slice.start > 1000) {
      victim = &slice;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const SimTime fail_at = victim->start + (victim->end - victim->start) / 2;

  FaultPlan plan;
  plan.core_events.push_back({fail_at, 0, true});
  plan.core_events.push_back({fail_at + 2000000, 0, false});

  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  ScheduleLog log;
  sim.set_observer(&log);
  sim.set_fault_injector(&injector);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size())
      << "the settled job must be re-queued and finish elsewhere";
  EXPECT_EQ(result.faults.core_failures, 1u);
  EXPECT_EQ(result.faults.core_recoveries, 1u);
  EXPECT_GE(result.faults.jobs_requeued, 1u);
  EXPECT_TRUE(log.well_formed());

  // The interrupted execution appears as a partial slice ending exactly
  // at the failure cycle.
  bool found_partial = false;
  for (const ScheduledSlice& slice : log.slices()) {
    if (slice.core == 0 && slice.end == fail_at && !slice.completed) {
      found_partial = true;
      EXPECT_EQ(slice.job_id, victim->job_id);
    }
  }
  EXPECT_TRUE(found_partial) << "pro-rata settlement slice missing";

  // The fault log records the failure and the recovery.
  ASSERT_EQ(log.faults().size(), 2u);
  EXPECT_EQ(log.faults()[0].kind, FaultRecord::Kind::kCoreFailure);
  EXPECT_EQ(log.faults()[0].time, fail_at);
  EXPECT_EQ(log.faults()[1].kind, FaultRecord::Kind::kCoreRecovery);

  std::ostringstream csv;
  log.write_fault_csv(csv);
  EXPECT_NE(csv.str().find("core-failure"), std::string::npos);
}

TEST(FaultSimulatorTest, OfflineCoreRunsNothingUntilRecovery) {
  const Fixture& f = fixture();
  FaultPlan plan;
  plan.core_events.push_back({0, 2, true});  // core 2 down from the start

  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_EQ(result.per_core[2].executions, 0u)
      << "policies must never dispatch to an offline core";
  EXPECT_EQ(result.faults.core_failures, 1u);
}

TEST(FaultSimulatorTest, WatchdogFiresExactlyOncePerStuckJob) {
  const Fixture f(60);
  FaultPlan plan;
  plan.stuck_job_rate = 1.0;  // every job wedges on its first dispatch

  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  EXPECT_EQ(result.faults.watchdog_fires, f.arrivals.size())
      << "each job hangs once, the watchdog clears each exactly once";
  EXPECT_EQ(result.faults.jobs_requeued, f.arrivals.size());
}

TEST(FaultSimulatorTest, ReconfigFailuresDegradeToStaleConfig) {
  const Fixture& f = fixture();
  FaultPlan plan;
  plan.reconfig_failure_rate = 1.0;  // no reconfiguration ever succeeds

  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size())
      << "jobs must degrade to the stale configuration, not stall forever";
  EXPECT_EQ(result.reconfigurations, 0u);
  EXPECT_GT(result.faults.reconfig_failures, 0u);
  EXPECT_GT(result.faults.reconfig_retries, 0u);
  EXPECT_GT(result.faults.degraded_executions, 0u);
}

TEST(FaultSimulatorTest, PredictionSanityGuardFallsBackToBase) {
  const Fixture& f = fixture();
  GarbagePredictor predictor;
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  // The guard is part of the policies, not the injector: it must work
  // even in a fault-free run (e.g. against a corrupted snapshot).
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  EXPECT_EQ(result.faults.prediction_fallbacks, distinct.size());
  for (std::size_t id : distinct) {
    ASSERT_TRUE(sim.table().entry(id).predicted_best_size_bytes.has_value());
    EXPECT_EQ(*sim.table().entry(id).predicted_best_size_bytes,
              DesignSpace::base_config().size_bytes)
        << "garbage predictions must fall back to the base size";
  }
}

TEST(FaultSimulatorTest, NaNCountersTriggerPredictionFallback) {
  const Fixture& f = fixture();
  FaultPlan plan;
  plan.counter_corruption_rate = 1.0;
  plan.counter_mode = FaultPlan::CounterMode::kNaN;

  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_EQ(result.completed_jobs, f.arrivals.size());
  std::set<std::size_t> distinct;
  for (const JobArrival& a : f.arrivals) distinct.insert(a.benchmark_id);
  EXPECT_EQ(result.faults.counter_corruptions, distinct.size());
  EXPECT_EQ(result.faults.prediction_fallbacks, distinct.size())
      << "non-finite profiled statistics must trip the sanity guard";
}

TEST(FaultSimulatorTest, AllCoresDownForeverIsReportedAsDeadlock) {
  const Fixture f(20);
  FaultPlan plan;
  for (std::size_t core = 0; core < 4; ++core) {
    plan.core_events.push_back({0, core, true});  // nobody ever recovers
  }
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  FaultInjector injector(plan);
  sim.set_fault_injector(&injector);
  EXPECT_THROW(sim.run(f.arrivals), std::runtime_error);
}

TEST(FaultSimulatorTest, FaultRunsAreDeterministic) {
  const Fixture& f = fixture();
  auto run_once = [&] {
    FaultPlan plan = FaultPlan::uniform(0.05, 7);
    plan.core_events.push_back({500000, 1, true});
    plan.core_events.push_back({2500000, 1, false});
    OracleSizePredictor predictor(f.suite);
    ProposedPolicy policy(predictor);
    MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite,
                           f.energy, policy);
    FaultInjector injector(plan);
    sim.set_fault_injector(&injector);
    return sim.run(f.arrivals);
  };
  const SimulationResult a = run_once();
  const SimulationResult b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_energy().value(), b.total_energy().value());
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.watchdog_fires, b.faults.watchdog_fires);
  EXPECT_EQ(a.faults.counter_corruptions, b.faults.counter_corruptions);
}

// The windowed migration detector must keep policy-driven moves and
// fault-recovery re-dispatch in separate counters: a watchdog or core
// failure re-queuing a job is recovery, not a scheduling choice.
TEST(FaultTelemetry, MigrationCounterSplitsPolicyFromFaultRecovery) {
  WindowedCollector collector(3, WindowedOptions{100000, 0});

  // Policy migration: a preempted slice re-dispatched on another core.
  ScheduledSlice preempted;
  preempted.job_id = 1;
  preempted.core = 0;
  preempted.start = 0;
  preempted.end = 50;
  preempted.completed = false;
  collector.on_slice(preempted);
  DispatchEvent moved;
  moved.time = 60;
  moved.core = 1;
  moved.job_id = 1;
  collector.on_dispatch(moved);

  // Fault recovery: core 2 fails under job 2, which restarts elsewhere.
  FaultRecord failure;
  failure.time = 70;
  failure.core = 2;
  failure.job_id = 2;
  failure.kind = FaultRecord::Kind::kCoreFailure;
  collector.on_fault(failure);
  DispatchEvent recovered;
  recovered.time = 80;
  recovered.core = 0;
  recovered.job_id = 2;
  collector.on_dispatch(recovered);

  // A hung victim cleared by preemption is fault recovery too.
  PreemptEvent hung;
  hung.time = 90;
  hung.core = 1;
  hung.job_id = 3;
  hung.was_hung = true;
  collector.on_preempt(hung);
  DispatchEvent after_hang;
  after_hang.time = 95;
  after_hang.core = 2;
  after_hang.job_id = 3;
  collector.on_dispatch(after_hang);

  // Same-core restart after a watchdog fire: no migration of either kind.
  FaultRecord watchdog;
  watchdog.time = 100;
  watchdog.core = 1;
  watchdog.job_id = 4;
  watchdog.kind = FaultRecord::Kind::kWatchdogFire;
  collector.on_fault(watchdog);
  DispatchEvent same_core;
  same_core.time = 105;
  same_core.core = 1;
  same_core.job_id = 4;
  collector.on_dispatch(same_core);

  collector.finalize();
  ASSERT_EQ(collector.windows().size(), 1u);
  const WindowRecord& w = collector.windows()[0];
  EXPECT_EQ(w.migrations, 1u);
  EXPECT_EQ(w.fault_migrations, 2u);
  EXPECT_EQ(w.dispatches, 4u);
}

TEST(FaultRecordTest, KindNames) {
  EXPECT_EQ(to_string(FaultRecord::Kind::kCoreFailure), "core-failure");
  EXPECT_EQ(to_string(FaultRecord::Kind::kCoreRecovery), "core-recovery");
  EXPECT_EQ(to_string(FaultRecord::Kind::kReconfigFailure),
            "reconfig-failure");
  EXPECT_EQ(to_string(FaultRecord::Kind::kCounterCorruption),
            "counter-corruption");
  EXPECT_EQ(to_string(FaultRecord::Kind::kWatchdogFire), "watchdog-fire");
}

}  // namespace
}  // namespace hetsched
