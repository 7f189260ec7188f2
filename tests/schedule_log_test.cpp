// Tests for the schedule observer: slice integrity against the
// simulator's own accounting, overlap invariants, and CSV export.
#include <gtest/gtest.h>

#include <sstream>

#include "core/realtime_policy.hpp"
#include "core/schedule_log.hpp"
#include "core/simulator.hpp"
#include "drained_stream.hpp"
#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

struct LogFixture {
  EnergyModel energy{CactiModel{}};
  CharacterizedSuite suite;
  std::vector<JobArrival> arrivals;

  LogFixture() {
    SuiteOptions options;
    options.kernel_scale = 0.25;
    options.variants_per_kernel = 1;
    suite = CharacterizedSuite::build(energy, options);
    ArrivalOptions arrival_options;
    arrival_options.count = 250;
    arrival_options.mean_interarrival_cycles = 40000.0;
    arrivals = generated_arrivals(suite.scheduling_ids(), arrival_options, 77);
  }
};

TEST(ScheduleLogTest, SlicesMatchSimulatorAccounting) {
  LogFixture f;
  OracleSizePredictor predictor(f.suite);
  ProposedPolicy policy(predictor);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy);
  ScheduleLog log;
  sim.set_observer(&log);
  const SimulationResult result = sim.run(f.arrivals);

  EXPECT_TRUE(log.well_formed());
  // One completed slice per job (no preemption under this policy).
  std::size_t completed = 0;
  for (const ScheduledSlice& slice : log.slices()) {
    if (slice.completed) ++completed;
  }
  EXPECT_EQ(completed, result.completed_jobs);

  // Busy cycles reconstructed from slices equal the simulator's own sums.
  const auto busy = log.busy_cycles(4);
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(busy[core], result.per_core[core].busy_cycles);
  }
}

TEST(ScheduleLogTest, PreemptedSlicesAreMarked) {
  LogFixture f;
  // Tight deadlines + heavy load to force preemptions.
  std::vector<Cycles> reference(f.suite.size(), 0);
  for (std::size_t id = 0; id < f.suite.size(); ++id) {
    reference[id] = f.suite.benchmark(id)
                        .profile_for(DesignSpace::base_config())
                        .energy.total_cycles;
  }
  ArrivalOptions arrival_options;
  arrival_options.count = 400;
  arrival_options.mean_interarrival_cycles = 8000.0;
  RealtimeOptions rt;
  rt.slack_factor = 1.5;
  GeneratedArrivalStream arrivals(f.suite.scheduling_ids(), arrival_options,
                                  9);
  arrivals.set_realtime(reference, rt, 9);

  OracleSizePredictor predictor(f.suite);
  RealtimeEdfPolicy policy(predictor, true);
  MulticoreSimulator sim(SystemConfig::paper_quadcore(), f.suite, f.energy,
                         policy, QueueDiscipline::kEdf);
  ScheduleLog log;
  sim.set_observer(&log);
  const SimulationResult result = sim.run_stream(arrivals);

  ASSERT_GT(result.preemptions, 0u);
  EXPECT_TRUE(log.well_formed());
  std::size_t preempted_slices = 0;
  for (const ScheduledSlice& slice : log.slices()) {
    if (!slice.completed) ++preempted_slices;
  }
  EXPECT_EQ(preempted_slices, result.preemptions);
}

TEST(ScheduleLogTest, CsvExportHasHeaderAndRows) {
  LogFixture f;
  BasePolicy policy;
  MulticoreSimulator sim(SystemConfig::fixed_base(4), f.suite, f.energy,
                         policy);
  ScheduleLog log;
  sim.set_observer(&log);
  sim.run(f.arrivals);

  std::stringstream out;
  log.write_csv(out);
  std::string line;
  ASSERT_TRUE(std::getline(out, line));
  EXPECT_EQ(line, "job,benchmark,core,start,end,config,kind,completed");
  std::size_t rows = 0;
  while (std::getline(out, line)) ++rows;
  EXPECT_EQ(rows, log.slices().size());
  EXPECT_EQ(rows, f.arrivals.size());
}

// Golden export: a hand-built log must serialise to exactly these bytes
// (external Gantt tooling parses this format).
TEST(ScheduleLogTest, CsvExportGolden) {
  ScheduleLog log;
  log.on_slice(ScheduledSlice{7, 3, 1, 100, 250, {2048, 1, 16},
                              ExecutionKind::kNormal, true});
  log.on_slice(ScheduledSlice{8, 4, 0, 120, 180, {8192, 4, 64},
                              ExecutionKind::kProfiling, false});
  std::stringstream out;
  log.write_csv(out);
  EXPECT_EQ(out.str(),
            "job,benchmark,core,start,end,config,kind,completed\n"
            "7,3,1,100,250,2KB_1W_16B,normal,1\n"
            "8,4,0,120,180,8KB_4W_64B,profiling,0\n");
}

TEST(ScheduleLogTest, FaultCsvExportGolden) {
  ScheduleLog log;
  log.on_fault(FaultRecord{500, 2, 11, FaultRecord::Kind::kWatchdogFire});
  log.on_fault(
      FaultRecord{900, 0, 0, FaultRecord::Kind::kCounterCorruption});
  std::stringstream out;
  log.write_fault_csv(out);
  EXPECT_EQ(out.str(),
            "time,core,job,kind\n"
            "500,2,11,watchdog-fire\n"
            "900,0,0,counter-corruption\n");
}

TEST(ScheduleLogTest, BusyCyclesRejectsUnknownCore) {
  ScheduleLog log;
  log.on_slice(ScheduledSlice{0, 0, 5, 100, 200, {2048, 1, 16},
                              ExecutionKind::kNormal, true});
  // A slice on core 5 with core_count 4 is an accounting bug, not data
  // to be silently dropped.
  EXPECT_DEATH(log.busy_cycles(4), "precondition");
  const auto busy = log.busy_cycles(6);
  EXPECT_EQ(busy[5], 100u);
}

TEST(ScheduleLogTest, WellFormedDetectsOverlap) {
  ScheduleLog log;
  log.on_slice(ScheduledSlice{0, 0, 0, 100, 200, {2048, 1, 16},
                              ExecutionKind::kNormal, true});
  log.on_slice(ScheduledSlice{1, 0, 0, 150, 250, {2048, 1, 16},
                              ExecutionKind::kNormal, true});
  EXPECT_FALSE(log.well_formed());
}

TEST(ScheduleLogTest, WellFormedDetectsEmptySlice) {
  ScheduleLog log;
  log.on_slice(ScheduledSlice{0, 0, 0, 100, 100, {2048, 1, 16},
                              ExecutionKind::kNormal, true});
  EXPECT_FALSE(log.well_formed());
}

}  // namespace
}  // namespace hetsched
