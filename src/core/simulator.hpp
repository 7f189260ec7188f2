// Event-driven multicore scheduling simulator (the paper's MATLAB system
// simulation, Section V) plus the paper's future-work real-time extension
// (§VIII): priorities, deadlines, queue disciplines and preemption.
//
// Jobs arrive into a ready queue; the scheduler policy is invoked
// whenever a benchmark arrives or a core becomes idle. Executions replay
// the characterised (cycles, energy) of the benchmark in the chosen
// configuration; idle cores accrue idle energy (cache leakage + core idle
// power); reconfigurations charge tuner flush traffic. All observations
// land in the profiling table, which is the only channel back to the
// policy.
//
// Preemption model: a preempted job is settled pro-rata (energy and
// cycles for the portion it executed), returns to the front of the ready
// queue carrying its remaining fraction, and resumes under whatever
// configuration the policy next assigns.
//
// Fault model (optional, attach with set_fault_injector): scheduled core
// failures settle the running job pro-rata via the preemption machinery
// and re-queue it; offline cores are powered off (no idle energy, skipped
// by policies) until their recovery event. Stuck executions are cleared
// by a watchdog that re-dispatches the job after a timeout, with a
// bounded retry budget per job. Failed reconfigurations retry with
// exponential backoff and finally degrade to running in the stale
// configuration. A zero-fault plan is bit-identical to running without
// an injector.
#pragma once

#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/schedule_log.hpp"
#include "core/scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "util/contracts.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterization.hpp"

namespace hetsched {

struct CoreUsage {
  Cycles busy_cycles = 0;
  std::uint64_t executions = 0;
  double utilization = 0.0;  // busy cycles / makespan
};

struct SimulationResult {
  // Energy buckets (Figure 6 reports idle / dynamic / total).
  NanoJoules idle_energy;         // idle-period leakage + core idle power
  NanoJoules dynamic_energy;      // execution dynamic energy
  NanoJoules busy_static_energy;  // leakage while executing
  NanoJoules cpu_energy;          // core pipeline active energy
  NanoJoules reconfig_energy;     // tuner flush traffic

  // Overhead attribution (subsets of the execution energy above).
  NanoJoules profiling_energy;
  NanoJoules tuning_energy;

  Cycles makespan = 0;  // completion time of the last job
  // Total execution cycles summed over all executions (the paper's
  // "performance in number of cycles" metric: work performed, which —
  // unlike makespan — also reflects executions in slow configurations
  // that finish before the last arrival).
  Cycles total_execution_cycles = 0;

  std::uint64_t completed_jobs = 0;
  std::uint64_t stall_events = 0;
  std::uint64_t profiling_runs = 0;
  std::uint64_t tuning_runs = 0;
  std::uint64_t reconfigurations = 0;

  // Real-time extension metrics.
  std::uint64_t preemptions = 0;
  std::uint64_t jobs_with_deadline = 0;
  std::uint64_t deadline_misses = 0;
  Cycles total_response_cycles = 0;  // sum of (completion - arrival)

  // Fault-injection and degraded-mode accounting (all zero when no
  // injector was attached or the plan was empty).
  FaultStats faults;

  // Response-time accounting split by priority level.
  struct PriorityStats {
    std::uint64_t completed = 0;
    Cycles total_response_cycles = 0;
    std::uint64_t deadline_misses = 0;

    double mean_response_cycles() const {
      return completed == 0 ? 0.0
                            : static_cast<double>(total_response_cycles) /
                                  static_cast<double>(completed);
    }
  };
  std::map<int, PriorityStats> per_priority;

  std::vector<CoreUsage> per_core;

  NanoJoules total_energy() const {
    return idle_energy + dynamic_energy + busy_static_energy + cpu_energy +
           reconfig_energy;
  }
  // Static + idle bucket some reports use.
  NanoJoules static_energy() const {
    return idle_energy + busy_static_energy;
  }
  double deadline_miss_rate() const {
    return jobs_with_deadline == 0
               ? 0.0
               : static_cast<double>(deadline_misses) /
                     static_cast<double>(jobs_with_deadline);
  }
  double mean_response_cycles() const {
    return completed_jobs == 0
               ? 0.0
               : static_cast<double>(total_response_cycles) /
                     static_cast<double>(completed_jobs);
  }
};

// Checkpoint support: serializes/parses a SimulationResult as whitespace
// tokens with energies in hexfloat, so accounting restored mid-run (or a
// sweep-cell result replayed from a shard manifest) is bit-identical.
// load_simulation_result throws std::runtime_error (tagged with
// `context`) on malformed input.
void save_simulation_result(std::ostream& out, const SimulationResult& r);
void load_simulation_result(std::istream& in, SimulationResult& r,
                            const std::string& context);

class MulticoreSimulator {
 public:
  MulticoreSimulator(const SystemConfig& system,
                     const CharacterizedSuite& suite,
                     const EnergyModel& energy, SchedulerPolicy& policy,
                     QueueDiscipline discipline = QueueDiscipline::kFifo);

  // Runs the arrival stream to completion and returns the accounting.
  // May be called once per simulator instance.
  SimulationResult run(const std::vector<JobArrival>& arrivals);

  // Streaming variant: pulls arrivals one at a time from `source`
  // (non-decreasing arrival order required), so unbounded streams run in
  // memory bounded by the in-flight population — never the stream
  // length. run(vector) is exactly run_stream over a vector source.
  SimulationResult run_stream(ArrivalSource& source);

  // Stepping interface underneath run_stream, for checkpointed and
  // supervised execution. start_stream pulls the first arrival;
  // advance_stream_until processes events strictly before `limit` and
  // returns true when it paused at the limit (false when the stream
  // drained); finish_stream closes trailing idle intervals and returns
  // the accounting. run_stream(source) is exactly
  //   start_stream(source);
  //   advance_stream_until(source, SimTime max);
  //   finish_stream();
  // so stepping in any number of slices is bit-identical to one shot.
  void start_stream(ArrivalSource& source);
  bool advance_stream_until(ArrivalSource& source, SimTime limit);
  SimulationResult finish_stream();

  // Checkpoint support: serializes the complete mid-stream execution
  // state (cores, queues, in-flight jobs, profiling table, accounting)
  // as whitespace tokens with doubles in hexfloat. restore_stream_state
  // must be called on a freshly constructed simulator with the identical
  // system/suite/energy/policy/discipline (and injector when the saved
  // run had one) before any run; the caller also restores the arrival
  // source to its saved position, after which advance_stream_until
  // continues bit-identically. `paused_at` is the limit the saved run
  // paused at: nothing may be due before it. Throws std::runtime_error
  // (tagged with `context`) on malformed or mismatched input.
  void save_stream_state(std::ostream& out) const;
  void restore_stream_state(std::istream& in, SimTime paused_at,
                            const std::string& context);

  // The jobs held: running ones in core order, then the ready queue.
  std::vector<HeldJob> held_jobs() const;
  // The one-arrival lookahead of a stream run, and the id the next
  // admitted job gets.
  const std::optional<JobArrival>& lookahead() const { return pending_; }
  std::uint64_t next_job_id() const { return next_job_id_; }

  // Final profiling-table state (exploration counts etc.); valid after
  // run().
  const ProfilingTable& table() const { return table_; }

  // Optional schedule observer (e.g. a ScheduleLog); receives every
  // executed slice. Must outlive run(). Set before run().
  void set_observer(ScheduleObserver* observer) { observer_ = observer; }

  // Optional fault injector; must outlive run(). Set before run(). With
  // a zero-fault plan the run is bit-identical to an injector-free run.
  void set_fault_injector(FaultInjector* injector);

  // Differential-testing switch: forces policies onto the reference
  // linear scans instead of the dispatch index. Decisions are identical
  // either way (the fuzz suite proves it); only speed differs. Set
  // before run().
  void set_naive_dispatch(bool naive) {
    HETSCHED_REQUIRE(!ran_);
    naive_dispatch_ = naive;
  }

  // Dispatch-path counters (decisions, bitmap words scanned, clamp-cache
  // hits, rebuilds); valid any time, cumulative over the run.
  const DispatchTelemetry& dispatch_telemetry() const {
    return index_.telemetry();
  }

 private:
  struct Completion {
    SimTime time = 0;
    std::size_t core = 0;
    std::uint64_t job_id = 0;  // stale-entry detection after preemption
    // Min-heap on (time, core) for deterministic ordering.
    friend bool operator>(const Completion& a, const Completion& b) {
      return a.time != b.time ? a.time > b.time : a.core > b.core;
    }
  };

  void start_execution(const Job& job, const Decision& decision,
                       SimTime now);
  // Charges energy/cycles for the portion of the current execution that
  // ran until `now`; returns that portion of a full benchmark execution.
  double settle_execution(std::size_t core, SimTime now);
  void finish_execution(std::size_t core, SimTime now);
  // Takes the running job off `core` at `now`: settles its progress
  // pro-rata and emits the cut slice (a hung execution made none; its
  // stuck window is charged as idle energy), clears the hung flag and
  // marks the core not busy. Returns the job with its remaining
  // fraction; the caller re-queues it and moves the dispatch index.
  Job evict(std::size_t core, SimTime now);
  void preempt_execution(std::size_t core, SimTime now);
  void try_schedule(SimTime now);
  void apply_discipline();
  void accrue_idle(std::size_t core, SimTime until);
  SystemView make_view(SimTime now);

  // Fault machinery (no-ops unless an injector is attached).
  // Reconfigures towards `wanted` with retry/backoff under injected
  // failures; returns the backoff delay spent before the execution can
  // start (0 on first-try success).
  Cycles reconfigure_with_retries(std::size_t core_index,
                                  const CacheConfig& wanted,
                                  std::uint64_t job_id, SimTime now);
  void apply_core_event(const CoreFaultEvent& event, SimTime now);
  // Clears a hung execution: re-queues the job unprogressed and counts
  // the watchdog fire.
  void expire_watchdog(std::size_t core_index, SimTime now);
  void record_fault(FaultRecord::Kind kind, SimTime now, std::size_t core,
                    std::uint64_t job_id);

  const SystemConfig system_;
  const CharacterizedSuite& suite_;
  const EnergyModel& energy_;
  SchedulerPolicy& policy_;
  const QueueDiscipline discipline_;

  std::vector<CoreRuntime> cores_;
  // Incrementally maintained idle/size-class bitmaps; every core.busy /
  // core.online transition below is mirrored into it.
  DispatchIndex index_;
  bool naive_dispatch_ = false;
  ProfilingTable table_;
  std::deque<Job> ready_;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions_;
  std::vector<Job> running_jobs_;    // per core, valid while busy
  std::vector<SimTime> started_at_;  // per core, valid while busy
  // Per core, while busy: the characterised profile of the running
  // (benchmark, configuration) pair, resolved once at dispatch so
  // settle/finish never repeat the lookup. Derived state — rebuilt on
  // checkpoint restore, never serialized.
  std::vector<const ConfigProfile*> running_profile_;

  SimulationResult result_;
  // One-entry memo for result_.per_priority lookups: streams are
  // usually single-priority, and std::map nodes are pointer-stable, so
  // the common case skips the tree walk. Reset when result_ is replaced
  // wholesale (checkpoint restore).
  int cached_priority_ = 0;
  SimulationResult::PriorityStats* cached_level_ = nullptr;
  ScheduleObserver* observer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  std::vector<char> hung_;  // per core: current execution is stuck
  std::map<std::uint64_t, std::uint32_t> watchdog_counts_;  // per job

  // Streaming-loop state, members so a run can pause at a checkpoint
  // boundary and serialize (one-arrival lookahead is the only piece of
  // the stream ever held).
  std::optional<JobArrival> pending_;
  std::uint64_t admitted_ = 0;
  std::uint64_t next_job_id_ = 0;
  bool ran_ = false;
  bool streaming_ = false;  // between start_stream and finish_stream
};

}  // namespace hetsched
