#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

namespace {

namespace st = snapshot_text;

void write_job(std::ostream& out, const Job& job) {
  out << job.job_id << ' ' << job.benchmark_id << ' ' << job.arrival << ' '
      << job.priority << ' ' << (job.deadline.has_value() ? 1 : 0);
  if (job.deadline.has_value()) out << ' ' << *job.deadline;
  out << ' ' << job.cp_rank << ' ';
  st::write_double(out, job.remaining_fraction);
  out << "\n";
}

Job read_job(st::Reader& r) {
  Job job;
  job.job_id = r.read<std::uint64_t>("job id");
  job.benchmark_id = r.read<std::size_t>("benchmark id");
  job.arrival = r.read<SimTime>("job arrival");
  job.priority = r.read<int>("job priority");
  if (r.flag("deadline flag")) job.deadline = r.read<SimTime>("job deadline");
  job.cp_rank = r.read<std::uint32_t>("job cp rank");
  job.remaining_fraction = r.read<double>("remaining fraction");
  return job;
}

}  // namespace

void save_simulation_result(std::ostream& out, const SimulationResult& r) {
  out << "result\nenergies";
  for (const NanoJoules e :
       {r.idle_energy, r.dynamic_energy, r.busy_static_energy, r.cpu_energy,
        r.reconfig_energy, r.profiling_energy, r.tuning_energy}) {
    out << ' ';
    st::write_double(out, e.value());
  }
  out << "\ncounts " << r.makespan << ' ' << r.total_execution_cycles << ' '
      << r.completed_jobs << ' ' << r.stall_events << ' '
      << r.profiling_runs << ' ' << r.tuning_runs << ' '
      << r.reconfigurations << ' ' << r.preemptions << ' '
      << r.jobs_with_deadline << ' ' << r.deadline_misses << ' '
      << r.total_response_cycles << "\n";
  const FaultStats& f = r.faults;
  out << "faults " << f.injected << ' ' << f.core_failures << ' '
      << f.core_recoveries << ' ' << f.jobs_requeued << ' '
      << f.counter_corruptions << ' ' << f.reconfig_failures << ' '
      << f.reconfig_retries << ' ' << f.degraded_executions << ' '
      << f.prediction_fallbacks << ' ' << f.watchdog_fires << "\n";
  out << "per-priority " << r.per_priority.size() << "\n";
  for (const auto& [priority, stats] : r.per_priority) {
    out << priority << ' ' << stats.completed << ' '
        << stats.total_response_cycles << ' ' << stats.deadline_misses
        << "\n";
  }
  out << "per-core " << r.per_core.size() << "\n";
  for (const CoreUsage& usage : r.per_core) {
    out << usage.busy_cycles << ' ' << usage.executions << ' ';
    st::write_double(out, usage.utilization);
    out << "\n";
  }
}

void load_simulation_result(std::istream& in, SimulationResult& r,
                            const std::string& context) {
  st::Reader reader(in, context);
  reader.expect("result");
  reader.expect("energies");
  for (NanoJoules* e :
       {&r.idle_energy, &r.dynamic_energy, &r.busy_static_energy,
        &r.cpu_energy, &r.reconfig_energy, &r.profiling_energy,
        &r.tuning_energy}) {
    *e = NanoJoules(reader.read<double>("energy"));
  }
  reader.expect("counts");
  r.makespan = reader.read<Cycles>("makespan");
  r.total_execution_cycles = reader.read<Cycles>("total execution cycles");
  r.completed_jobs = reader.read<std::uint64_t>("completed jobs");
  r.stall_events = reader.read<std::uint64_t>("stall events");
  r.profiling_runs = reader.read<std::uint64_t>("profiling runs");
  r.tuning_runs = reader.read<std::uint64_t>("tuning runs");
  r.reconfigurations = reader.read<std::uint64_t>("reconfigurations");
  r.preemptions = reader.read<std::uint64_t>("preemptions");
  r.jobs_with_deadline = reader.read<std::uint64_t>("jobs with deadline");
  r.deadline_misses = reader.read<std::uint64_t>("deadline misses");
  r.total_response_cycles = reader.read<Cycles>("total response cycles");
  reader.expect("faults");
  FaultStats& f = r.faults;
  for (std::uint64_t* field :
       {&f.injected, &f.core_failures, &f.core_recoveries, &f.jobs_requeued,
        &f.counter_corruptions, &f.reconfig_failures, &f.reconfig_retries,
        &f.degraded_executions, &f.prediction_fallbacks,
        &f.watchdog_fires}) {
    *field = reader.read<std::uint64_t>("fault counter");
  }
  reader.expect("per-priority");
  const std::size_t priorities = reader.count("priority count");
  r.per_priority.clear();
  for (std::size_t i = 0; i < priorities; ++i) {
    const int priority = reader.read<int>("priority level");
    SimulationResult::PriorityStats stats;
    stats.completed = reader.read<std::uint64_t>("priority completed");
    stats.total_response_cycles =
        reader.read<Cycles>("priority response cycles");
    stats.deadline_misses = reader.read<std::uint64_t>("priority misses");
    r.per_priority.emplace(priority, stats);
  }
  reader.expect("per-core");
  r.per_core.assign(reader.count("core usage count"), CoreUsage{});
  for (CoreUsage& usage : r.per_core) {
    usage.busy_cycles = reader.read<Cycles>("core busy");
    usage.executions = reader.read<std::uint64_t>("core executions");
    usage.utilization = reader.read<double>("core utilization");
  }
}

std::string_view to_string(ExecutionKind k) {
  switch (k) {
    case ExecutionKind::kNormal: return "normal";
    case ExecutionKind::kProfiling: return "profiling";
    case ExecutionKind::kTuning: return "tuning";
  }
  return "unknown";
}

MulticoreSimulator::MulticoreSimulator(const SystemConfig& system,
                                       const CharacterizedSuite& suite,
                                       const EnergyModel& energy,
                                       SchedulerPolicy& policy,
                                       QueueDiscipline discipline)
    : system_(system), suite_(suite), energy_(energy), policy_(policy),
      discipline_(discipline), index_(system_), table_(suite.size()) {
  HETSCHED_REQUIRE(system_.valid());
  HETSCHED_REQUIRE(suite_.size() > 0);
  cores_.reserve(system_.cores.size());
  for (const CoreSpec& spec : system_.cores) {
    CoreRuntime core;
    core.spec = spec;
    core.current_config = spec.initial_config;
    cores_.push_back(core);
  }
  running_jobs_.resize(cores_.size());
  started_at_.resize(cores_.size(), 0);
  running_profile_.resize(cores_.size(), nullptr);
  hung_.resize(cores_.size(), 0);
  result_.per_core.resize(cores_.size());
}

void MulticoreSimulator::set_fault_injector(FaultInjector* injector,
                                            ResilienceConfig resilience) {
  HETSCHED_REQUIRE(!ran_);
  if (injector != nullptr) {
    for (const CoreFaultEvent& event : injector->plan().core_events) {
      HETSCHED_REQUIRE(event.core < cores_.size());
    }
  }
  injector_ = injector;
  resilience_ = resilience;
}

SystemView MulticoreSimulator::make_view(SimTime now) {
  return SystemView(now, system_, cores_, table_, energy_, running_jobs_,
                    &result_.faults, &index_, naive_dispatch_);
}

void MulticoreSimulator::record_fault(FaultRecord::Kind kind, SimTime now,
                                      std::size_t core,
                                      std::uint64_t job_id) {
  if (observer_ != nullptr) {
    observer_->on_fault(FaultRecord{now, core, job_id, kind});
  }
}

void MulticoreSimulator::accrue_idle(std::size_t core, SimTime until) {
  CoreRuntime& c = cores_[core];
  HETSCHED_ASSERT(!c.busy);
  if (until > c.idle_since) {
    const double idle_cycles = static_cast<double>(until - c.idle_since);
    result_.idle_energy +=
        energy_.idle_per_cycle(c.current_config) * idle_cycles;
    if (observer_ != nullptr) {
      observer_->on_idle(IdleEvent{core, c.idle_since, until});
    }
    c.idle_since = until;
  }
}

Cycles MulticoreSimulator::reconfigure_with_retries(
    std::size_t core_index, const CacheConfig& wanted,
    std::uint64_t job_id, SimTime now) {
  CoreRuntime& core = cores_[core_index];
  // Each attempt drives the tuner: charge write-back traffic for (on
  // average) half the lines being dirty.
  const auto charge_flush = [&] {
    const double flushed =
        static_cast<double>(core.current_config.num_lines()) / 2.0;
    result_.reconfig_energy +=
        energy_.writeback_energy(core.current_config) * flushed;
  };

  if (injector_ == nullptr ||
      injector_->plan().reconfig_failure_rate <= 0.0) {
    charge_flush();
    ++result_.reconfigurations;
    core.current_config = wanted;
    if (observer_ != nullptr) {
      observer_->on_reconfig(
          ReconfigEvent{now, core_index, job_id, 0, true, 0});
    }
    return 0;
  }

  // Injected reconfiguration failures leave the cache stuck in its
  // previous configuration; retry with exponential backoff, then degrade
  // to running as-is.
  Cycles backoff = 0;
  Cycles wait = resilience_.reconfig_backoff_base;
  for (std::uint32_t attempt = 0;
       attempt <= resilience_.reconfig_max_retries; ++attempt) {
    charge_flush();
    if (!injector_->reconfig_fails(core_index, job_id,
                                   static_cast<int>(attempt))) {
      ++result_.reconfigurations;
      core.current_config = wanted;
      if (observer_ != nullptr) {
        observer_->on_reconfig(
            ReconfigEvent{now, core_index, job_id, attempt, true, 0});
      }
      return backoff;
    }
    ++result_.faults.injected;
    ++result_.faults.reconfig_failures;
    record_fault(FaultRecord::Kind::kReconfigFailure, now, core_index,
                 job_id);
    const bool retries = attempt < resilience_.reconfig_max_retries;
    if (observer_ != nullptr) {
      observer_->on_reconfig(ReconfigEvent{now, core_index, job_id, attempt,
                                           false, retries ? wait : 0});
    }
    if (retries) {
      backoff += wait;
      wait *= 2;
      ++result_.faults.reconfig_retries;
    }
  }
  ++result_.faults.degraded_executions;
  return backoff;
}

void MulticoreSimulator::start_execution(const Job& job,
                                         const Decision& decision,
                                         SimTime now) {
  HETSCHED_REQUIRE(decision.core < cores_.size());
  CoreRuntime& core = cores_[decision.core];
  HETSCHED_REQUIRE(!core.busy);
  HETSCHED_REQUIRE(core.online);
  HETSCHED_REQUIRE(decision.config.valid());
  HETSCHED_REQUIRE(decision.config.size_bytes ==
                   core.spec.cache_size_bytes);
  HETSCHED_REQUIRE(decision.exec != ExecutionKind::kProfiling ||
                   core.spec.can_profile);
  HETSCHED_REQUIRE(job.remaining_fraction > 0.0 &&
                   job.remaining_fraction <= 1.0);

  // Close the idle interval under the outgoing configuration.
  accrue_idle(decision.core, now);

  // Reconfigure the L1 if the decision asks for a different shape; under
  // injected failures this may stall (backoff) or leave the previous
  // configuration in place (degraded execution).
  Cycles backoff = 0;
  if (!(core.current_config == decision.config)) {
    backoff = reconfigure_with_retries(decision.core, decision.config,
                                       job.job_id, now);
    if (backoff > 0) {
      // The core sits waiting between retry attempts.
      result_.idle_energy += energy_.idle_per_cycle(core.current_config) *
                             static_cast<double>(backoff);
    }
  }

  // The execution replays the configuration actually in effect — the
  // stale one when reconfiguration degraded.
  const BenchmarkProfile& profile = suite_.benchmark(job.benchmark_id);
  const ConfigProfile& cp = profile.profile_for(core.current_config);
  running_profile_[decision.core] = &cp;
  const auto duration = std::max<Cycles>(
      1, static_cast<Cycles>(std::llround(
             job.remaining_fraction *
             static_cast<double>(cp.energy.total_cycles))));

  // Stuck-job injection: the execution wedges and holds the core until
  // the watchdog timeout instead of completing. Jobs whose watchdog
  // retry budget is spent are dispatched normally.
  bool hangs = false;
  if (injector_ != nullptr && injector_->plan().stuck_job_rate > 0.0) {
    const auto it = watchdog_counts_.find(job.job_id);
    const std::uint32_t fires =
        it == watchdog_counts_.end() ? 0 : it->second;
    if (fires < resilience_.watchdog_max_retries) {
      hangs = injector_->job_hangs(job.job_id);
    }
  }

  core.busy = true;
  index_.mark_busy(decision.core);
  core.busy_until = hangs ? now + resilience_.watchdog_timeout
                          : now + backoff + duration;
  core.running_job_id = job.job_id;
  core.running_benchmark = job.benchmark_id;
  core.running_kind = decision.exec;
  ++core.executions;
  running_jobs_[decision.core] = job;
  started_at_[decision.core] = hangs ? now : now + backoff;
  hung_[decision.core] = hangs ? 1 : 0;

  if (observer_ != nullptr) {
    observer_->on_dispatch(DispatchEvent{
        now, decision.core, job.job_id, job.benchmark_id, decision.exec,
        backoff, hangs ? resilience_.watchdog_timeout : duration, hangs});
  }

  completions_.push(Completion{core.busy_until, decision.core, job.job_id});
}

double MulticoreSimulator::settle_execution(std::size_t core_index,
                                            SimTime now) {
  CoreRuntime& core = cores_[core_index];
  HETSCHED_ASSERT(core.busy);
  const ConfigProfile& cp = *running_profile_[core_index];

  // `started_at` can still lie ahead of `now` if the execution is cut
  // down during a reconfiguration-retry backoff window: nothing ran yet.
  const Cycles executed = now > started_at_[core_index]
                              ? now - started_at_[core_index]
                              : 0;
  const double portion = static_cast<double>(executed) /
                         static_cast<double>(cp.energy.total_cycles);

  result_.dynamic_energy += cp.energy.dynamic_energy * portion;
  result_.busy_static_energy += cp.energy.static_energy * portion;
  result_.cpu_energy += cp.energy.cpu_energy * portion;
  core.busy_cycles += executed;
  result_.total_execution_cycles += executed;
  return portion;
}

void MulticoreSimulator::finish_execution(std::size_t core_index,
                                          SimTime now) {
  CoreRuntime& core = cores_[core_index];
  HETSCHED_ASSERT(core.busy);
  HETSCHED_ASSERT(core.busy_until == now);

  const double portion = settle_execution(core_index, now);
  const std::size_t benchmark = core.running_benchmark;
  const ConfigProfile& cp = *running_profile_[core_index];
  const Job& job = running_jobs_[core_index];

  ++result_.completed_jobs;
  result_.total_response_cycles += now - job.arrival;
  if (cached_level_ == nullptr || cached_priority_ != job.priority) {
    cached_priority_ = job.priority;
    cached_level_ = &result_.per_priority[job.priority];
  }
  SimulationResult::PriorityStats& level = *cached_level_;
  ++level.completed;
  level.total_response_cycles += now - job.arrival;
  if (job.deadline.has_value()) {
    ++result_.jobs_with_deadline;
    if (now > *job.deadline) {
      ++result_.deadline_misses;
      ++level.deadline_misses;
    }
  }

  switch (core.running_kind) {
    case ExecutionKind::kProfiling:
      ++result_.profiling_runs;
      result_.profiling_energy += cp.energy.total() * portion;
      break;
    case ExecutionKind::kTuning:
      ++result_.tuning_runs;
      result_.tuning_energy += cp.energy.total() * portion;
      break;
    case ExecutionKind::kNormal:
      break;
  }

  // Hardware counters: the measured energy/cycles of a complete execution
  // in this configuration land in the profiling table regardless of
  // policy. (Recorded values are full-execution magnitudes.)
  table_.record(benchmark, core.current_config,
                Observation{cp.energy.total(), cp.energy.dynamic_energy,
                            cp.energy.total_cycles});

  const bool was_profiling = core.running_kind == ExecutionKind::kProfiling;
  if (was_profiling) {
    const BenchmarkProfile& profile = suite_.benchmark(benchmark);
    ProfilingTable::Entry& entry = table_.entry(benchmark);
    entry.profiled = true;
    entry.statistics = profile.base_statistics;
    // Counter corruption: the recorded statistics — the only channel to
    // the policy — may be noisy or garbage. The policy's sanity guard is
    // responsible for surviving this.
    if (injector_ != nullptr &&
        injector_->corrupt_statistics(benchmark, entry.statistics)) {
      ++result_.faults.injected;
      ++result_.faults.counter_corruptions;
      record_fault(FaultRecord::Kind::kCounterCorruption, now, core_index,
                   job.job_id);
    }
  }

  if (observer_ != nullptr && now > started_at_[core_index]) {
    observer_->on_slice(ScheduledSlice{job.job_id, benchmark, core_index,
                                       started_at_[core_index], now,
                                       core.current_config,
                                       core.running_kind, true});
  }

  core.busy = false;
  index_.mark_idle(core_index);
  core.idle_since = now;
  result_.makespan = std::max(result_.makespan, now);

  if (was_profiling) {
    SystemView view = make_view(now);
    policy_.on_profiled(benchmark, view);
  }
}

void MulticoreSimulator::preempt_execution(std::size_t core_index,
                                           SimTime now) {
  CoreRuntime& core = cores_[core_index];
  HETSCHED_REQUIRE(core.busy);
  HETSCHED_REQUIRE(core.running_kind != ExecutionKind::kProfiling &&
                   "profiling runs cannot be preempted");

  if (hung_[core_index]) {
    // Preempting a wedged execution: no progress to settle; the stuck
    // window burned idle power. The victim re-queues unprogressed.
    if (now > started_at_[core_index]) {
      result_.idle_energy +=
          energy_.idle_per_cycle(core.current_config) *
          static_cast<double>(now - started_at_[core_index]);
    }
    ready_.push_front(running_jobs_[core_index]);
    ++result_.preemptions;
    if (observer_ != nullptr) {
      observer_->on_preempt(PreemptEvent{
          now, core_index, running_jobs_[core_index].job_id, true});
    }
    hung_[core_index] = 0;
    core.busy = false;
    index_.mark_idle(core_index);
    core.idle_since = now;
    return;
  }

  const double portion = settle_execution(core_index, now);
  Job victim = running_jobs_[core_index];
  victim.remaining_fraction =
      std::max(0.0, victim.remaining_fraction - portion);
  if (victim.remaining_fraction < 1e-9) {
    // Degenerate preempt-at-completion-boundary: keep a token remainder
    // so the victim still flows through a final (1-cycle) execution and
    // completion accounting stays uniform.
    victim.remaining_fraction = 1e-9;
  }
  if (observer_ != nullptr && now > started_at_[core_index]) {
    observer_->on_slice(ScheduledSlice{
        victim.job_id, victim.benchmark_id, core_index,
        started_at_[core_index], now, core.current_config,
        core.running_kind, false});
  }
  ready_.push_front(victim);
  ++result_.preemptions;
  if (observer_ != nullptr) {
    observer_->on_preempt(PreemptEvent{now, core_index, victim.job_id,
                                       false});
  }

  core.busy = false;
  index_.mark_idle(core_index);
  core.idle_since = now;
  // The stale completion entry for this execution is skipped via job_id
  // validation when it surfaces.
}

void MulticoreSimulator::apply_core_event(const CoreFaultEvent& event,
                                          SimTime now) {
  CoreRuntime& core = cores_[event.core];
  if (event.fail) {
    if (!core.online) return;  // already down: redundant event
    ++result_.faults.injected;
    ++result_.faults.core_failures;
    std::uint64_t victim_id = 0;
    if (core.busy) {
      // The core dies mid-execution: settle the running job pro-rata
      // (the preemption model) and re-queue it to resume elsewhere.
      Job victim = running_jobs_[event.core];
      victim_id = victim.job_id;
      if (hung_[event.core]) {
        // A wedged execution made no progress; the stuck window burned
        // idle power.
        if (now > started_at_[event.core]) {
          result_.idle_energy +=
              energy_.idle_per_cycle(core.current_config) *
              static_cast<double>(now - started_at_[event.core]);
        }
        hung_[event.core] = 0;
      } else {
        const double portion = settle_execution(event.core, now);
        victim.remaining_fraction =
            std::max(1e-9, victim.remaining_fraction - portion);
        if (observer_ != nullptr && now > started_at_[event.core]) {
          observer_->on_slice(ScheduledSlice{
              victim.job_id, victim.benchmark_id, event.core,
              started_at_[event.core], now, core.current_config,
              core.running_kind, false});
        }
      }
      ready_.push_front(victim);
      ++result_.faults.jobs_requeued;
      core.busy = false;
      // The stale completion entry is discarded via the liveness check
      // when it surfaces.
    } else {
      // Close the idle interval: a powered-off core stops leaking.
      accrue_idle(event.core, now);
    }
    core.online = false;
    // mark_offline handles both prior states: clears the idle bit when
    // the core was idle, no-op on the bit when it was busy.
    index_.mark_offline(event.core);
    record_fault(FaultRecord::Kind::kCoreFailure, now, event.core,
                 victim_id);
  } else {
    if (core.online) return;  // redundant recovery
    ++result_.faults.core_recoveries;
    core.online = true;
    index_.mark_online(event.core);
    core.idle_since = now;
    record_fault(FaultRecord::Kind::kCoreRecovery, now, event.core, 0);
  }
}

void MulticoreSimulator::expire_watchdog(std::size_t core_index,
                                         SimTime now) {
  CoreRuntime& core = cores_[core_index];
  HETSCHED_ASSERT(core.busy && hung_[core_index]);
  const Job& victim = running_jobs_[core_index];

  ++result_.faults.injected;
  ++result_.faults.watchdog_fires;
  ++result_.faults.jobs_requeued;
  ++watchdog_counts_[victim.job_id];

  // The wedged core burned idle power for the whole stuck window; the
  // job made no progress and re-queues at the front for re-dispatch.
  if (now > started_at_[core_index]) {
    result_.idle_energy +=
        energy_.idle_per_cycle(core.current_config) *
        static_cast<double>(now - started_at_[core_index]);
  }
  ready_.push_front(victim);
  record_fault(FaultRecord::Kind::kWatchdogFire, now, core_index,
               victim.job_id);

  hung_[core_index] = 0;
  core.busy = false;
  index_.mark_idle(core_index);
  core.idle_since = now;
}

void MulticoreSimulator::apply_discipline() {
  if (discipline_ == QueueDiscipline::kFifo || ready_.size() < 2) return;
  if (discipline_ == QueueDiscipline::kEdf) {
    std::stable_sort(ready_.begin(), ready_.end(),
                     [](const Job& a, const Job& b) {
                       const SimTime da = a.deadline.value_or(
                           std::numeric_limits<SimTime>::max());
                       const SimTime db = b.deadline.value_or(
                           std::numeric_limits<SimTime>::max());
                       return da < db;
                     });
  } else {  // kPriority
    std::stable_sort(ready_.begin(), ready_.end(),
                     [](const Job& a, const Job& b) {
                       if (a.priority != b.priority) {
                         return a.priority > b.priority;
                       }
                       return a.arrival < b.arrival;
                     });
  }
}

void MulticoreSimulator::try_schedule(SimTime now) {
  apply_discipline();

  // Consider each currently queued job at most once per invocation;
  // stalled jobs go to the back of the queue (Section IV.A).
  std::size_t attempts = ready_.size();
  bool any_started = false;
  while (attempts-- > 0 && !ready_.empty()) {
    const bool has_idle =
        naive_dispatch_
            ? std::any_of(cores_.begin(), cores_.end(),
                          [](const CoreRuntime& c) {
                            return !c.busy && c.online;
                          })
            : index_.any_idle();
    if (!has_idle && !policy_.can_preempt()) break;

    Job job = ready_.front();
    ready_.pop_front();

    SystemView view = make_view(now);
    index_.note_decision();
    const Decision decision = policy_.decide(job, view);
    switch (decision.kind) {
      case Decision::Kind::kRun:
        start_execution(job, decision, now);
        any_started = true;
        break;
      case Decision::Kind::kPreempt:
        HETSCHED_REQUIRE(policy_.can_preempt());
        preempt_execution(decision.core, now);
        start_execution(job, decision, now);
        any_started = true;
        break;
      case Decision::Kind::kStall:
        ++result_.stall_events;
        if (observer_ != nullptr) {
          observer_->on_stall(StallEvent{now, job.job_id, job.benchmark_id});
        }
        ready_.push_back(job);
        break;
    }
  }

  // Liveness: with every core idle a sound policy must schedule something
  // (its best core is idle by definition), otherwise the simulation could
  // deadlock with no future event. Under fault injection a stall can be
  // legitimate (e.g. every profiling core offline until its scheduled
  // recovery); the run loop then advances to the next fault event or
  // reports the deadlock.
  if (!ready_.empty() && completions_.empty() && injector_ == nullptr) {
    HETSCHED_REQUIRE(any_started);
  }
}

SimulationResult MulticoreSimulator::run(
    const std::vector<JobArrival>& arrivals) {
  HETSCHED_REQUIRE(!arrivals.empty());
  HETSCHED_REQUIRE(std::is_sorted(
      arrivals.begin(), arrivals.end(),
      [](const JobArrival& a, const JobArrival& b) {
        return a.arrival < b.arrival;
      }));
  VectorArrivalSource source(arrivals);
  return run_stream(source);
}

SimulationResult MulticoreSimulator::run_stream(ArrivalSource& source) {
  start_stream(source);
  advance_stream_until(source, std::numeric_limits<SimTime>::max());
  return finish_stream();
}

void MulticoreSimulator::start_stream(ArrivalSource& source) {
  HETSCHED_REQUIRE(!ran_);
  ran_ = true;
  streaming_ = true;
  // One-arrival lookahead: the only piece of the stream ever held.
  pending_ = source.next();
  HETSCHED_REQUIRE(pending_.has_value() && "empty arrival stream");
}

bool MulticoreSimulator::advance_stream_until(ArrivalSource& source,
                                              SimTime limit) {
  HETSCHED_REQUIRE(streaming_);

  while (pending_.has_value() || !completions_.empty() || !ready_.empty()) {
    // Next event time: earliest completion, arrival or fault event (a
    // scheduled recovery can be the only event able to unblock queued
    // work).
    const bool have_completion = !completions_.empty();
    const bool have_arrival = pending_.has_value();
    const std::optional<SimTime> fault_time =
        injector_ != nullptr ? injector_->next_core_event_time()
                             : std::nullopt;
    if (!have_completion && !have_arrival && !fault_time.has_value()) {
      // Only reachable under fault injection: the liveness guard in
      // try_schedule forbids this state in fault-free runs.
      HETSCHED_ASSERT(injector_ != nullptr);
      throw std::runtime_error(
          "MulticoreSimulator: deadlock — " +
          std::to_string(ready_.size()) +
          " job(s) pending with every event source exhausted (cores "
          "offline without a scheduled recovery?)");
    }
    SimTime now = std::numeric_limits<SimTime>::max();
    if (have_completion) now = std::min(now, completions_.top().time);
    if (have_arrival) now = std::min(now, pending_->arrival);
    if (fault_time.has_value()) now = std::min(now, *fault_time);

    // Pause at the limit without touching anything scheduled at or after
    // it: the caller can serialize here (or just breathe) and a later
    // advance call resumes bit-identically.
    if (now >= limit) return true;

    // Retire every live completion at `now` (deterministic core order);
    // entries orphaned by preemption or core failure are discarded, and
    // hung executions surface as watchdog expiries.
    while (!completions_.empty() && completions_.top().time == now) {
      const Completion completion = completions_.top();
      completions_.pop();
      const CoreRuntime& core = cores_[completion.core];
      const bool live = core.busy &&
                        core.running_job_id == completion.job_id &&
                        core.busy_until == completion.time;
      if (live) {
        if (hung_[completion.core]) {
          expire_watchdog(completion.core, now);
        } else {
          finish_execution(completion.core, now);
        }
      }
    }
    // Apply every due core failure/recovery (jobs finishing exactly at
    // the failure cycle above still completed).
    if (injector_ != nullptr) {
      for (const CoreFaultEvent& event : injector_->take_core_events(now)) {
        apply_core_event(event, now);
      }
    }
    // Completions retired above may have fed back into the arrival
    // source (DAG release-on-completion): a successor released at `now`
    // can sort before the held lookahead, or refill an exhausted stream.
    // Push the stale lookahead back and re-poll before admitting.
    if (source.lookahead_stale()) {
      if (pending_.has_value()) source.unget(*pending_);
      pending_ = source.next();
      HETSCHED_REQUIRE((!pending_.has_value() || pending_->arrival >= now) &&
                       "released arrival must not precede its trigger");
    }
    // Admit every arrival at `now`.
    while (pending_.has_value() && pending_->arrival == now) {
      Job job;
      job.job_id = next_job_id_++;
      job.benchmark_id = pending_->benchmark_id;
      job.arrival = now;
      job.priority = pending_->priority;
      job.deadline = pending_->deadline;
      job.cp_rank = pending_->cp_rank;
      ready_.push_back(job);
      ++admitted_;
      if (observer_ != nullptr) {
        observer_->on_arrival(ArrivalEvent{now, job.job_id,
                                           job.benchmark_id, job.priority,
                                           job.cp_rank});
      }
      pending_ = source.next();
      HETSCHED_REQUIRE((!pending_.has_value() || pending_->arrival >= now) &&
                       "arrival stream must be non-decreasing in time");
    }

    // Queue depth after admission, before scheduling: the round's
    // high-water mark of queued work.
    if (observer_ != nullptr) {
      observer_->on_queue_depth(QueueSample{now, ready_.size()});
    }

    try_schedule(now);
  }
  return false;
}

SimulationResult MulticoreSimulator::finish_stream() {
  HETSCHED_REQUIRE(streaming_);
  HETSCHED_REQUIRE(!pending_.has_value() && completions_.empty() &&
                   ready_.empty() && "stream not drained");
  streaming_ = false;

  // Close every core's trailing idle interval at the makespan; cores
  // still offline at the end accrued nothing since their failure.
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    HETSCHED_ASSERT(!cores_[i].busy);
    if (cores_[i].online) accrue_idle(i, result_.makespan);
  }

  for (std::size_t i = 0; i < cores_.size(); ++i) {
    result_.per_core[i].busy_cycles = cores_[i].busy_cycles;
    result_.per_core[i].executions = cores_[i].executions;
    result_.per_core[i].utilization =
        result_.makespan == 0
            ? 0.0
            : static_cast<double>(cores_[i].busy_cycles) /
                  static_cast<double>(result_.makespan);
  }
  HETSCHED_ASSERT(result_.completed_jobs == admitted_);
  return result_;
}

void MulticoreSimulator::save_stream_state(std::ostream& out) const {
  HETSCHED_REQUIRE(streaming_);
  out << "simulator " << cores_.size() << "\n";
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const CoreRuntime& c = cores_[i];
    out << "core " << i << ' ' << c.current_config.name() << ' '
        << (c.busy ? 1 : 0) << ' ' << (c.online ? 1 : 0) << ' '
        << c.busy_until << ' ' << static_cast<int>(c.running_kind) << ' '
        << c.idle_since << ' ' << c.busy_cycles << ' '
        << c.executions << "\n";
  }
  // Every running-job slot verbatim (stale slots included) so restored
  // memory is byte-stable, not just behaviourally equivalent; a core's
  // running job id and benchmark are its slot's.
  out << "running-jobs " << running_jobs_.size() << "\n";
  for (const Job& job : running_jobs_) write_job(out, job);
  out << "started-at";
  for (const SimTime t : started_at_) out << ' ' << t;
  out << "\nhung";
  for (const char h : hung_) out << ' ' << static_cast<int>(h);
  out << "\nready " << ready_.size() << "\n";
  for (const Job& job : ready_) write_job(out, job);
  // Drain a copy of the completion heap: pops come out sorted by
  // (time, core), a canonical order independent of heap layout.
  auto heap = completions_;
  out << "completions " << heap.size() << "\n";
  while (!heap.empty()) {
    const Completion c = heap.top();
    heap.pop();
    out << c.time << ' ' << c.core << ' ' << c.job_id << "\n";
  }
  out << "watchdog " << watchdog_counts_.size() << "\n";
  for (const auto& [job_id, fires] : watchdog_counts_) {
    out << job_id << ' ' << fires << "\n";
  }
  table_.save_state(out);
  save_simulation_result(out, result_);
  out << "pending " << (pending_.has_value() ? 1 : 0);
  if (pending_.has_value()) {
    out << ' ' << pending_->benchmark_id << ' ' << pending_->arrival << ' '
        << pending_->priority << ' '
        << (pending_->deadline.has_value() ? 1 : 0);
    if (pending_->deadline.has_value()) out << ' ' << *pending_->deadline;
    out << ' ' << pending_->cp_rank;
  }
  out << "\nadmitted " << admitted_ << ' ' << next_job_id_ << "\n";
}

void MulticoreSimulator::restore_stream_state(std::istream& in,
                                              SimTime paused_at,
                                              const std::string& context) {
  HETSCHED_REQUIRE(!ran_);
  st::Reader r(in, context);
  r.expect("simulator");
  if (r.read<std::size_t>("core count") != cores_.size()) {
    r.fail("core count does not match the configured system");
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    r.expect("core");
    if (r.read<std::size_t>("core index") != i) {
      r.fail("core indices out of order");
    }
    CoreRuntime& c = cores_[i];
    const std::string config_name = r.token("core configuration");
    const auto config = CacheConfig::parse(config_name);
    if (!config.has_value() ||
        config->size_bytes != c.spec.cache_size_bytes) {
      r.fail("core configuration '" + config_name +
             "' is invalid for this system");
    }
    c.current_config = *config;
    c.busy = r.flag("core busy");
    c.online = r.flag("core online");
    // Only a fault plan takes a core offline, and never a busy one.
    if (!c.online && (c.busy || injector_ == nullptr)) {
      r.fail("core offline while busy or without a fault plan");
    }
    c.busy_until = r.read<SimTime>("core busy-until");
    const int kind = r.read<int>("core running kind");
    if (kind < 0 || kind > static_cast<int>(ExecutionKind::kTuning)) {
      r.fail("core running kind out of range");
    }
    c.running_kind = static_cast<ExecutionKind>(kind);
    c.idle_since = r.read<SimTime>("core idle-since");
    c.busy_cycles = r.read<Cycles>("core busy cycles");
    c.executions = r.read<std::uint64_t>("core executions");
  }
  r.expect("running-jobs");
  if (r.read<std::size_t>("running-job count") != running_jobs_.size()) {
    r.fail("running-job count does not match core count");
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    running_jobs_[i] = read_job(r);
    if (running_jobs_[i].benchmark_id >= suite_.size()) {
      r.fail("core running benchmark out of range");
    }
    // Derived per-core state: the running job's identity and the
    // execution profile of its (benchmark, configuration) pair.
    CoreRuntime& c = cores_[i];
    c.running_job_id = running_jobs_[i].job_id;
    c.running_benchmark = running_jobs_[i].benchmark_id;
    running_profile_[i] =
        c.busy ? &suite_.benchmark(c.running_benchmark)
                      .profile_for(c.current_config)
               : nullptr;
  }
  r.expect("started-at");
  for (SimTime& t : started_at_) t = r.read<SimTime>("started-at");
  r.expect("hung");
  for (char& h : hung_) h = r.flag("hung flag") ? 1 : 0;
  r.expect("ready");
  const std::size_t queued = r.count("ready-queue size");
  ready_.clear();
  for (std::size_t i = 0; i < queued; ++i) {
    ready_.push_back(read_job(r));
    if (ready_.back().benchmark_id >= suite_.size()) {
      r.fail("queued benchmark id out of range");
    }
  }
  r.expect("completions");
  const std::size_t in_flight = r.count("completion count");
  while (!completions_.empty()) completions_.pop();
  for (std::size_t i = 0; i < in_flight; ++i) {
    Completion c;
    c.time = r.read<SimTime>("completion time");
    c.core = r.read<std::size_t>("completion core");
    c.job_id = r.read<std::uint64_t>("completion job");
    if (c.core >= cores_.size()) r.fail("completion core out of range");
    if (c.time < paused_at) r.fail("completion before the boundary");
    completions_.push(c);
  }
  r.expect("watchdog");
  const std::size_t watchdogs = r.count("watchdog count");
  watchdog_counts_.clear();
  for (std::size_t i = 0; i < watchdogs; ++i) {
    const auto job_id = r.read<std::uint64_t>("watchdog job");
    watchdog_counts_[job_id] = r.read<std::uint32_t>("watchdog fires");
  }
  table_.restore_state(in, context);
  load_simulation_result(in, result_, context);
  cached_level_ = nullptr;  // result_ was replaced; map nodes are new
  if (result_.per_core.size() != cores_.size()) {
    r.fail("per-core usage count does not match");
  }
  r.expect("pending");
  pending_.reset();
  if (r.flag("pending flag")) {
    JobArrival arrival;
    arrival.benchmark_id = r.read<std::size_t>("pending benchmark");
    arrival.arrival = r.read<SimTime>("pending arrival");
    arrival.priority = r.read<int>("pending priority");
    if (r.flag("pending deadline flag")) {
      arrival.deadline = r.read<SimTime>("pending deadline");
    }
    arrival.cp_rank = r.read<std::uint32_t>("pending cp rank");
    if (arrival.benchmark_id >= suite_.size()) {
      r.fail("pending benchmark id out of range");
    }
    if (arrival.arrival < paused_at) {
      r.fail("pending arrival before the boundary");
    }
    pending_ = arrival;
  }
  r.expect("admitted");
  admitted_ = r.read<std::uint64_t>("admitted count");
  next_job_id_ = r.read<std::uint64_t>("next job id");
  // Every held job once, under an id already handed out.
  std::vector<std::uint64_t> held;
  for (const HeldJob& job : held_jobs()) {
    if (job.job_id >= next_job_id_) r.fail("held job id not yet admitted");
    held.push_back(job.job_id);
  }
  std::sort(held.begin(), held.end());
  if (std::adjacent_find(held.begin(), held.end()) != held.end()) {
    r.fail("held job id listed twice");
  }
  // Every admitted job is either retired or held, under ids 0, 1, ...
  if (next_job_id_ != admitted_ ||
      admitted_ != result_.completed_jobs + held.size()) {
    r.fail("admitted count does not match the retired and held jobs");
  }
  // The index is derived state: rebuild it from the restored cores
  // instead of serializing it, so checkpoints stay format-stable and the
  // resumed run is bit-identical by construction.
  index_.rebuild(cores_);
  ran_ = true;
  streaming_ = true;
}

std::vector<HeldJob> MulticoreSimulator::held_jobs() const {
  std::vector<HeldJob> held;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].busy) held.push_back({running_jobs_[i].job_id, started_at_[i]});
  }
  for (const Job& job : ready_) held.push_back({job.job_id, std::nullopt});
  return held;
}

}  // namespace hetsched
