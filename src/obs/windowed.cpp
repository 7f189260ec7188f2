#include "obs/windowed.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/latency.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;

void write_window(std::ostream& out, const WindowRecord& w) {
  out << w.index << ' ' << w.start << ' ' << w.end << ' '
      << w.jobs_completed << ' ' << w.slices << ' ' << w.dispatches << ' '
      << w.preemptions << ' ' << w.stalls << ' ' << w.migrations << ' '
      << w.fault_migrations << ' '
      << w.queue_peak << ' ' << w.prediction_hits << ' '
      << w.prediction_misses << ' ' << w.reconfig_attempts << ' '
      << w.faults << ' ' << w.dag_releases << ' ' << w.dag_ready_peak << ' '
      << w.dag_release_latency << ' ' << w.dag_cp_slack << ' '
      << w.lat_jobs << ' ' << w.lat_max << ' ';
  st::write_double(out, w.lat_p50);
  out << ' ';
  st::write_double(out, w.lat_p95);
  out << ' ';
  st::write_double(out, w.lat_p99);
  out << ' ';
  st::write_double(out, w.energy_mj);
  for (const Cycles c : w.busy_cycles) out << ' ' << c;
  for (const Cycles c : w.idle_cycles) out << ' ' << c;
  out << "\n";
}

WindowRecord read_window(st::Reader& r, std::size_t cores) {
  WindowRecord w;
  w.index = r.read<std::uint64_t>("window index");
  w.start = r.read<SimTime>("window start");
  w.end = r.read<SimTime>("window end");
  for (std::uint64_t* field :
       {&w.jobs_completed, &w.slices, &w.dispatches, &w.preemptions,
        &w.stalls, &w.migrations, &w.fault_migrations, &w.queue_peak,
        &w.prediction_hits, &w.prediction_misses, &w.reconfig_attempts,
        &w.faults, &w.dag_releases, &w.dag_ready_peak,
        &w.dag_release_latency, &w.dag_cp_slack, &w.lat_jobs, &w.lat_max}) {
    *field = r.read<std::uint64_t>("window counter");
  }
  w.lat_p50 = r.read<double>("window latency p50");
  w.lat_p95 = r.read<double>("window latency p95");
  w.lat_p99 = r.read<double>("window latency p99");
  w.energy_mj = r.read<double>("window energy");
  w.busy_cycles.resize(cores, 0);
  w.idle_cycles.resize(cores, 0);
  for (Cycles& c : w.busy_cycles) c = r.read<Cycles>("window busy cycles");
  for (Cycles& c : w.idle_cycles) c = r.read<Cycles>("window idle cycles");
  return w;
}

}  // namespace

Cycles WindowRecord::total_busy_cycles() const {
  Cycles total = 0;
  for (const Cycles c : busy_cycles) total += c;
  return total;
}

Cycles WindowRecord::total_idle_cycles() const {
  Cycles total = 0;
  for (const Cycles c : idle_cycles) total += c;
  return total;
}

WindowedCollector::WindowedCollector(std::size_t core_count,
                                     WindowedOptions options,
                                     const CharacterizedSuite* suite)
    : options_(options), suite_(suite) {
  HETSCHED_REQUIRE(core_count > 0);
  HETSCHED_REQUIRE(options_.window_cycles > 0);
  current_.busy_cycles.resize(core_count, 0);
  current_.idle_cycles.resize(core_count, 0);
  current_.start = 0;
  current_.end = options_.window_cycles;
}

void WindowedCollector::reset_current(SimTime start) {
  const std::size_t cores = current_.busy_cycles.size();
  const std::uint64_t index = current_.index + 1;
  current_ = WindowRecord{};
  current_.index = index;
  current_.start = start;
  current_.end = start + options_.window_cycles;
  current_.busy_cycles.resize(cores, 0);
  current_.idle_cycles.resize(cores, 0);
}

void WindowedCollector::set_span_source(JobSpanCollector* spans) {
  HETSCHED_REQUIRE(spans == nullptr ||
                   spans->window_cycles() == options_.window_cycles);
  spans_ = spans;
}

void WindowedCollector::close_window() {
  if (spans_ != nullptr) {
    const WindowLatency lat = spans_->take_window(current_.index);
    current_.lat_jobs = lat.jobs;
    current_.lat_p50 = lat.p50;
    current_.lat_p95 = lat.p95;
    current_.lat_p99 = lat.p99;
    current_.lat_max = lat.max;
  }
  ++windows_closed_;
  if (sink_ != nullptr) *sink_ << window_to_json(current_) << '\n';
  windows_.push_back(current_);
  if (options_.max_windows > 0 && windows_.size() > options_.max_windows) {
    windows_.erase(windows_.begin());
    ++dropped_windows_;
    if (saved_windows_ > 0) {
      saved_text_.erase(0, saved_text_.find('\n') + 1);
      --saved_windows_;
    }
  }
}

void WindowedCollector::advance(SimTime t) {
  HETSCHED_REQUIRE(!finalized_ &&
                   "WindowedCollector received an event after finalize()");
  saw_event_ = true;
  while (t >= current_.end) {
    close_window();
    reset_current(current_.end);
  }
}

void WindowedCollector::on_slice(const ScheduledSlice& slice) {
  advance(slice.end);
  ++current_.slices;
  if (slice.core < current_.busy_cycles.size() && slice.end > slice.start) {
    current_.busy_cycles[slice.core] += slice.end - slice.start;
  }
  if (!slice.completed) {
    last_core_[slice.job_id] = LastCore{slice.core, false};
    return;
  }
  ++current_.jobs_completed;
  if (suite_ != nullptr) {
    const BenchmarkProfile& profile = suite_->benchmark(slice.benchmark_id);
    const ConfigProfile& cp = profile.profile_for(slice.config);
    const double portion =
        static_cast<double>(slice.end - slice.start) /
        static_cast<double>(cp.energy.total_cycles);
    current_.energy_mj += ((cp.energy.dynamic_energy +
                            cp.energy.static_energy + cp.energy.cpu_energy) *
                           portion)
                              .millijoules();
    if (slice.kind == ExecutionKind::kNormal) {
      if (slice.config.size_bytes == profile.oracle_best_size()) {
        ++current_.prediction_hits;
      } else {
        ++current_.prediction_misses;
      }
    }
  }
}

void WindowedCollector::on_fault(const FaultRecord& record) {
  advance(record.time);
  ++current_.faults;
  // A failed core's hung victim and a watchdog-cleared job re-queue
  // without a slice; remember their core for the migration detector.
  if (record.job_id != 0 &&
      (record.kind == FaultRecord::Kind::kCoreFailure ||
       record.kind == FaultRecord::Kind::kWatchdogFire)) {
    last_core_[record.job_id] = LastCore{record.core, true};
  }
}

void WindowedCollector::on_dispatch(const DispatchEvent& event) {
  advance(event.time);
  ++current_.dispatches;
  const auto it = last_core_.find(event.job_id);
  if (it != last_core_.end()) {
    if (it->second.core != event.core) {
      // Re-dispatch away from a failed/hung core is recovery the
      // watchdog forced, not a scheduling decision — count it apart.
      if (it->second.fault) {
        ++current_.fault_migrations;
      } else {
        ++current_.migrations;
      }
    }
    last_core_.erase(it);
  }
}

void WindowedCollector::on_reconfig(const ReconfigEvent& event) {
  advance(event.time);
  ++current_.reconfig_attempts;
}

void WindowedCollector::on_idle(const IdleEvent& event) {
  advance(event.to);
  if (event.core < current_.idle_cycles.size() && event.to > event.from) {
    current_.idle_cycles[event.core] += event.to - event.from;
  }
}

void WindowedCollector::on_preempt(const PreemptEvent& event) {
  advance(event.time);
  ++current_.preemptions;
  // A hung victim was evicted by watchdog machinery, not by a policy
  // placement choice.
  if (event.was_hung) last_core_[event.job_id] = LastCore{event.core, true};
}

void WindowedCollector::on_stall(const StallEvent& event) {
  advance(event.time);
  ++current_.stalls;
}

void WindowedCollector::on_queue_depth(const QueueSample& sample) {
  advance(sample.time);
  current_.queue_peak = std::max<std::uint64_t>(current_.queue_peak,
                                                sample.depth);
}

void WindowedCollector::on_dag_release(const DagReleaseEvent& event) {
  advance(event.time);
  ++current_.dag_releases;
  current_.dag_ready_peak = std::max<std::uint64_t>(current_.dag_ready_peak,
                                                    event.ready_depth);
  current_.dag_release_latency += event.latency;
  current_.dag_cp_slack += event.slack;
}

void WindowedCollector::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Close the in-progress window only if the run put anything into the
  // current window span (a run ending exactly on a boundary, or an
  // eventless collector, adds no trailing zero row).
  if (saw_event_) close_window();
}

void WindowedCollector::save_state(std::ostream& out) const {
  const std::size_t cores = current_.busy_cycles.size();
  out << "windowed " << cores << ' ' << options_.window_cycles << ' '
      << options_.max_windows << "\n";
  out << "state " << (saw_event_ ? 1 : 0) << ' ' << windows_closed_ << ' '
      << dropped_windows_ << "\n";
  out << "current ";
  write_window(out, current_);
  if (saved_windows_ < windows_.size()) {
    std::ostringstream fresh;
    for (; saved_windows_ < windows_.size(); ++saved_windows_) {
      write_window(fresh, windows_[saved_windows_]);
    }
    saved_text_ += fresh.str();
  }
  out << "retained " << windows_.size() << "\n" << saved_text_;
  // last_core_ in sorted order: the serialized form must not depend on
  // unordered_map iteration.
  const std::map<std::uint64_t, LastCore> sorted(last_core_.begin(),
                                                 last_core_.end());
  out << "last-core " << sorted.size() << "\n";
  for (const auto& [job_id, last] : sorted) {
    out << job_id << ' ' << last.core << ' ' << (last.fault ? 1 : 0) << "\n";
  }
}

void WindowedCollector::restore_state(std::istream& in,
                                      const std::string& context) {
  const std::size_t cores = current_.busy_cycles.size();
  st::Reader r(in, context);
  r.expect("windowed");
  if (r.read<std::size_t>("core count") != cores) {
    r.fail("windowed-collector core count does not match");
  }
  if (r.read<SimTime>("window width") != options_.window_cycles) {
    r.fail("window width does not match");
  }
  if (r.read<std::size_t>("retention limit") != options_.max_windows) {
    r.fail("window retention limit does not match");
  }
  r.expect("state");
  saw_event_ = r.flag("saw-event flag");
  finalized_ = false;
  windows_closed_ = r.read<std::uint64_t>("windows closed");
  dropped_windows_ = r.read<std::uint64_t>("dropped windows");
  r.expect("current");
  current_ = read_window(r, cores);
  if (current_.start != current_.index * options_.window_cycles ||
      current_.end != current_.start + options_.window_cycles) {
    r.fail("current window span does not match the width");
  }
  r.expect("retained");
  const std::size_t retained = r.count("retained count");
  windows_.clear();
  saved_text_.clear();
  saved_windows_ = 0;
  for (std::size_t i = 0; i < retained; ++i) {
    windows_.push_back(read_window(r, cores));
  }
  r.expect("last-core");
  const std::size_t tracked = r.count("tracked job count");
  last_core_.clear();
  for (std::size_t i = 0; i < tracked; ++i) {
    const auto job_id = r.read<std::uint64_t>("tracked job id");
    LastCore last;
    last.core = r.read<std::size_t>("tracked core");
    last.fault = r.flag("tracked fault flag");
    last_core_[job_id] = last;
  }
}

void WindowedCollector::write_jsonl(std::ostream& out) const {
  for (const WindowRecord& window : windows_) {
    out << window_to_json(window) << '\n';
  }
}

std::string window_to_json(const WindowRecord& w) {
  std::string line =
      "{\"schema\":" + std::to_string(kTelemetrySchemaVersion);
  line += ",\"window\":" + std::to_string(w.index);
  line += ",\"start\":" + std::to_string(w.start);
  line += ",\"end\":" + std::to_string(w.end);
  line += ",\"jobs_completed\":" + std::to_string(w.jobs_completed);
  line += ",\"slices\":" + std::to_string(w.slices);
  line += ",\"dispatches\":" + std::to_string(w.dispatches);
  line += ",\"preemptions\":" + std::to_string(w.preemptions);
  line += ",\"stalls\":" + std::to_string(w.stalls);
  line += ",\"migrations\":" + std::to_string(w.migrations);
  line += ",\"fault_migrations\":" + std::to_string(w.fault_migrations);
  line += ",\"queue_peak\":" + std::to_string(w.queue_peak);
  line += ",\"prediction_hits\":" + std::to_string(w.prediction_hits);
  line += ",\"prediction_misses\":" + std::to_string(w.prediction_misses);
  line += ",\"reconfig_attempts\":" + std::to_string(w.reconfig_attempts);
  line += ",\"faults\":" + std::to_string(w.faults);
  line += ",\"dag_releases\":" + std::to_string(w.dag_releases);
  line += ",\"dag_ready_peak\":" + std::to_string(w.dag_ready_peak);
  line += ",\"dag_release_latency\":" + std::to_string(w.dag_release_latency);
  line += ",\"dag_cp_slack\":" + std::to_string(w.dag_cp_slack);
  line += ",\"lat_jobs\":" + std::to_string(w.lat_jobs);
  line += ",\"lat_p50\":" + CsvWriter::number(w.lat_p50);
  line += ",\"lat_p95\":" + CsvWriter::number(w.lat_p95);
  line += ",\"lat_p99\":" + CsvWriter::number(w.lat_p99);
  line += ",\"lat_max\":" + std::to_string(w.lat_max);
  line += ",\"energy_mj\":" + CsvWriter::number(w.energy_mj);
  line += ",\"busy_cycles\":[";
  for (std::size_t i = 0; i < w.busy_cycles.size(); ++i) {
    if (i != 0) line += ',';
    line += std::to_string(w.busy_cycles[i]);
  }
  line += "],\"idle_cycles\":[";
  for (std::size_t i = 0; i < w.idle_cycles.size(); ++i) {
    if (i != 0) line += ',';
    line += std::to_string(w.idle_cycles[i]);
  }
  line += "]}";
  return line;
}

std::string_view to_string(Anomaly::Rule rule) {
  switch (rule) {
    case Anomaly::Rule::kCoreStarvation: return "core-starvation";
    case Anomaly::Rule::kIdleSpike: return "idle-spike";
    case Anomaly::Rule::kEnergyDrift: return "energy-drift";
    case Anomaly::Rule::kTailLatencySpike: return "tail-latency-spike";
  }
  return "unknown";
}

std::vector<Anomaly> detect_anomalies(std::span<const WindowRecord> windows,
                                      const AnomalyConfig& config) {
  std::vector<Anomaly> anomalies;
  if (windows.empty()) return anomalies;

  // Core starvation: zero busy cycles on one core across N consecutive
  // windows in which the system as a whole kept dispatching. Reported
  // once per streak, at the window where the threshold is crossed.
  const std::size_t cores = windows.front().busy_cycles.size();
  if (config.starvation_windows > 0) {
    for (std::size_t core = 0; core < cores; ++core) {
      std::size_t streak = 0;
      for (const WindowRecord& w : windows) {
        const bool starved = w.dispatches > 0 &&
                             core < w.busy_cycles.size() &&
                             w.busy_cycles[core] == 0;
        streak = starved ? streak + 1 : 0;
        if (streak == config.starvation_windows) {
          Anomaly a;
          a.rule = Anomaly::Rule::kCoreStarvation;
          a.window = w.index;
          a.core = core;
          a.value = static_cast<double>(streak);
          a.reference = static_cast<double>(config.starvation_windows);
          a.message = "core " + std::to_string(core) + " ran nothing for " +
                      std::to_string(streak) +
                      " consecutive windows with work dispatching";
          anomalies.push_back(std::move(a));
        }
      }
    }
  }

  // Idle spike: a window's total idle cycles far above the trailing mean.
  if (config.idle_spike_factor > 0.0 && config.trailing_windows > 0) {
    for (std::size_t i = config.trailing_windows; i < windows.size(); ++i) {
      double trailing = 0.0;
      for (std::size_t k = i - config.trailing_windows; k < i; ++k) {
        trailing += static_cast<double>(windows[k].total_idle_cycles());
      }
      const double mean =
          trailing / static_cast<double>(config.trailing_windows);
      const double idle = static_cast<double>(windows[i].total_idle_cycles());
      if (mean > 0.0 && idle > config.idle_spike_factor * mean) {
        Anomaly a;
        a.rule = Anomaly::Rule::kIdleSpike;
        a.window = windows[i].index;
        a.value = idle;
        a.reference = config.idle_spike_factor * mean;
        a.message = "idle cycles " + std::to_string(windows[i]
                                                        .total_idle_cycles()) +
                    " exceed " + CsvWriter::number(config.idle_spike_factor) +
                    "x the trailing mean";
        anomalies.push_back(std::move(a));
      }
    }
  }

  // Trailing-mean drift: each productive window's `value` against the
  // mean over the previous `trailing_windows` productive windows. Bounded
  // lookback: compacting to productive windows must not let a rule reach
  // across a long idle gap and judge a window against stale history; if
  // the oldest trailing window lies further back (in real window indices)
  // than the bound allows, there is not enough fresh evidence and the
  // rule stays silent.
  const auto drift = [&](Anomaly::Rule rule, double factor,
                         bool (*productive_window)(const WindowRecord&),
                         double (*value)(const WindowRecord&),
                         const std::string& what, const std::string& unit) {
    if (factor <= 0.0 || config.trailing_windows == 0) return;
    std::vector<const WindowRecord*> productive;
    for (const WindowRecord& w : windows) {
      if (productive_window(w)) productive.push_back(&w);
    }
    for (std::size_t i = config.trailing_windows; i < productive.size();
         ++i) {
      const std::size_t oldest = i - config.trailing_windows;
      if (config.drift_lookback_windows > 0 &&
          productive[i]->index - productive[oldest]->index >
              config.drift_lookback_windows) {
        continue;
      }
      double trailing = 0.0;
      for (std::size_t k = oldest; k < i; ++k) trailing += value(*productive[k]);
      const double mean =
          trailing / static_cast<double>(config.trailing_windows);
      const double observed = value(*productive[i]);
      if (mean > 0.0 && observed > factor * mean) {
        Anomaly a;
        a.rule = rule;
        a.window = productive[i]->index;
        a.value = observed;
        a.reference = factor * mean;
        a.message = what + " " + CsvWriter::number(observed) + unit +
                    " exceeds " + CsvWriter::number(factor) +
                    "x the trailing mean " + CsvWriter::number(mean) + unit;
        anomalies.push_back(std::move(a));
      }
    }
  };
  // Energy per job over windows that retired jobs.
  drift(
      Anomaly::Rule::kEnergyDrift, config.energy_drift_factor,
      [](const WindowRecord& w) { return w.jobs_completed > 0; },
      [](const WindowRecord& w) { return w.energy_per_job_mj(); },
      "energy per job", " mJ");
  // Window p99 sojourn over windows with latency columns (lat_jobs == 0
  // without a span collector, so those never participate).
  drift(
      Anomaly::Rule::kTailLatencySpike, config.tail_latency_factor,
      [](const WindowRecord& w) { return w.lat_jobs > 0; },
      [](const WindowRecord& w) { return w.lat_p99; }, "p99 sojourn",
      " cycles");

  std::stable_sort(anomalies.begin(), anomalies.end(),
                   [](const Anomaly& a, const Anomaly& b) {
                     if (a.window != b.window) return a.window < b.window;
                     return static_cast<int>(a.rule) <
                            static_cast<int>(b.rule);
                   });
  if (anomalies.size() > config.max_anomalies) {
    anomalies.resize(config.max_anomalies);
  }
  return anomalies;
}

std::string window_interval_error(std::uint64_t window_cycles,
                                  std::uint64_t checkpoint_every) {
  // Ceiling chosen so that window advancement (start + window_cycles) and
  // the checkpoint stride product both stay far from uint64 wraparound —
  // a wrapped stride silently truncates a run instead of failing loudly.
  constexpr std::uint64_t kMaxCycles = std::uint64_t{1} << 61;
  if (window_cycles == 0) {
    return "window cycles must be >= 1";
  }
  if (checkpoint_every == 0) {
    return "checkpoint interval must be >= 1 window";
  }
  if (window_cycles > kMaxCycles) {
    return "window cycles too large (max 2^61)";
  }
  if (checkpoint_every > kMaxCycles / window_cycles) {
    return "window cycles x checkpoint interval overflows the simulated "
           "clock (max 2^61 cycles per checkpoint stride)";
  }
  return "";
}

}  // namespace hetsched
