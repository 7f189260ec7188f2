// hetsched command-line driver. kFlags below is the flag reference: one
// row per flag, naming the commands that take it; usage() prints it and
// parse() rejects a flag on any other command.
//
// Everything the CLI simulates is a Scenario. `scenario` and `sweep`
// read theirs from --file; `run` and `compare` build one from the common
// flags (--system, --arrivals, --gap, --seed, --cores, --scale,
// --discipline, --slack, --fault-*), and --load replaces its predictor
// training. One scenario runs through run_scenario, or through
// run_scenario_checkpointed when windows, a report or checkpoints are
// requested; a grid of scenarios (a sweep, or compare's four Section-V
// systems) runs through run_sweep_supervised.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/serialization.hpp"
#include "experiment/experiment.hpp"
#include "experiment/sweep.hpp"
#include "obs/analyzer.hpp"
#include "obs/bench_diff.hpp"
#include "obs/observability.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace {

using namespace hetsched;

struct CliOptions {
  std::string command;
  // The scenario the common flags describe (run, compare; characterize
  // and train read its suite and seed). Its fault plan is assembled after
  // parsing, so --fault-rate and --fault-seed override a --fault-plan
  // file whatever their order.
  Scenario scenario;
  std::string fault_plan_path;
  std::optional<double> fault_rate;
  std::optional<std::uint64_t> fault_seed;
  std::string kernel;
  std::string save_path;
  std::string load_path;
  std::string profile_cache_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string report_out_path;
  std::string windows_out_path;
  std::uint64_t window_cycles = 1'000'000;
  std::size_t max_trace_events = EventTracer::kDefaultMaxEvents;
  double tolerance = 0.5;  // bench-diff slack before failing
  std::vector<std::string> positional;  // bench-diff's file operands

  // analyze: forensics inputs and presentation.
  std::string analyze_report_path;
  std::string analyze_windows_path;
  std::string analyze_out_path;
  std::size_t analyze_top = 8;
  // Emit Perfetto async job spans ('b'/'e' pairs) into --trace-out.
  // Opt-in: span events double the trace volume and change trace bytes.
  bool trace_spans = false;
  std::string scenario_path;
  std::string sweep_cores = "4";
  std::string sweep_gaps;  // empty: the scenario file's mean-gap
  std::string sweep_policies = "base,proposed";
  std::size_t shards = 0;  // 0: one shard per cell

  // Crash-safe execution.
  std::string checkpoint_out_path;
  std::uint64_t checkpoint_every = 1;
  bool checkpoint_every_given = false;
  std::string resume_from_path;  // scenario: checkpoint; sweep: manifest
  std::uint64_t halt_after_checkpoints = 0;
  std::uint64_t cell_timeout_ms = 0;
  std::uint32_t cell_retries = 1;
  std::uint64_t cell_backoff_ms = 0;
  std::string manifest_out_path;
  bool deterministic_report = false;

  bool wants_windows() const {
    return !report_out_path.empty() || !windows_out_path.empty();
  }
  bool wants_checkpointing() const {
    return !checkpoint_out_path.empty() || !resume_from_path.empty() ||
           halt_after_checkpoints > 0;
  }
  bool wants_supervision() const {
    return cell_timeout_ms > 0 || cell_retries > 1 || cell_backoff_ms > 0 ||
           !manifest_out_path.empty() || !resume_from_path.empty();
  }
};

// Observability state for one CLI invocation: the shared metrics
// registry, the runtime tracer fed by the global probe (thread-pool
// jobs, profile-cache outcomes), and one tracer per simulated system.
// Everything is written out once, after the command finishes.
struct ObsSession {
  std::string trace_path;
  std::string metrics_path;
  std::size_t max_trace_events = EventTracer::kDefaultMaxEvents;
  MetricsRegistry metrics;
  EventTracer runtime;           // probe events only; no sim.* counters
  ProbeRecorder recorder{metrics, &runtime};
  std::deque<EventTracer> sim_tracers;  // stable addresses
  std::vector<std::pair<std::string, const EventTracer*>> processes{
      {"runtime", &runtime}};

  bool job_spans = false;  // forward Perfetto async job spans

  EventTracer& add_system_tracer(const std::string& system) {
    sim_tracers.emplace_back(&metrics, system + ".sim.");
    sim_tracers.back().set_max_events(max_trace_events);
    sim_tracers.back().set_job_spans(job_spans);
    processes.emplace_back(system, &sim_tracers.back());
    return sim_tracers.back();
  }

  // Returns false (with a message on stderr) when an output file cannot
  // be written.
  bool finish() {
    if (!trace_path.empty()) {
      if (!atomic_write_file(trace_path, [this](std::ostream& out) {
            write_chrome_trace(out, processes);
          })) {
        std::cerr << "cannot write " << trace_path << "\n";
        return false;
      }
      std::cout << "trace written to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      if (!atomic_write_file(metrics_path, [this](std::ostream& out) {
            metrics.write_json(out);
          })) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return false;
      }
      std::cout << "metrics written to " << metrics_path << "\n";
    }
    return true;
  }
};

[[noreturn]] void usage(const std::string& error = "");

// One flag's value as given, with the readers that turn it into a
// field. They reject garbage instead of silently truncating it
// (std::stoull("12abc") == 12): the whole token must parse, and the value
// must lie in the flag's legal range, for a count at most what its field
// holds.
struct FlagValue {
  std::string_view flag;
  std::string text;

  template <typename T>
  T count(T min_value, T max_value = std::numeric_limits<T>::max()) const {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [parsed_end, err] = std::from_chars(text.data(), end, value);
    if (text.empty() || err != std::errc{} || parsed_end != end) {
      usage(std::string(flag) + " expects a non-negative integer, got '" +
            text + "'");
    }
    if (value < min_value) {
      usage(std::string(flag) + " must be at least " +
            std::to_string(min_value) + ", got '" + text + "'");
    }
    if (value > max_value) {
      usage(std::string(flag) + " must be at most " +
            std::to_string(max_value) + ", got '" + text + "'");
    }
    return static_cast<T>(value);
  }

  double real(double min_value, double max_value) const {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value) || value < min_value || value > max_value) {
      std::ostringstream range;
      range << "[" << min_value << ", " << max_value << "]";
      usage(std::string(flag) + " expects a number in " + range.str() +
            ", got '" + text + "'");
    }
    return value;
  }

  // A file the command reads.
  std::string path() const {
    if (text.empty()) usage(std::string(flag) + " expects a file path");
    return text;
  }

  // A file the command writes. Fail fast, before minutes of simulation,
  // when its directory does not exist: the atomic temp+rename cannot
  // create parents.
  std::string output_path() const {
    const std::filesystem::path parent =
        std::filesystem::path(path()).parent_path();
    std::error_code ec;
    if (!parent.empty() && !std::filesystem::is_directory(parent, ec)) {
      usage(std::string(flag) + ": directory '" + parent.string() +
            "' does not exist");
    }
    return text;
  }
};

QueueDiscipline parse_discipline(const std::string& name) {
  if (name == "fifo") return QueueDiscipline::kFifo;
  if (name == "edf") return QueueDiscipline::kEdf;
  if (name == "priority") return QueueDiscipline::kPriority;
  usage("unknown discipline " + name);
}

// Each command is one bit of a flag's command set.
enum Command : unsigned {
  kCompare = 1u << 0,
  kRun = 1u << 1,
  kCharacterize = 1u << 2,
  kTrain = 1u << 3,
  kScenario = 1u << 4,
  kSweep = 1u << 5,
  kBenchDiff = 1u << 6,
  kAnalyze = 1u << 7,
};

struct CommandSpec {
  std::string_view name;
  unsigned bit;
  std::size_t operands;  // file operands it takes
};

constexpr CommandSpec kCommands[] = {
    {"compare", kCompare, 0},   {"run", kRun, 0},
    {"characterize", kCharacterize, 0}, {"train", kTrain, 0},
    {"scenario", kScenario, 0}, {"sweep", kSweep, 0},
    {"bench-diff", kBenchDiff, 2}, {"analyze", kAnalyze, 0}};

// The commands that build their scenario from flags, that write windows
// and reports, that simulate, that characterise a suite, and all.
constexpr unsigned kFlagScenario = kRun | kCompare;
constexpr unsigned kWindowed = kRun | kScenario | kSweep;
constexpr unsigned kSimulating = kWindowed | kCompare;
constexpr unsigned kSuite = kSimulating | kCharacterize | kTrain;
constexpr unsigned kEvery = kSuite | kBenchDiff | kAnalyze;

// One row per flag: its name, value placeholder (empty for a switch),
// the commands that read it, its help text ('\n' between lines) and the
// setter that stores its value. parse() and usage() read nothing else.
struct Flag {
  std::string_view name;
  std::string_view value;
  unsigned commands;
  std::string_view help;
  void (*set)(CliOptions&, const FlagValue&);
};

using Value = const FlagValue&;

constexpr Flag kFlags[] = {
    {"--system", "S", kFlagScenario,
     "base|optimal|energy-centric|proposed|realtime|sjf|energy-greedy|\n"
     "random|oracle|cp-aware|portfolio:<a>+<b>[@cycles] (competitive\n"
     "meta-scheduler over the named contenders)",
     [](CliOptions& o, Value v) { o.scenario.policy = v.text; }},
    {"--arrivals", "N", kFlagScenario, "jobs in the stream (default 5000)",
     [](CliOptions& o, Value v) {
       o.scenario.arrivals.count = v.count<std::size_t>(1);
     }},
    {"--gap", "CYCLES", kFlagScenario,
     "mean inter-arrival gap (default 55000)",
     [](CliOptions& o, Value v) {
       o.scenario.arrivals.mean_interarrival_cycles = v.real(1.0, 1e15);
     }},
    {"--seed", "N", kFlagScenario | kTrain, "experiment seed (default 42)",
     [](CliOptions& o, Value v) {
       o.scenario.seed = v.count<std::uint64_t>(0);
     }},
    {"--cores", "N", kFlagScenario,
     "cores per simulated system (default 4; 4 = the paper machines,\n"
     "otherwise the scaled layout)",
     [](CliOptions& o, Value v) {
       o.scenario.cores = v.count<std::size_t>(2);
     }},
    {"--scale", "X", kFlagScenario | kCharacterize | kTrain,
     "kernel working-set scale (default 1.0)",
     [](CliOptions& o, Value v) {
       o.scenario.suite.kernel_scale = v.real(1e-6, 1e6);
     }},
    {"--discipline", "D", kFlagScenario, "fifo|edf|priority ready-queue order",
     [](CliOptions& o, Value v) {
       o.scenario.discipline = parse_discipline(v.text);
     }},
    {"--slack", "X", kFlagScenario,
     "assign deadlines = arrival + X*base cycles",
     [](CliOptions& o, Value v) {
       o.scenario.realtime = RealtimeOptions{v.real(1e-6, 1e6), 3};
     }},
    {"--fault-plan", "FILE", kFlagScenario,
     "inject faults from a fault-plan file",
     [](CliOptions& o, Value v) { o.fault_plan_path = v.text; }},
    {"--fault-rate", "P", kFlagScenario,
     "uniform rate in [0,1] for reconfig failures, stuck jobs and\n"
     "counter corruption",
     [](CliOptions& o, Value v) { o.fault_rate = v.real(0.0, 1.0); }},
    {"--fault-seed", "N", kFlagScenario, "fault-decision seed (default 1)",
     [](CliOptions& o, Value v) { o.fault_seed = v.count<std::uint64_t>(0); }},
    {"--load", "FILE", kFlagScenario,
     "use a saved predictor snapshot instead of training",
     [](CliOptions& o, Value v) { o.load_path = v.text; }},
    {"--kernel", "NAME", kCharacterize, "single-kernel sweep",
     [](CliOptions& o, Value v) { o.kernel = v.text; }},
    {"--save", "FILE", kTrain, "persist the predictor snapshot",
     [](CliOptions& o, Value v) { o.save_path = v.output_path(); }},
    {"--threads", "N", kEvery,
     "worker threads (default: HETSCHED_THREADS or all hardware threads)",
     [](CliOptions&, Value v) {
       ThreadPool::set_global_threads(v.count<std::size_t>(1, 256));
     }},
    {"--profile-cache", "FILE", kSuite,
     "persistent characterisation snapshot to load or refresh",
     [](CliOptions& o, Value v) { o.profile_cache_path = v.text; }},
    {"--trace-out", "FILE", kSuite,
     "write a Chrome-trace/Perfetto JSON (ts in simulated cycles; open\n"
     "in ui.perfetto.dev)",
     [](CliOptions& o, Value v) { o.trace_out_path = v.output_path(); }},
    {"--metrics-out", "FILE", kSuite,
     "write the metrics-registry snapshot as JSON",
     [](CliOptions& o, Value v) { o.metrics_out_path = v.output_path(); }},
    {"--max-trace-events", "N", kSuite,
     "retain at most N trace events per tracer (0 = unlimited; default\n"
     "1000000)",
     [](CliOptions& o, Value v) {
       o.max_trace_events = v.count<std::size_t>(0);
     }},
    {"--trace-spans", "", kSimulating,
     "add Perfetto async job-lifecycle spans ('b'/'e' pairs, arrival ->\n"
     "completion) to --trace-out",
     [](CliOptions& o, Value) { o.trace_spans = true; }},
    {"--windows-out", "FILE", kWindowed,
     "write per-window telemetry JSONL (one line per closed tumbling\n"
     "window)",
     [](CliOptions& o, Value v) { o.windows_out_path = v.output_path(); }},
    {"--window-cycles", "N", kWindowed,
     "window width in simulated cycles (default 1e6)",
     [](CliOptions& o, Value v) {
       o.window_cycles = v.count<std::uint64_t>(1);
     }},
    {"--report-out", "FILE", kWindowed, "write the unified run-report JSON",
     [](CliOptions& o, Value v) { o.report_out_path = v.output_path(); }},
    {"--report-deterministic", "", kWindowed,
     "emit the report with empty phases_ms so identical runs produce\n"
     "byte-identical reports",
     [](CliOptions& o, Value) { o.deterministic_report = true; }},
    {"--file", "FILE", kScenario | kSweep, "scenario description file",
     [](CliOptions& o, Value v) { o.scenario_path = v.path(); }},
    {"--resume-from", "FILE", kScenario | kSweep,
     "resume from a checkpoint file (scenario) or a shard manifest\n"
     "(sweep)",
     [](CliOptions& o, Value v) { o.resume_from_path = v.path(); }},
    {"--checkpoint-out", "FILE", kScenario,
     "write a resumable checkpoint atomically at every stride boundary",
     [](CliOptions& o, Value v) { o.checkpoint_out_path = v.output_path(); }},
    {"--checkpoint-every", "N", kScenario,
     "windows per checkpoint stride (default 1)",
     [](CliOptions& o, Value v) {
       o.checkpoint_every = v.count<std::uint64_t>(1);
       o.checkpoint_every_given = true;
     }},
    {"--halt-after-checkpoints", "N", kScenario,
     "stop with exit 3 after N checkpoints, simulating a crash",
     [](CliOptions& o, Value v) {
       o.halt_after_checkpoints = v.count<std::uint64_t>(1);
     }},
    {"--sweep-cores", "L", kSweep, "comma list of core counts (default 4)",
     [](CliOptions& o, Value v) { o.sweep_cores = v.text; }},
    {"--sweep-gaps", "L", kSweep,
     "comma list of mean gaps (default: the scenario file's mean-gap)",
     [](CliOptions& o, Value v) { o.sweep_gaps = v.text; }},
    {"--sweep-policies", "L", kSweep,
     "comma list of policies (default base,proposed)",
     [](CliOptions& o, Value v) { o.sweep_policies = v.text; }},
    {"--shards", "N", kSweep,
     "contiguous shards to split the grid into (default: one per cell)",
     [](CliOptions& o, Value v) { o.shards = v.count<std::size_t>(1); }},
    {"--cell-timeout-ms", "N", kSweep,
     "wall-clock budget per cell attempt",
     [](CliOptions& o, Value v) {
       o.cell_timeout_ms = v.count<std::uint64_t>(1);
     }},
    {"--cell-retries", "N", kSweep, "attempts per cell before quarantine",
     [](CliOptions& o, Value v) {
       o.cell_retries = v.count<std::uint32_t>(1);
     }},
    {"--cell-backoff-ms", "N", kSweep, "sleep between attempts of one cell",
     [](CliOptions& o, Value v) {
       o.cell_backoff_ms = v.count<std::uint64_t>(0);
     }},
    {"--manifest-out", "FILE", kSweep,
     "persist the shard manifest after every completed cell",
     [](CliOptions& o, Value v) { o.manifest_out_path = v.output_path(); }},
    {"--tolerance", "X", kBenchDiff,
     "relative slack before a metric counts as regressed (default 0.5)",
     [](CliOptions& o, Value v) { o.tolerance = v.real(0.0, 1e6); }},
    {"--report", "FILE", kAnalyze, "run-report JSON to analyze",
     [](CliOptions& o, Value v) { o.analyze_report_path = v.path(); }},
    {"--windows", "FILE", kAnalyze,
     "windows JSONL for the per-window tables",
     [](CliOptions& o, Value v) { o.analyze_windows_path = v.path(); }},
    {"--top", "N", kAnalyze,
     "rows in the slowest-jobs and hottest-windows tables (default 8)",
     [](CliOptions& o, Value v) { o.analyze_top = v.count<std::size_t>(1); }},
    {"--out", "FILE", kAnalyze,
     "write the analysis there instead of stdout",
     [](CliOptions& o, Value v) { o.analyze_out_path = v.output_path(); }},
};

void usage(const std::string& error) {
  const auto names = [](unsigned commands, std::string_view separator) {
    std::string out;
    for (const CommandSpec& command : kCommands) {
      if ((commands & command.bit) == 0) continue;
      if (!out.empty()) out += separator;
      out += command.name;
    }
    return out;
  };
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: hetsched_cli <" << names(kEvery, "|") << "> [flags]\n"
            << "       hetsched_cli bench-diff BASELINE.json CURRENT.json "
               "[flags]\n"
               "flags, each with the commands that take it:\n";
  for (const Flag& flag : kFlags) {
    std::cerr << "  " << flag.name << (flag.value.empty() ? "" : " ")
              << flag.value << " (" << names(flag.commands, ", ")
              << ")\n      ";
    for (const char c : flag.help) {
      std::cerr << c << (c == '\n' ? "      " : "");
    }
    std::cerr << "\n";
  }
  std::exit(2);
}

// The fault plan of the flag scenario: a plan file, a uniform rate, or a
// file with its rates/seed overridden from the command line.
FaultPlan flag_fault_plan(const CliOptions& options) {
  FaultPlan plan;
  if (!options.fault_plan_path.empty()) {
    std::ifstream in(options.fault_plan_path);
    if (!in) throw std::runtime_error("cannot open " + options.fault_plan_path);
    plan = FaultPlan::parse(in);
  }
  if (options.fault_rate.has_value()) {
    plan.reconfig_failure_rate = *options.fault_rate;
    plan.stuck_job_rate = *options.fault_rate;
    plan.counter_corruption_rate = *options.fault_rate;
  }
  if (options.fault_seed.has_value()) plan.seed = *options.fault_seed;
  return plan;
}

CliOptions parse(int argc, char** argv) {
  if (argc < 2) usage();
  CliOptions options;
  options.command = argv[1];
  const auto command = std::ranges::find(
      kCommands, std::string_view(options.command), &CommandSpec::name);
  if (command == std::ranges::end(kCommands)) {
    usage("unknown command " + options.command);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      options.positional.push_back(arg);
      continue;
    }
    const auto flag =
        std::ranges::find(kFlags, std::string_view(arg), &Flag::name);
    if (flag == std::ranges::end(kFlags)) usage("unknown flag " + arg);
    if ((flag->commands & command->bit) == 0) {
      usage(arg + " does not apply to " + options.command);
    }
    FlagValue value{flag->name, ""};
    if (!flag->value.empty()) {
      if (i + 1 >= argc) usage("missing value for " + arg);
      value.text = argv[++i];
    }
    flag->set(options, value);
  }
  if (options.positional.size() != command->operands) {
    usage(options.command + " takes " + std::to_string(command->operands) +
          " file operand(s), got " +
          std::to_string(options.positional.size()));
  }
  // Interval sanity shared with the checkpoint driver: both counts must
  // be >= 1 (their rows enforce that) and the checkpoint stride
  // window_cycles * checkpoint_every must not overflow the simulated
  // clock — a wrapped stride would silently disable checkpointing.
  const std::string interval_error =
      window_interval_error(options.window_cycles, options.checkpoint_every);
  if (!interval_error.empty()) {
    usage("--window-cycles/--checkpoint-every: " + interval_error);
  }
  // Checkpoint flags must produce something: a halt must leave a
  // checkpoint to resume from, and a stride needs a checkpoint to write
  // or to resume from.
  if (options.halt_after_checkpoints > 0 &&
      options.checkpoint_out_path.empty()) {
    usage("--halt-after-checkpoints needs --checkpoint-out (a halted run "
          "must leave a checkpoint to resume from)");
  }
  if (options.checkpoint_every_given &&
      options.checkpoint_out_path.empty() &&
      options.resume_from_path.empty()) {
    usage("--checkpoint-every needs --checkpoint-out or --resume-from");
  }
  if (!options.trace_out_path.empty() && options.command == "scenario" &&
      options.wants_checkpointing()) {
    usage("--trace-out cannot be combined with checkpoint/resume flags "
          "(trace buffers are not part of the checkpointed state)");
  }
  if (!options.trace_out_path.empty() && options.command == "sweep" &&
      options.wants_supervision()) {
    usage("--trace-out cannot be combined with supervised-sweep flags "
          "(completed cells resumed from a manifest are not re-run)");
  }
  // The flag scenario: run and compare must describe a valid one before
  // any setup starts.
  Scenario& scenario = options.scenario;
  scenario.name = scenario.policy;
  scenario.use_standard_machine(scenario.cores);
  if ((command->bit & kFlagScenario) != 0) {
    scenario.faults = flag_fault_plan(options);
    const PolicyRegistry& registry = PolicyRegistry::instance();
    if (!registry.known(scenario.policy)) {
      usage("unknown system " + scenario.policy + " (expected " +
            registry.names_help() + ")");
    }
    try {
      scenario.validate();
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  return options;
}

void print_result(const std::string& name, const SimulationResult& r) {
  TablePrinter table({"metric", "value"});
  table.add_row({"total energy",
                 TablePrinter::num(r.total_energy().millijoules(), 2) +
                     " mJ"});
  table.add_row({"  idle",
                 TablePrinter::num(r.idle_energy.millijoules(), 2) + " mJ"});
  table.add_row({"  dynamic",
                 TablePrinter::num(r.dynamic_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"  busy static",
                 TablePrinter::num(r.busy_static_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"  cpu",
                 TablePrinter::num(r.cpu_energy.millijoules(), 2) + " mJ"});
  table.add_row({"  reconfig",
                 TablePrinter::num(r.reconfig_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"makespan", std::to_string(r.makespan) + " cycles"});
  table.add_row({"execution cycles",
                 std::to_string(r.total_execution_cycles)});
  table.add_row({"completed jobs", std::to_string(r.completed_jobs)});
  table.add_row({"stalls", std::to_string(r.stall_events)});
  table.add_row({"profiling runs", std::to_string(r.profiling_runs)});
  table.add_row({"tuning runs", std::to_string(r.tuning_runs)});
  table.add_row({"reconfigurations", std::to_string(r.reconfigurations)});
  if (r.jobs_with_deadline > 0) {
    table.add_row({"deadline misses",
                   std::to_string(r.deadline_misses) + " / " +
                       std::to_string(r.jobs_with_deadline)});
    table.add_row({"preemptions", std::to_string(r.preemptions)});
  }
  if (r.faults.any()) {
    table.add_row({"injected faults", std::to_string(r.faults.injected)});
    table.add_row({"  core failures",
                   std::to_string(r.faults.core_failures) + " (" +
                       std::to_string(r.faults.core_recoveries) +
                       " recovered)"});
    table.add_row({"  reconfig failures",
                   std::to_string(r.faults.reconfig_failures) + " (" +
                       std::to_string(r.faults.reconfig_retries) +
                       " retries)"});
    table.add_row({"  counter corruptions",
                   std::to_string(r.faults.counter_corruptions)});
    table.add_row({"  watchdog fires",
                   std::to_string(r.faults.watchdog_fires)});
    table.add_row({"jobs re-queued by faults",
                   std::to_string(r.faults.jobs_requeued)});
    table.add_row({"degraded executions",
                   std::to_string(r.faults.degraded_executions)});
    table.add_row({"prediction fallbacks",
                   std::to_string(r.faults.prediction_fallbacks)});
  }
  std::cout << "=== " << name << " ===\n";
  table.print(std::cout);
}

// Per-contender win-rate table for a portfolio run, printed after the
// main accounting.
void print_portfolio(const PortfolioStats& stats) {
  std::cout << "portfolio: " << stats.switches.size()
            << " switch(es) over " << stats.windows_closed
            << " selector window(s) of " << stats.window_cycles
            << " cycles; final active policy '" << stats.active << "'\n";
  TablePrinter table({"contender", "windows led", "win rate"});
  for (std::size_t i = 0; i < stats.contenders.size(); ++i) {
    const double rate =
        stats.windows_closed == 0
            ? 0.0
            : static_cast<double>(stats.windows_active[i]) /
                  static_cast<double>(stats.windows_closed);
    table.add_row({stats.contenders[i],
                   std::to_string(stats.windows_active[i]),
                   TablePrinter::num(rate, 3)});
  }
  table.print(std::cout);
}

// One-line DAG release accounting for a dependency-graph scenario,
// printed after the main accounting.
void print_dag(const DagStats& stats) {
  std::cout << "dag: " << stats.nodes << " node(s), " << stats.edges
            << " edge(s), critical path " << stats.max_rank << "; "
            << stats.releases << " dependent release(s), ready peak "
            << stats.ready_peak << ", release latency "
            << stats.release_latency_total << " cycles\n";
}

bool write_text_file(const std::string& path, const std::string& content,
                     const char* what) {
  if (!atomic_write_file(path, content)) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << what << " written to " << path << "\n";
  return true;
}

// Shared tail of run/scenario/sweep: finish the report skeleton the
// command filled in and write the requested artifacts.
int export_reports(const CliOptions& options, ObsSession* obs,
                   PhaseTimers& timers, RunReport report,
                   const std::string& windows) {
  if (!options.windows_out_path.empty() &&
      !write_text_file(options.windows_out_path, windows, "windows")) {
    return 1;
  }
  if (!options.report_out_path.empty()) {
    if (obs != nullptr) report.metrics_json = obs->metrics.to_json();
    report.phases_ms = timers.entries();
    report.include_phases = !options.deterministic_report;
    if (!write_text_file(options.report_out_path,
                         run_report_to_json(report), "report")) {
      return 1;
    }
  }
  return 0;
}

// The characterised suite the flags describe (served from
// --profile-cache when given).
CharacterizedSuite flag_suite(const CliOptions& options) {
  const EnergyModel energy(CactiModel{}, EnergyModelParams{});
  return load_or_build_suite(options.profile_cache_path, energy,
                             options.scenario.suite);
}

int cmd_characterize(const CliOptions& options) {
  const CharacterizedSuite suite = flag_suite(options);
  if (!options.kernel.empty()) {
    // Single-kernel per-configuration sweep.
    for (std::size_t id : suite.scheduling_ids()) {
      const BenchmarkProfile& b = suite.benchmark(id);
      if (!b.instance.name.starts_with(options.kernel)) continue;
      TablePrinter table({"config", "miss rate", "cycles", "total nJ"});
      for (const ConfigProfile& cp : b.per_config) {
        table.add_row({cp.config.name(),
                       TablePrinter::num(cp.cache.miss_rate(), 4),
                       std::to_string(cp.energy.total_cycles),
                       TablePrinter::num(cp.energy.total().value(), 0)});
      }
      std::cout << b.instance.name << " ("
                << to_string(b.instance.domain) << ", oracle best "
                << b.best_overall().config.name() << ")\n";
      table.print(std::cout);
      return 0;
    }
    std::cerr << "kernel '" << options.kernel << "' not found\n";
    return 1;
  }
  TablePrinter table({"benchmark", "domain", "refs", "oracle best",
                      "best/base energy"});
  for (std::size_t id : suite.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    const ConfigProfile& base =
        b.profile_for(DesignSpace::base_config());
    table.add_row({b.instance.name, std::string(to_string(b.instance.domain)),
                   std::to_string(b.counters.memory_refs()),
                   b.best_overall().config.name(),
                   TablePrinter::num(
                       b.best_overall().energy.total() / base.energy.total(),
                       3)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_train(const CliOptions& options) {
  if (options.save_path.empty()) usage("train requires --save FILE");
  const std::unique_ptr<BestSizePredictor> predictor = train_predictor(
      flag_suite(options), PredictorConfig{}, options.scenario.seed);
  const PredictorReport& report = predictor->report();
  std::cout << "trained on " << report.dataset_rows << " rows; test accuracy "
            << TablePrinter::num(report.test_accuracy * 100.0, 1) << "%\n";
  std::ostringstream out;
  PredictorSnapshot::from(*predictor).save(out);
  if (!atomic_write_file(options.save_path, out.str())) {
    std::cerr << "cannot write " << options.save_path << "\n";
    return 1;
  }
  std::cout << "predictor snapshot written to " << options.save_path
            << "\n";
  return 0;
}

// --load: the saved predictor that replaces training, or null.
std::unique_ptr<const SizePredictor> load_predictor(
    const CliOptions& options) {
  if (options.load_path.empty()) return nullptr;
  std::ifstream in(options.load_path);
  if (!in) throw std::runtime_error("cannot open " + options.load_path);
  auto snapshot =
      std::make_unique<PredictorSnapshot>(PredictorSnapshot::load(in));
  std::cout << "loaded predictor snapshot (" << snapshot->member_count()
            << " nets) from " << options.load_path << "\n";
  return snapshot;
}

// compare: the four Section-V systems over one arrival stream, run as a
// one-row grid of the flag scenario, normalised to the base system.
int cmd_compare(const CliOptions& options, ObsSession* obs) {
  SweepGrid grid;
  grid.base = options.scenario;
  grid.core_counts = {options.scenario.cores};
  grid.mean_gaps = {options.scenario.arrivals.mean_interarrival_cycles};
  grid.policies = {"base", "optimal", "energy-centric", "proposed"};
  const ScenarioContext context(grid.context_scenario(),
                                options.profile_cache_path,
                                load_predictor(options));
  // Tracers (and their registry entries) are created serially before the
  // fan-out; each then only sees its own system's events, so the merged
  // output is thread-count independent.
  SweepSupervisorOptions sopts;
  if (obs != nullptr) {
    for (const std::string& name : grid.policies) {
      sopts.cell_observers.push_back(&obs->add_system_tracer(name));
    }
  }
  const SupervisedSweepResult sweep = run_sweep_supervised(
      grid, context, grid.cell_count(), ThreadPool::global(), sopts);
  if (!sweep.failed.empty()) {
    throw std::runtime_error(sweep.failed.front().label + ": " +
                             sweep.failed.front().reason);
  }
  const SimulationResult& base = sweep.cells[0].result;
  TablePrinter table({"system", "idle", "dynamic", "total", "cycles"});
  for (const SweepCell& cell : sweep.cells) {
    if (obs != nullptr) {
      record_result_metrics(obs->metrics, cell.policy + ".", cell.result);
    }
    const NormalizedEnergy n = normalize(cell.result, base);
    table.add_row({cell.policy, TablePrinter::num(n.idle, 2),
                   TablePrinter::num(n.dynamic, 2),
                   TablePrinter::num(n.total, 2),
                   TablePrinter::num(n.cycles, 2)});
  }
  std::cout << "normalised to the base system ("
            << options.scenario.arrivals.count << " arrivals, seed "
            << options.scenario.seed << "):\n";
  table.print(std::cout);
  return 0;
}

Scenario load_scenario(const CliOptions& options) {
  if (options.scenario_path.empty()) {
    throw std::runtime_error(options.command + " requires --file FILE");
  }
  std::ifstream in(options.scenario_path);
  if (!in) throw std::runtime_error("cannot open " + options.scenario_path);
  return Scenario::parse(in);
}

// One body for every single-scenario run (`scenario` from --file, `run`
// from the flags). Without windows, report or checkpoint flags it is the
// plain streaming run (plus the CLI's tracer); otherwise the observed
// driver runs it. Checkpointed runs attach no sim tracer (trace buffers
// are not part of the resumable state, so a resumed trace could never
// match), and their report's metrics come from the driver's local
// registry, fed only by the deterministic scenario metrics — together
// with --report-deterministic this makes every output of a resumed run
// byte-identical to the uninterrupted one.
int cmd_scenario(const CliOptions& options, ObsSession* obs,
                 const Scenario& scenario) {
  PhaseTimers timers;
  std::optional<ScenarioContext> context;
  {
    const auto scope = timers.scope("setup");
    context.emplace(scenario, options.profile_cache_path,
                    load_predictor(options));
  }
  const bool checkpointing = options.wants_checkpointing();
  EventTracer* tracer = obs != nullptr && !checkpointing
                            ? &obs->add_system_tracer(scenario.name)
                            : nullptr;

  std::optional<CheckpointRunOutcome> observed;
  std::optional<ScenarioOutcome> outcome;
  {
    const auto scope = timers.scope("run");
    if (options.wants_windows() || checkpointing) {
      CheckpointRunOptions copts;
      copts.window_cycles = options.window_cycles;
      copts.checkpoint_every = options.checkpoint_every;
      copts.checkpoint_out = options.checkpoint_out_path;
      copts.resume_from = options.resume_from_path;
      copts.halt_after_checkpoints = options.halt_after_checkpoints;
      copts.observer = tracer;
      observed.emplace(run_scenario_checkpointed(scenario, *context, copts));
    } else {
      outcome.emplace(run_scenario(scenario, *context, tracer));
    }
  }
  if (observed.has_value()) {
    if (observed->resumed_from > 0) {
      std::cout << "resumed from checkpoint boundary "
                << observed->resumed_from << "\n";
    }
    if (observed->checkpoints_written > 0) {
      std::cout << observed->checkpoints_written
                << " checkpoint(s) written to " << options.checkpoint_out_path
                << "\n";
    }
    if (observed->halted) {
      std::cout << "halted after " << observed->checkpoints_written
                << " checkpoint(s); resume with --resume-from "
                << options.checkpoint_out_path << "\n";
      return 3;
    }
    outcome.emplace(observed->scenario_outcome());
  }

  print_result(scenario.name, outcome->result);
  std::cout << "stream: " << outcome->stream.slices() << " slices, digest 0x"
            << std::hex << outcome->stream.digest() << std::dec << ", "
            << outcome->stream.invariant_violations()
            << " invariant violations\n";
  if (outcome->portfolio.has_value()) print_portfolio(*outcome->portfolio);
  if (outcome->dag.has_value()) print_dag(*outcome->dag);
  if (obs != nullptr) {
    record_scenario_metrics(obs->metrics, scenario.name + ".", *outcome);
  }
  if (observed.has_value()) {
    const int export_status = export_reports(
        options, checkpointing ? nullptr : obs, timers,
        observed_scenario_report(scenario, *context, *observed),
        observed->jsonl(observed->portfolio));
    if (export_status != 0) return export_status;
  }
  return outcome->stream.invariant_violations() == 0 ? 0 : 1;
}

// "8,16" -> {8, 16}; parse errors go through the flag's usual parser.
std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  if (items.empty()) usage(flag + " expects a comma-separated list");
  return items;
}

int cmd_sweep(const CliOptions& options, ObsSession* obs) {
  PhaseTimers timers;
  const Scenario base = load_scenario(options);

  SweepGrid grid;
  grid.base = base;
  grid.core_counts.clear();
  for (const std::string& item :
       split_list("--sweep-cores", options.sweep_cores)) {
    grid.core_counts.push_back(
        FlagValue{"--sweep-cores", item}.count<std::size_t>(1));
  }
  grid.mean_gaps.clear();
  if (options.sweep_gaps.empty()) {
    grid.mean_gaps.push_back(base.arrivals.mean_interarrival_cycles);
  } else {
    for (const std::string& item :
         split_list("--sweep-gaps", options.sweep_gaps)) {
      grid.mean_gaps.push_back(FlagValue{"--sweep-gaps", item}.real(1.0, 1e15));
    }
  }
  grid.policies = split_list("--sweep-policies", options.sweep_policies);
  grid.validate();

  std::optional<ScenarioContext> context;
  {
    const auto scope = timers.scope("setup");
    context.emplace(grid.context_scenario(), options.profile_cache_path);
  }
  const std::size_t shards =
      options.shards == 0 ? grid.cell_count() : options.shards;

  // Supervision flags add per-cell timeout/retry and an optional shard
  // manifest for resume. Cell telemetry travels through the manifest, so
  // supervised cells get no tracers: a resumed sweep must reproduce the
  // merged outputs byte-identically without re-running completed cells.
  const bool supervised = options.wants_supervision();
  SweepSupervisorOptions sopts;
  sopts.cell_timeout_ms = options.cell_timeout_ms;
  sopts.max_attempts = options.cell_retries;
  sopts.retry_backoff_ms = options.cell_backoff_ms;
  sopts.window_cycles = options.wants_windows() ? options.window_cycles : 0;
  sopts.manifest_out = options.manifest_out_path;
  sopts.resume_manifest = options.resume_from_path;
  // One tracer per cell, created serially before the fan-out (stable
  // registration order), each touched only by the shard running its cell.
  if (obs != nullptr && !supervised) {
    for (std::size_t i = 0; i < grid.cell_count(); ++i) {
      sopts.cell_observers.push_back(
          &obs->add_system_tracer(grid.cell_label(i)));
    }
  }
  SupervisedSweepResult sweep;
  {
    const auto scope = timers.scope("run");
    sweep = run_sweep_supervised(grid, *context, shards,
                                 ThreadPool::global(), sopts);
  }
  if (sweep.resumed_cells > 0) {
    std::cout << sweep.resumed_cells
              << " cell(s) resumed from the manifest\n";
  }
  const std::vector<SweepCell>& cells = sweep.cells;

  TablePrinter table({"cell", "status", "completed", "total mJ", "makespan",
                      "digest"});
  std::uint64_t violations = 0;
  for (const SweepCell& cell : cells) {
    if (!cell.completed) {
      table.add_row({cell.label, "FAILED", "-", "-", "-", "-"});
      continue;
    }
    std::ostringstream digest;
    digest << std::hex << cell.stream_digest;
    table.add_row(
        {cell.label, "ok", std::to_string(cell.result.completed_jobs),
         TablePrinter::num(cell.result.total_energy().millijoules(), 2),
         std::to_string(cell.result.makespan), digest.str()});
    violations += cell.invariant_violations;
  }
  std::cout << grid.cell_count() << " cells in " << shards << " shards ("
            << ThreadPool::global().thread_count() << " threads, "
            << sweep.failed.size() << " quarantined):\n";
  table.print(std::cout);
  for (const SweepFailure& f : sweep.failed) {
    std::cerr << "quarantined " << f.label << " after " << f.attempts
              << " attempt(s): " << (f.timed_out ? "timeout: " : "")
              << f.reason << "\n";
  }
  if (obs != nullptr) record_sweep_metrics(obs->metrics, "sweep.", cells);

  RunReport report = sweep_report(grid, *context, sweep, sopts.window_cycles);
  // One JSONL block per completed cell, in grid order.
  std::string windows;
  for (const SweepCell& cell : cells) {
    if (cell.completed) windows += cell.windows_jsonl;
  }
  if (supervised) {
    // Like the checkpointed scenario path, the report's metrics come
    // from a local registry so a resumed sweep's report is
    // byte-identical to a clean run's.
    MetricsRegistry local;
    record_sweep_metrics(local, "sweep.", cells);
    report.metrics_json = local.to_json();
  }
  const int export_status = export_reports(
      options, supervised ? nullptr : obs, timers, std::move(report),
      windows);
  if (export_status != 0) return export_status;
  if (!sweep.failed.empty()) return 1;
  if (violations != 0) {
    std::cerr << "error: " << violations << " schedule invariant violations\n";
    return 1;
  }
  return 0;
}

std::optional<std::string> slurp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int cmd_bench_diff(const CliOptions& options) {
  const std::optional<std::string> baseline = slurp_file(options.positional[0]);
  if (!baseline.has_value()) {
    std::cerr << "cannot open " << options.positional[0] << "\n";
    return 2;
  }
  const std::optional<std::string> current = slurp_file(options.positional[1]);
  if (!current.has_value()) {
    std::cerr << "cannot open " << options.positional[1] << "\n";
    return 2;
  }
  bool regressed = false;
  std::cout << "bench-diff " << options.positional[0] << " -> "
            << options.positional[1] << " (tolerance "
            << options.tolerance << ")\n"
            << bench_diff(*baseline, *current, options.tolerance,
                          &regressed);
  return regressed ? 1 : 0;
}

int cmd_analyze(const CliOptions& options) {
  if (options.analyze_report_path.empty()) {
    usage("analyze requires --report FILE");
  }
  const std::optional<std::string> report =
      slurp_file(options.analyze_report_path);
  if (!report.has_value()) {
    std::cerr << "cannot open " << options.analyze_report_path << "\n";
    return 2;
  }
  std::string windows;
  if (!options.analyze_windows_path.empty()) {
    const std::optional<std::string> jsonl =
        slurp_file(options.analyze_windows_path);
    if (!jsonl.has_value()) {
      std::cerr << "cannot open " << options.analyze_windows_path << "\n";
      return 2;
    }
    windows = *jsonl;
  }
  AnalyzeOptions aopts;
  aopts.top = options.analyze_top;
  const std::string output = analyze_run(*report, windows, aopts);
  if (options.analyze_out_path.empty()) {
    std::cout << output;
    return 0;
  }
  return write_text_file(options.analyze_out_path, output, "analysis") ? 0
                                                                       : 1;
}

int run_command(const CliOptions& options) {
  // Observability is opt-in: with neither flag the probe stays null and
  // the simulators run observer-free (the zero-cost disabled path).
  std::optional<ObsSession> obs;
  std::optional<ScopedProbe> probe;
  if (!options.trace_out_path.empty() || !options.metrics_out_path.empty() ||
      !options.report_out_path.empty()) {
    obs.emplace();
    obs->trace_path = options.trace_out_path;
    obs->metrics_path = options.metrics_out_path;
    obs->max_trace_events = options.max_trace_events;
    obs->job_spans = options.trace_spans;
    obs->runtime.set_max_events(options.max_trace_events);
    probe.emplace(&obs->recorder);
  }
  ObsSession* obs_ptr = obs.has_value() ? &*obs : nullptr;
  int status = 0;
  if (options.command == "characterize") {
    status = cmd_characterize(options);
  } else if (options.command == "train") {
    status = cmd_train(options);
  } else if (options.command == "run") {
    status = cmd_scenario(options, obs_ptr, options.scenario);
  } else if (options.command == "compare") {
    status = cmd_compare(options, obs_ptr);
  } else if (options.command == "scenario") {
    status = cmd_scenario(options, obs_ptr, load_scenario(options));
  } else if (options.command == "sweep") {
    status = cmd_sweep(options, obs_ptr);
  } else if (options.command == "bench-diff") {
    status = cmd_bench_diff(options);
  } else {
    status = cmd_analyze(options);
  }
  if (status == 0 && obs.has_value() && !obs->finish()) return 1;
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_command(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
