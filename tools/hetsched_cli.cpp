// hetsched command-line driver; usage() below is the command and flag
// reference.
//
// Everything the CLI simulates is a Scenario. `scenario` and `sweep`
// read theirs from --file; `run` and `compare` build one from the common
// flags (--system, --arrivals, --gap, --seed, --cores, --scale,
// --discipline, --slack, --fault-*), and --load replaces its predictor
// training. One scenario runs through run_scenario, or through
// run_scenario_checkpointed when windows, a report or checkpoints are
// requested; a grid of scenarios (a sweep, or compare's four Section-V
// systems) runs through run_sweep_supervised.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
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
#include "util/csv.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace {

using namespace hetsched;

struct CliOptions {
  std::string command;
  // The scenario the common flags describe (run, compare; characterize
  // and train read its suite and seed). `scenario_flag` is the first such
  // flag given, which scenario and sweep reject.
  Scenario scenario;
  std::string scenario_flag;
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
  double tolerance = 0.5;  // bench-diff/analyze-diff slack before failing
  std::vector<std::string> positional;  // bench-diff/analyze file operands

  // analyze: forensics inputs and presentation.
  std::string analyze_report_path;
  std::string analyze_windows_path;
  std::string analyze_out_path;
  std::size_t analyze_top = 8;
  bool analyze_diff_mode = false;
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
      std::ostringstream out;
      write_chrome_trace(out, processes);
      if (!atomic_write_file(trace_path, out.str())) {
        std::cerr << "cannot write " << trace_path << "\n";
        return false;
      }
      std::cout << "trace written to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      std::ostringstream out;
      metrics.write_json(out);
      if (!atomic_write_file(metrics_path, out.str())) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return false;
      }
      std::cout << "metrics written to " << metrics_path << "\n";
    }
    return true;
  }
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: hetsched_cli "
      "<compare|run|characterize|train|scenario|sweep|bench-diff|analyze> "
      "[options]\n"
      "       hetsched_cli bench-diff BASELINE.json CURRENT.json\n"
      "                    [--tolerance X]\n"
      "       hetsched_cli analyze --report REPORT.json\n"
      "                    [--windows FILE.jsonl] [--top N] [--out FILE]\n"
      "       hetsched_cli analyze --diff BASELINE.json CURRENT.json\n"
      "                    [--tolerance X] [--out FILE]\n"
      "  run and compare build their scenario from --system, --arrivals,\n"
      "  --gap, --seed, --cores, --scale, --discipline, --slack, --fault-*\n"
      "  and --load; scenario and sweep read it from --file and reject\n"
      "  those flags.\n"
      "  --system S      base|optimal|energy-centric|proposed|realtime|\n"
      "                  sjf|energy-greedy|random|oracle|cp-aware|\n"
      "                  portfolio:<a>+<b>[@cycles] (competitive\n"
      "                  meta-scheduler over the named contenders)\n"
      "  --arrivals N    jobs in the stream (default 5000)\n"
      "  --gap CYCLES    mean inter-arrival gap (default 55000)\n"
      "  --seed N        experiment seed (default 42)\n"
      "  --cores N       cores per simulated system (default 4; 4 = the\n"
      "                  paper machines, otherwise the scaled layout)\n"
      "  --scale X       kernel working-set scale (default 1.0)\n"
      "  --discipline D  fifo|edf|priority ready-queue order\n"
      "  --slack X       assign deadlines = arrival + X*base cycles\n"
      "  --kernel NAME   (characterize) single-kernel sweep\n"
      "  --save FILE     (train) persist the predictor snapshot\n"
      "  --load FILE     use a saved predictor snapshot instead of training\n"
      "  --threads N     worker threads (default: HETSCHED_THREADS or all\n"
      "                  hardware threads)\n"
      "  --profile-cache FILE\n"
      "                  persistent characterisation snapshot to load or\n"
      "                  refresh\n"
      "  --fault-plan F  inject faults from a fault-plan file\n"
      "  --fault-rate P  uniform rate in [0,1] for reconfig failures,\n"
      "                  stuck jobs and counter corruption\n"
      "  --fault-seed N  fault-decision seed (default 1)\n"
      "  --trace-out F   write a Chrome-trace/Perfetto JSON (ts in\n"
      "                  simulated cycles; open in ui.perfetto.dev)\n"
      "  --metrics-out F write the metrics-registry snapshot as JSON\n"
      "  --max-trace-events N\n"
      "                  retain at most N trace events per tracer\n"
      "                  (0 = unlimited; default 1000000)\n"
      "  --windows-out F write per-window telemetry JSONL (run/scenario/\n"
      "                  sweep; one line per closed tumbling window)\n"
      "  --window-cycles N\n"
      "                  window width in simulated cycles (default 1e6)\n"
      "  --report-out F  write the unified run-report JSON (run/scenario/\n"
      "                  sweep)\n"
      "  --report-deterministic\n"
      "                  emit the report with empty phases_ms so identical\n"
      "                  runs produce byte-identical reports\n"
      "  --checkpoint-out F\n"
      "                  (scenario) write a resumable checkpoint atomically\n"
      "                  at every stride boundary\n"
      "  --checkpoint-every N\n"
      "                  (scenario) windows per checkpoint stride (default 1)\n"
      "  --resume-from F (scenario) resume from a checkpoint file;\n"
      "                  (sweep) resume from a shard manifest\n"
      "  --halt-after-checkpoints N\n"
      "                  (scenario, with --checkpoint-out) stop with exit 3\n"
      "                  after N checkpoints, simulating a crash\n"
      "  --cell-timeout-ms N\n"
      "                  (sweep) wall-clock budget per cell attempt\n"
      "  --cell-retries N\n"
      "                  (sweep) attempts per cell before quarantine\n"
      "  --cell-backoff-ms N\n"
      "                  (sweep) sleep between attempts of one cell\n"
      "  --manifest-out F\n"
      "                  (sweep) persist the shard manifest after every\n"
      "                  completed cell\n"
      "  --tolerance X   (bench-diff/analyze --diff) relative slack before\n"
      "                  a metric counts as regressed (default 0.5)\n"
      "  --trace-spans   add Perfetto async job-lifecycle spans ('b'/'e'\n"
      "                  pairs, arrival -> completion) to --trace-out\n"
      "  --report F      (analyze) run-report JSON to analyze\n"
      "  --windows F     (analyze) windows JSONL for the per-window tables\n"
      "  --top N         (analyze) rows in the slowest-jobs and hottest-\n"
      "                  windows tables (default 8)\n"
      "  --diff          (analyze) diff two reports instead of rendering\n"
      "                  one\n"
      "  --out F         (analyze) write the analysis there instead of\n"
      "                  stdout\n"
      "  --file F        (scenario/sweep) scenario description file\n"
      "  --sweep-cores L   (sweep) comma list of core counts (default 4)\n"
      "  --sweep-gaps L    (sweep) comma list of mean gaps (default: the\n"
      "                    scenario file's mean-gap)\n"
      "  --sweep-policies L\n"
      "                  (sweep) comma list of policies (default\n"
      "                  base,proposed)\n"
      "  --shards N      (sweep) contiguous shards to split the grid into\n"
      "                  (default: one per cell)\n";
  std::exit(2);
}

// Flag-value parsing that rejects garbage instead of silently truncating
// it (std::stoull("12abc") == 12): the whole token must parse, and the
// value must lie in the flag's legal range.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t min_value) {
  std::uint64_t value = 0;
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  const auto [parsed_end, err] = std::from_chars(begin, end, value, 10);
  if (text.empty() || err != std::errc{} || parsed_end != end) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  if (value < min_value) {
    usage(flag + " must be at least " + std::to_string(min_value) +
          ", got '" + text + "'");
  }
  return value;
}

// Output-path hardening: fail fast (before minutes of simulation) when a
// requested artifact would land in a directory that does not exist —
// atomic temp+rename cannot create parents.
void require_parent_dir(const std::string& flag, const std::string& path) {
  if (path.empty()) return;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty() && !std::filesystem::is_directory(parent, ec)) {
    usage(flag + ": directory '" + parent.string() + "' does not exist");
  }
}

double parse_real(const std::string& flag, const std::string& text,
                  double min_value, double max_value) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < min_value || value > max_value) {
    std::ostringstream range;
    range << "[" << min_value << ", " << max_value << "]";
    usage(flag + " expects a number in " + range.str() + ", got '" + text +
          "'");
  }
  return value;
}

QueueDiscipline parse_discipline(const std::string& name) {
  if (name == "fifo") return QueueDiscipline::kFifo;
  if (name == "edf") return QueueDiscipline::kEdf;
  if (name == "priority") return QueueDiscipline::kPriority;
  usage("unknown discipline " + name);
}

// The fault plan of the flag scenario: a plan file, a uniform rate, or a
// file with its rates/seed overridden from the command line.
FaultPlan flag_fault_plan(const std::string& path,
                          std::optional<double> rate,
                          std::optional<std::uint64_t> seed) {
  FaultPlan plan;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    plan = FaultPlan::parse(in);
  }
  if (rate.has_value()) {
    plan.reconfig_failure_rate = *rate;
    plan.stuck_job_rate = *rate;
    plan.counter_corruption_rate = *rate;
  }
  if (seed.has_value()) plan.seed = *seed;
  return plan;
}

CliOptions parse(int argc, char** argv) {
  if (argc < 2) usage();
  CliOptions options;
  options.command = argv[1];
  Scenario& scenario = options.scenario;
  std::size_t cores = 4;
  std::string fault_plan_path;
  std::optional<double> fault_rate;
  std::optional<std::uint64_t> fault_seed;
  const std::set<std::string> scenario_flags = {
      "--system",     "--arrivals",   "--gap",        "--seed",
      "--cores",      "--scale",      "--discipline", "--slack",
      "--fault-plan", "--fault-rate", "--fault-seed", "--load"};
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    auto next_path = [&]() -> std::string {
      std::string path = next();
      if (path.empty()) usage(flag + " expects a file path");
      return path;
    };
    if (options.scenario_flag.empty() && scenario_flags.contains(flag)) {
      options.scenario_flag = flag;
    }
    if (flag == "--system") {
      scenario.policy = next();
    } else if (flag == "--arrivals") {
      scenario.arrivals.count =
          static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--gap") {
      scenario.arrivals.mean_interarrival_cycles =
          parse_real(flag, next(), 1.0, 1e15);
    } else if (flag == "--seed") {
      scenario.seed = parse_count(flag, next(), 0);
    } else if (flag == "--cores") {
      cores = static_cast<std::size_t>(parse_count(flag, next(), 2));
    } else if (flag == "--scale") {
      scenario.suite.kernel_scale = parse_real(flag, next(), 1e-6, 1e6);
    } else if (flag == "--discipline") {
      scenario.discipline = parse_discipline(next());
    } else if (flag == "--slack") {
      scenario.realtime =
          RealtimeOptions{parse_real(flag, next(), 1e-6, 1e6), 3};
    } else if (flag == "--kernel") {
      options.kernel = next();
    } else if (flag == "--save") {
      options.save_path = next();
    } else if (flag == "--load") {
      options.load_path = next();
    } else if (flag == "--threads") {
      const std::uint64_t threads = parse_count(flag, next(), 1);
      if (threads > 256) {
        usage(flag + " must be at most 256, got " +
              std::to_string(threads));
      }
      ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
    } else if (flag == "--profile-cache") {
      options.profile_cache_path = next();
    } else if (flag == "--fault-plan") {
      fault_plan_path = next();
    } else if (flag == "--fault-rate") {
      fault_rate = parse_real(flag, next(), 0.0, 1.0);
    } else if (flag == "--fault-seed") {
      fault_seed = parse_count(flag, next(), 0);
    } else if (flag == "--trace-out") {
      options.trace_out_path = next_path();
    } else if (flag == "--metrics-out") {
      options.metrics_out_path = next_path();
    } else if (flag == "--report-out") {
      options.report_out_path = next_path();
    } else if (flag == "--windows-out") {
      options.windows_out_path = next_path();
    } else if (flag == "--window-cycles") {
      options.window_cycles = parse_count(flag, next(), 1);
    } else if (flag == "--max-trace-events") {
      options.max_trace_events =
          static_cast<std::size_t>(parse_count(flag, next(), 0));
    } else if (flag == "--tolerance") {
      options.tolerance = parse_real(flag, next(), 0.0, 1e6);
    } else if (flag == "--report" && options.command == "analyze") {
      options.analyze_report_path = next_path();
    } else if (flag == "--windows" && options.command == "analyze") {
      options.analyze_windows_path = next_path();
    } else if (flag == "--out" && options.command == "analyze") {
      options.analyze_out_path = next_path();
    } else if (flag == "--top") {
      options.analyze_top =
          static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--diff") {
      options.analyze_diff_mode = true;
    } else if (flag == "--trace-spans") {
      options.trace_spans = true;
    } else if (!flag.starts_with("--") &&
               (options.command == "bench-diff" ||
                options.command == "analyze")) {
      options.positional.push_back(flag);
    } else if (flag == "--file") {
      options.scenario_path = next_path();
    } else if (flag == "--sweep-cores") {
      options.sweep_cores = next();
    } else if (flag == "--sweep-gaps") {
      options.sweep_gaps = next();
    } else if (flag == "--sweep-policies") {
      options.sweep_policies = next();
    } else if (flag == "--shards") {
      options.shards = static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--checkpoint-out") {
      options.checkpoint_out_path = next_path();
    } else if (flag == "--checkpoint-every") {
      options.checkpoint_every = parse_count(flag, next(), 1);
      options.checkpoint_every_given = true;
    } else if (flag == "--resume-from") {
      options.resume_from_path = next_path();
    } else if (flag == "--halt-after-checkpoints") {
      options.halt_after_checkpoints = parse_count(flag, next(), 1);
    } else if (flag == "--cell-timeout-ms") {
      options.cell_timeout_ms = parse_count(flag, next(), 1);
    } else if (flag == "--cell-retries") {
      options.cell_retries =
          static_cast<std::uint32_t>(parse_count(flag, next(), 1));
    } else if (flag == "--cell-backoff-ms") {
      options.cell_backoff_ms = parse_count(flag, next(), 0);
    } else if (flag == "--manifest-out") {
      options.manifest_out_path = next_path();
    } else if (flag == "--report-deterministic") {
      options.deterministic_report = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  // Interval sanity shared with the checkpoint driver: both counts must
  // be >= 1 (parse_count enforces that) and the checkpoint stride
  // window_cycles * checkpoint_every must not overflow the simulated
  // clock — a wrapped stride would silently disable checkpointing.
  const std::string interval_error =
      window_interval_error(options.window_cycles, options.checkpoint_every);
  if (!interval_error.empty()) {
    usage("--window-cycles/--checkpoint-every: " + interval_error);
  }
  // Checkpoint flags must produce something: only scenario writes
  // checkpoints, a halt must leave one to resume from, and a stride
  // needs a checkpoint to write or to resume from.
  if ((!options.checkpoint_out_path.empty() ||
       options.checkpoint_every_given ||
       options.halt_after_checkpoints > 0) &&
      options.command != "scenario") {
    usage("--checkpoint-out, --checkpoint-every and "
          "--halt-after-checkpoints apply to scenario only");
  }
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
  const bool file_scenario =
      options.command == "scenario" || options.command == "sweep";
  if (!options.resume_from_path.empty() && !file_scenario) {
    usage("--resume-from applies to scenario and sweep only");
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
  if (options.wants_windows() && !file_scenario &&
      options.command != "run") {
    usage("--report-out and --windows-out apply to run, scenario and "
          "sweep only");
  }
  // The flag scenario: scenario and sweep take theirs from --file; run
  // and compare must describe a valid one before any setup starts.
  if (file_scenario && !options.scenario_flag.empty()) {
    usage(options.scenario_flag + " describes the run/compare scenario; " +
          options.command + " reads its scenario from --file");
  }
  scenario.name = scenario.policy;
  scenario.use_standard_machine(cores);
  if (options.command == "run" || options.command == "compare") {
    scenario.faults =
        flag_fault_plan(fault_plan_path, fault_rate, fault_seed);
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
  require_parent_dir("--trace-out", options.trace_out_path);
  require_parent_dir("--metrics-out", options.metrics_out_path);
  require_parent_dir("--report-out", options.report_out_path);
  require_parent_dir("--windows-out", options.windows_out_path);
  require_parent_dir("--checkpoint-out", options.checkpoint_out_path);
  require_parent_dir("--manifest-out", options.manifest_out_path);
  require_parent_dir("--save", options.save_path);
  require_parent_dir("--out", options.analyze_out_path);
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
        static_cast<std::size_t>(parse_count("--sweep-cores", item, 1)));
  }
  grid.mean_gaps.clear();
  if (options.sweep_gaps.empty()) {
    grid.mean_gaps.push_back(base.arrivals.mean_interarrival_cycles);
  } else {
    for (const std::string& item :
         split_list("--sweep-gaps", options.sweep_gaps)) {
      grid.mean_gaps.push_back(parse_real("--sweep-gaps", item, 1.0, 1e15));
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

  // Aggregated sweep report: totals over the completed cells; the window
  // summary sums each cell's (per-cell windows land in --windows-out, one
  // JSONL block per cell in grid order, window indices restarting at 0),
  // and cells sharing a policy merge into one latency row.
  RunReport report;
  report.command = "sweep";
  report.name = base.name;
  report.policy = options.sweep_policies;
  report.system = "grid";
  report.discipline = std::string(to_string(base.discipline));
  report.cores = 0;
  report.seed = base.seed;
  report.jobs =
      static_cast<std::uint64_t>(base.arrivals.count) * cells.size();
  report.suite_key = suite_cache_key(base.suite, context->energy());
  std::string windows;
  for (const SweepCell& cell : cells) {
    if (!cell.completed) continue;
    report.completed_jobs += cell.result.completed_jobs;
    report.makespan =
        std::max<std::uint64_t>(report.makespan, cell.result.makespan);
    report.total_energy_mj += cell.result.total_energy().millijoules();
    if (!options.wants_windows()) continue;
    report.window_cycles = options.window_cycles;
    report.windows_closed += cell.windows_closed;
    report.dropped_windows += cell.dropped_windows;
    report.window_jobs_completed += cell.window_jobs_completed;
    report.window_energy_mj += cell.window_energy_mj;
    windows += cell.windows_jsonl;
  }
  if (options.wants_windows()) {
    attach_sweep_latency(report, cells, options.window_cycles);
  }
  for (const SweepFailure& f : sweep.failed) {
    report.failed_cells.push_back(
        {f.label, f.attempts, f.timed_out, f.reason});
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
  if (options.positional.size() != 2) {
    usage("bench-diff expects exactly two operands: BASELINE.json "
          "CURRENT.json");
  }
  auto slurp = slurp_file;
  const std::optional<std::string> baseline = slurp(options.positional[0]);
  if (!baseline.has_value()) {
    std::cerr << "cannot open " << options.positional[0] << "\n";
    return 2;
  }
  const std::optional<std::string> current = slurp(options.positional[1]);
  if (!current.has_value()) {
    std::cerr << "cannot open " << options.positional[1] << "\n";
    return 2;
  }
  const BenchDiffResult diff =
      bench_diff(*baseline, *current, options.tolerance);
  std::cout << "bench-diff " << options.positional[0] << " -> "
            << options.positional[1] << " (tolerance "
            << options.tolerance << ")\n"
            << diff.summary(options.tolerance);
  return diff.regressed() ? 1 : 0;
}

int cmd_analyze(const CliOptions& options) {
  std::string output;
  bool failed = false;
  if (options.analyze_diff_mode) {
    if (options.positional.size() != 2) {
      usage("analyze --diff expects exactly two operands: BASELINE.json "
            "CURRENT.json");
    }
    const std::optional<std::string> baseline =
        slurp_file(options.positional[0]);
    if (!baseline.has_value()) {
      std::cerr << "cannot open " << options.positional[0] << "\n";
      return 2;
    }
    const std::optional<std::string> current =
        slurp_file(options.positional[1]);
    if (!current.has_value()) {
      std::cerr << "cannot open " << options.positional[1] << "\n";
      return 2;
    }
    output = "analyze --diff " + options.positional[0] + " -> " +
             options.positional[1] + " (tolerance " +
             CsvWriter::number(options.tolerance) + ")\n";
    bool regressed = false;
    output += analyze_diff(*baseline, *current, options.tolerance,
                           &regressed);
    failed = regressed;
  } else {
    if (options.analyze_report_path.empty()) {
      usage("analyze requires --report FILE (or --diff A B)");
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
    output = analyze_run(*report, windows, aopts);
  }
  if (!options.analyze_out_path.empty()) {
    if (!write_text_file(options.analyze_out_path, output, "analysis")) {
      return 1;
    }
  } else {
    std::cout << output;
  }
  return failed ? 1 : 0;
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
  int status = 2;
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
  } else if (options.command == "analyze") {
    status = cmd_analyze(options);
  } else {
    usage("unknown command " + options.command);
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
