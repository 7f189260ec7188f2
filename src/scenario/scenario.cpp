#include "scenario/scenario.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/policy_registry.hpp"

namespace hetsched {
namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("scenario line " + std::to_string(line) + ": " +
                           what);
}

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("Scenario: " + what);
}

bool known_policy(const std::string& policy) {
  return PolicyRegistry::instance().known(policy);
}

}  // namespace

std::string_view to_string(Scenario::SystemKind kind) {
  switch (kind) {
    case Scenario::SystemKind::kPaperQuad: return "paper";
    case Scenario::SystemKind::kFixedBase: return "base";
    case Scenario::SystemKind::kScaledHeterogeneous: return "scaled";
  }
  return "unknown";
}

std::string_view to_string(QueueDiscipline discipline) {
  switch (discipline) {
    case QueueDiscipline::kFifo: return "fifo";
    case QueueDiscipline::kEdf: return "edf";
    case QueueDiscipline::kPriority: return "priority";
  }
  return "unknown";
}

SystemConfig Scenario::make_system() const {
  switch (system) {
    case SystemKind::kPaperQuad:
      return SystemConfig::paper_quadcore();
    case SystemKind::kFixedBase:
      return SystemConfig::fixed_base(cores);
    case SystemKind::kScaledHeterogeneous:
      return SystemConfig::scaled_heterogeneous(cores);
  }
  invalid("unknown system kind");
}

void Scenario::use_standard_machine(std::size_t core_count) {
  cores = core_count;
  if (policy == "base") {
    system = SystemKind::kFixedBase;
  } else if (cores == 4) {
    system = SystemKind::kPaperQuad;
  } else {
    system = SystemKind::kScaledHeterogeneous;
  }
}

bool Scenario::needs_predictor() const {
  return PolicyRegistry::instance().needs_predictor(policy);
}

PredictorConfig Scenario::predictor_config() const {
  PredictorConfig config;
  config.ensemble_size = predictor_ensemble;
  if (predictor_max_epochs > 0) {
    config.trainer.max_epochs = predictor_max_epochs;
  }
  return config;
}

void Scenario::validate() const {
  if (name.empty()) invalid("name must not be empty");
  if (!known_policy(policy)) invalid("unknown policy '" + policy + "'");
  if (cores < 1) invalid("cores must be >= 1");
  if (system == SystemKind::kPaperQuad && cores != 4) {
    invalid("the paper system has exactly 4 cores");
  }
  if (system == SystemKind::kScaledHeterogeneous && cores < 2) {
    invalid("the scaled heterogeneous system needs >= 2 cores");
  }
  if (arrivals.count == 0) invalid("jobs must be >= 1");
  if (!(arrivals.mean_interarrival_cycles > 0.0) ||
      !std::isfinite(arrivals.mean_interarrival_cycles)) {
    invalid("mean-gap must be finite and > 0");
  }
  if (!(arrivals.burstiness >= 1.0) ||
      !std::isfinite(arrivals.burstiness)) {
    invalid("burstiness must be finite and >= 1");
  }
  if (!(arrivals.phase_switch >= 0.0 && arrivals.phase_switch <= 1.0)) {
    invalid("phase-switch must lie in [0, 1]");
  }
  if (!(suite.kernel_scale > 0.0 && suite.kernel_scale <= 4.0)) {
    invalid("kernel-scale must lie in (0, 4]");
  }
  if (suite.variants_per_kernel < 1) {
    invalid("variants-per-kernel must be >= 1");
  }
  if (predictor_ensemble < 1) invalid("ensemble must be >= 1");
  if (realtime.has_value()) {
    if (!(realtime->slack_factor > 0.0) ||
        !std::isfinite(realtime->slack_factor)) {
      invalid("slack must be finite and > 0");
    }
    if (realtime->priority_levels < 1) {
      invalid("priority-levels must be >= 1");
    }
  }
  faults.validate();
  for (const CoreFaultEvent& event : faults.core_events) {
    if (event.core >= cores) {
      invalid("fault event core " + std::to_string(event.core) +
              " out of range for a " + std::to_string(cores) +
              "-core system");
    }
  }
}

Scenario Scenario::parse(std::istream& in) {
  Scenario scenario;
  std::string line;
  std::size_t line_number = 0;
  // Source line of each dep edge, in edge order: DAG structural errors
  // (range, self/duplicate edges, cycles) are only checkable once the
  // whole graph is read, but must still name the offending line.
  std::vector<std::size_t> dep_lines;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive) || directive[0] == '#') continue;

    auto read_u64 = [&](std::uint64_t& out, std::uint64_t min_value) {
      if (!(tokens >> out) || out < min_value) {
        parse_fail(line_number, "'" + directive +
                                    "' expects an integer >= " +
                                    std::to_string(min_value));
      }
    };
    auto read_size = [&](std::size_t& out, std::size_t min_value) {
      std::uint64_t v = 0;
      read_u64(v, min_value);
      out = static_cast<std::size_t>(v);
    };
    auto read_real = [&](double& out, double lo, double hi) {
      if (!(tokens >> out) || !std::isfinite(out) || out < lo || out > hi) {
        parse_fail(line_number,
                   "'" + directive + "' expects a finite number in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
      }
    };
    auto read_event = [&](bool fail) {
      CoreFaultEvent ev;
      ev.fail = fail;
      if (!(tokens >> ev.core >> ev.at)) {
        parse_fail(line_number, "'" + directive + "' expects CORE and CYCLE");
      }
      scenario.faults.core_events.push_back(ev);
    };

    if (directive == "name") {
      if (!(tokens >> scenario.name)) {
        parse_fail(line_number, "'name' expects a token");
      }
    } else if (directive == "system") {
      std::string kind;
      if (!(tokens >> kind)) parse_fail(line_number, "missing system kind");
      if (kind == "paper") {
        scenario.system = SystemKind::kPaperQuad;
      } else if (kind == "base") {
        scenario.system = SystemKind::kFixedBase;
      } else if (kind == "scaled") {
        scenario.system = SystemKind::kScaledHeterogeneous;
      } else {
        parse_fail(line_number, "unknown system '" + kind + "'");
      }
    } else if (directive == "cores") {
      read_size(scenario.cores, 1);
    } else if (directive == "policy") {
      std::string policy;
      if (!(tokens >> policy) || !known_policy(policy)) {
        parse_fail(line_number, "policy must be one of: " +
                                    PolicyRegistry::instance().names_help());
      }
      scenario.policy = policy;
    } else if (directive == "discipline") {
      std::string discipline;
      if (!(tokens >> discipline)) {
        parse_fail(line_number, "missing discipline");
      }
      if (discipline == "fifo") {
        scenario.discipline = QueueDiscipline::kFifo;
      } else if (discipline == "edf") {
        scenario.discipline = QueueDiscipline::kEdf;
      } else if (discipline == "priority") {
        scenario.discipline = QueueDiscipline::kPriority;
      } else {
        parse_fail(line_number, "unknown discipline '" + discipline + "'");
      }
    } else if (directive == "seed") {
      read_u64(scenario.seed, 0);
    } else if (directive == "jobs") {
      std::uint64_t jobs = 0;
      read_u64(jobs, 1);
      scenario.arrivals.count = static_cast<std::size_t>(jobs);
    } else if (directive == "mean-gap") {
      read_real(scenario.arrivals.mean_interarrival_cycles, 1e-9, 1e15);
    } else if (directive == "distribution") {
      std::string dist;
      if (!(tokens >> dist)) parse_fail(line_number, "missing distribution");
      if (dist == "uniform") {
        scenario.arrivals.distribution = InterarrivalDistribution::kUniform;
      } else if (dist == "exponential") {
        scenario.arrivals.distribution =
            InterarrivalDistribution::kExponential;
      } else if (dist == "fixed") {
        scenario.arrivals.distribution = InterarrivalDistribution::kFixed;
      } else {
        parse_fail(line_number, "unknown distribution '" + dist + "'");
      }
    } else if (directive == "burstiness") {
      read_real(scenario.arrivals.burstiness, 1.0, 1e6);
    } else if (directive == "phase-switch") {
      read_real(scenario.arrivals.phase_switch, 0.0, 1.0);
    } else if (directive == "kernel-scale") {
      read_real(scenario.suite.kernel_scale, 1e-6, 4.0);
    } else if (directive == "variants-per-kernel") {
      read_size(scenario.suite.variants_per_kernel, 1);
    } else if (directive == "extended-suite") {
      std::uint64_t flag = 0;
      read_u64(flag, 0);
      if (flag > 1) parse_fail(line_number, "'extended-suite' expects 0 or 1");
      scenario.suite.include_extended = flag == 1;
    } else if (directive == "ensemble") {
      read_size(scenario.predictor_ensemble, 1);
    } else if (directive == "max-epochs") {
      read_size(scenario.predictor_max_epochs, 1);
    } else if (directive == "slack") {
      RealtimeOptions rt = scenario.realtime.value_or(RealtimeOptions{});
      read_real(rt.slack_factor, 1e-6, 1e6);
      scenario.realtime = rt;
    } else if (directive == "priority-levels") {
      RealtimeOptions rt = scenario.realtime.value_or(RealtimeOptions{});
      constexpr std::uint64_t kMaxLevels = std::numeric_limits<int>::max();
      std::uint64_t levels = 0;
      read_u64(levels, 1);
      if (levels > kMaxLevels) {
        parse_fail(line_number, "'priority-levels' expects at most " +
                                    std::to_string(kMaxLevels));
      }
      rt.priority_levels = static_cast<int>(levels);
      scenario.realtime = rt;
    } else if (directive == "fault-rate") {
      double rate = 0.0;
      read_real(rate, 0.0, 1.0);
      scenario.faults.reconfig_failure_rate = rate;
      scenario.faults.stuck_job_rate = rate;
      scenario.faults.counter_corruption_rate = rate;
    } else if (directive == "fault-seed") {
      read_u64(scenario.faults.seed, 0);
    } else if (directive == "fail") {
      read_event(true);
    } else if (directive == "recover") {
      read_event(false);
    } else if (directive == "dep") {
      DagEdge edge;
      if (!(tokens >> edge.from >> edge.to)) {
        parse_fail(line_number,
                   "'dep' expects two job indices (predecessor successor)");
      }
      scenario.dag.edges.push_back(edge);
      dep_lines.push_back(line_number);
    } else {
      parse_fail(line_number, "unknown directive '" + directive + "'");
    }

    std::string trailing;
    if (tokens >> trailing && trailing[0] != '#') {
      parse_fail(line_number, "trailing garbage '" + trailing + "'");
    }
  }
  // DAG structural errors first, attributed to the offending dep line,
  // then validate()'s checks of the other fields.
  if (const auto issue = scenario.dag.validate(scenario.arrivals.count)) {
    parse_fail(dep_lines[issue->edge_index], issue->what);
  }
  try {
    scenario.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }
  return scenario;
}

void Scenario::save(std::ostream& out) const {
  out.precision(17);  // doubles must survive a parse() round trip
  out << "name " << name << "\n";
  out << "system " << to_string(system) << "\n";
  out << "cores " << cores << "\n";
  out << "policy " << policy << "\n";
  out << "discipline " << to_string(discipline) << "\n";
  out << "seed " << seed << "\n";
  out << "jobs " << arrivals.count << "\n";
  out << "mean-gap " << arrivals.mean_interarrival_cycles << "\n";
  switch (arrivals.distribution) {
    case InterarrivalDistribution::kUniform:
      out << "distribution uniform\n";
      break;
    case InterarrivalDistribution::kExponential:
      out << "distribution exponential\n";
      break;
    case InterarrivalDistribution::kFixed:
      out << "distribution fixed\n";
      break;
  }
  out << "burstiness " << arrivals.burstiness << "\n";
  out << "phase-switch " << arrivals.phase_switch << "\n";
  out << "kernel-scale " << suite.kernel_scale << "\n";
  out << "variants-per-kernel " << suite.variants_per_kernel << "\n";
  out << "extended-suite " << (suite.include_extended ? 1 : 0) << "\n";
  out << "ensemble " << predictor_ensemble << "\n";
  if (predictor_max_epochs > 0) {
    out << "max-epochs " << predictor_max_epochs << "\n";
  }
  if (realtime.has_value()) {
    out << "slack " << realtime->slack_factor << "\n";
    out << "priority-levels " << realtime->priority_levels << "\n";
  }
  if (faults.reconfig_failure_rate > 0.0) {
    out << "fault-rate " << faults.reconfig_failure_rate << "\n";
  }
  if (faults.seed != 1) out << "fault-seed " << faults.seed << "\n";
  for (const CoreFaultEvent& ev : faults.core_events) {
    out << (ev.fail ? "fail " : "recover ") << ev.core << ' ' << ev.at
        << "\n";
  }
  for (const DagEdge& edge : dag.edges) {
    out << "dep " << edge.from << ' ' << edge.to << "\n";
  }
}

}  // namespace hetsched
