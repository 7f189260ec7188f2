// Scenario description: one self-contained, deterministic definition of
// a simulation run — system shape, scheduler, workload/arrival process,
// optional real-time attributes and fault plan — parseable from a small
// line-directive text format (the FaultPlan format family) so whole
// experiment setups can be checked in, diffed and replayed exactly.
//
// A scenario is a value: running the same scenario twice, at any thread
// count, produces bit-identical results (everything stochastic derives
// from the scenario seed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/predictor.hpp"
#include "core/scheduler.hpp"
#include "core/system_config.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/dag_arrivals.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterization.hpp"

namespace hetsched {

struct Scenario {
  // How the machine is built from `cores`.
  enum class SystemKind {
    kPaperQuad,            // the paper's fixed 2/4/8/8 KB quad-core
    kFixedBase,            // `cores` homogeneous base-config cores
    kScaledHeterogeneous,  // `cores` cores repeating the 2/4/8/8 mix
  };

  std::string name = "scenario";
  SystemKind system = SystemKind::kScaledHeterogeneous;
  std::size_t cores = 4;
  // Any PolicyRegistry name (base | optimal | energy-centric | proposed |
  // realtime | sjf | energy-greedy | random | oracle | cp-aware) or a
  // portfolio spec "portfolio:<a>+<b>[@window-cycles]".
  std::string policy = "proposed";
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  std::uint64_t seed = 42;

  // Arrival process; arrivals.count is the stream length (jobs).
  ArrivalOptions arrivals{};
  // Characterised-suite shape (kernel scale, variants, extended pack).
  SuiteOptions suite{};
  // Predictor training budget for the ANN-backed policies.
  std::size_t predictor_ensemble = 30;
  std::size_t predictor_max_epochs = 0;  // 0 = trainer default

  // Real-time attributes: engaged when a `slack` directive is present.
  std::optional<RealtimeOptions> realtime;

  // Job precedence graph over arrival indices 0..jobs-1 (`dep` lines);
  // empty = independent jobs, bit-identical to the plain stream. When
  // non-empty, arrivals become release-on-completion: roots keep their
  // generated arrival time, successors release when their last
  // predecessor retires.
  DagSpec dag{};

  // Fault plan (empty = fault-free, bit-identical to no injector).
  FaultPlan faults{};

  // The machine this scenario runs on.
  SystemConfig make_system() const;

  // The Section-V machine rule: `core_count` fixed-base cores for the
  // base policy, the reconfigurable machine for every other policy (the
  // paper quad-core at 4 cores, the scaled layout otherwise). Sets
  // `cores` and `system` from `policy`.
  void use_standard_machine(std::size_t core_count);

  // True when the policy (or any portfolio contender) is ANN-backed and
  // needs a trained predictor.
  bool needs_predictor() const;

  // The ANN training configuration for this scenario's budget
  // (`predictor_ensemble`, `predictor_max_epochs`).
  PredictorConfig predictor_config() const;

  // Structural checks (known policy/system, core count bounds, arrival
  // parameters, fault plan); throws std::invalid_argument on violation.
  // The DAG is checked where its graph is built: parse() names the
  // offending line, and a run's DagArrivalSource names the edge.
  void validate() const;

  // Text format, one directive per line ('#' comments allowed):
  //   name STRING
  //   system paper|base|scaled
  //   cores N
  //   policy NAME (any registry name or portfolio:<a>+<b>[@cycles])
  //   discipline fifo|edf|priority
  //   seed N
  //   jobs N
  //   mean-gap CYCLES
  //   distribution uniform|exponential|fixed
  //   burstiness X
  //   phase-switch P
  //   kernel-scale X
  //   variants-per-kernel N
  //   extended-suite 0|1
  //   ensemble N
  //   max-epochs N
  //   slack X
  //   priority-levels N
  //   fault-rate P
  //   fault-seed N
  //   fail CORE CYCLE
  //   recover CORE CYCLE
  //   dep JOB JOB (predecessor then successor, indices into 0..jobs-1)
  // parse() throws std::runtime_error with the offending line number and
  // validates the result; malformed dep edges (out-of-range or repeated
  // job ids, duplicate edges, cycles) are reported with the line of the
  // offending dep directive.
  static Scenario parse(std::istream& in);
  // Round-trips through parse(): save() then parse() reproduces the
  // scenario exactly.
  void save(std::ostream& out) const;
};

std::string_view to_string(Scenario::SystemKind kind);
std::string_view to_string(QueueDiscipline discipline);

}  // namespace hetsched
