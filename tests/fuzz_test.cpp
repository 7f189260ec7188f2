// Differential and mutation fuzzing (ctest label: fuzz).
//
// Randomised (trace, configuration) pairs drive the single-pass
// multi-configuration cache engine against the reference Cache replay,
// randomised schedules check ScheduleLog's busy-cycle reconstruction
// against a naive recount and the simulator's own accounting, and
// mutated state files and scenario texts check that every parser
// answers malformed input with std::runtime_error. Every
// iteration derives from a printed seed: a failure message carries the
// seed, and HETSCHED_FUZZ_SEED=<seed> re-runs the whole suite from that
// base for deterministic reproduction (CI pins it for the sanitizer
// job).
#include <gtest/gtest.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/multi_sim.hpp"
#include "core/schedule_log.hpp"
#include "core/serialization.hpp"
#include "experiment/experiment.hpp"
#include "experiment/sweep.hpp"
#include "obs/bench_diff.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/rng.hpp"
#include "util/snapshot_text.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

#include "dag_recording.hpp"

namespace hetsched {
namespace {

std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("HETSCHED_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedf0220ULL;
}

// Kernel-ish trace: mostly short strided runs with occasional random
// jumps, plus unaligned widths so accesses can straddle line boundaries.
MemTrace random_trace(Rng& rng) {
  const std::size_t length = 64 + rng.below(960);
  const std::uint32_t window = 1u << (10 + rng.below(6));  // 1K..32K bytes
  MemTrace trace;
  trace.reserve(length);
  std::uint32_t addr = 0x1000;
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.bernoulli(0.3)) {
      addr = 0x1000 + static_cast<std::uint32_t>(rng.below(window));
    } else {
      addr += static_cast<std::uint32_t>(1u << rng.below(5));  // 1..16 B
    }
    MemRef ref;
    ref.address = addr;
    ref.size = static_cast<std::uint8_t>(1u << rng.below(4));  // 1/2/4/8
    ref.is_write = rng.bernoulli(0.3);
    trace.push_back(ref);
  }
  return trace;
}

// Any valid power-of-two geometry, not just the Table-1 points: size
// 1..16 KB, line 8..128 B, associativity 1..8 bounded so at least one
// set exists.
CacheConfig random_config(Rng& rng) {
  for (;;) {
    CacheConfig config;
    config.size_bytes = 1024u << rng.below(5);
    config.line_bytes = 8u << rng.below(5);
    config.associativity = 1u << rng.below(4);
    if (config.valid()) return config;
  }
}

TEST(FuzzDifferential, MultiSimMatchesReferenceReplay) {
  const std::uint64_t base = fuzz_base_seed();
  const int kPairs = 500;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(pair);
    Rng rng(seed);
    const MemTrace trace = random_trace(rng);
    std::vector<CacheConfig> configs(1 + rng.below(4));
    for (CacheConfig& config : configs) config = random_config(rng);

    const std::vector<CacheSimResult> multi =
        simulate_trace_multi(trace, configs);
    ASSERT_EQ(multi.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const CacheSimResult reference = simulate_trace(trace, configs[i]);
      const CacheStats& a = multi[i].stats;
      const CacheStats& b = reference.stats;
      const std::string where = "seed " + std::to_string(seed) +
                                ", config " + configs[i].name() +
                                " (reproduce with HETSCHED_FUZZ_SEED=" +
                                std::to_string(seed) + ")";
      ASSERT_EQ(multi[i].config, configs[i]) << where;
      EXPECT_EQ(a.accesses, b.accesses) << where;
      EXPECT_EQ(a.hits, b.hits) << where;
      EXPECT_EQ(a.misses, b.misses) << where;
      EXPECT_EQ(a.read_misses, b.read_misses) << where;
      EXPECT_EQ(a.write_misses, b.write_misses) << where;
      EXPECT_EQ(a.compulsory_misses, b.compulsory_misses) << where;
      EXPECT_EQ(a.evictions, b.evictions) << where;
      EXPECT_EQ(a.writebacks, b.writebacks) << where;
      EXPECT_EQ(a.writethroughs, b.writethroughs) << where;
      EXPECT_EQ(a.prefetch_fills, b.prefetch_fills) << where;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first divergence at " << where;
      }
    }
  }
}

// One scaled-down experiment shared by the schedule fuzz cases.
const Experiment& fuzz_experiment() {
  static const Experiment* experiment = [] {
    ExperimentOptions options = ExperimentOptions::quick();
    options.scenario.suite.variants_per_kernel = 1;
    options.scenario.arrivals.count = 200;
    options.scenario.seed = fuzz_base_seed();
    return new Experiment(options);
  }();
  return *experiment;
}

void check_busy_recount(const SystemRun& run, const ScheduleLog& log) {
  EXPECT_TRUE(log.well_formed()) << run.name;

  const std::size_t cores = run.result.per_core.size();
  const std::vector<Cycles> reconstructed = log.busy_cycles(cores);
  std::vector<Cycles> naive(cores, 0);
  for (const ScheduledSlice& slice : log.slices()) {
    ASSERT_LT(slice.core, cores) << run.name;
    ASSERT_LE(slice.start, slice.end) << run.name;
    naive[slice.core] += slice.end - slice.start;
  }
  ASSERT_EQ(reconstructed.size(), cores) << run.name;
  for (std::size_t core = 0; core < cores; ++core) {
    EXPECT_EQ(reconstructed[core], naive[core])
        << run.name << " core " << core;
    EXPECT_EQ(naive[core], run.result.per_core[core].busy_cycles)
        << run.name << " core " << core;
  }
}

TEST(FuzzSchedule, BusyCyclesMatchNaiveRecount) {
  const Experiment& experiment = fuzz_experiment();
  {
    ScheduleLog log;
    check_busy_recount(experiment.run("base", &log), log);
  }
  {
    ScheduleLog log;
    check_busy_recount(experiment.run("optimal", &log), log);
  }
  {
    ScheduleLog log;
    check_busy_recount(experiment.run("proposed", &log), log);
  }
}

// --- Dispatch-index differential ----------------------------------------
//
// The hierarchical dispatch index must be a pure speedup: for ANY
// machine size, policy and fault schedule, the indexed decision paths
// pick the same core as the reference linear scans on every single
// decision. Rather than comparing decisions one at a time, each random
// scenario runs twice — indexed and with set_naive_dispatch(true) — and
// the full outputs must agree byte for byte: one divergent pick anywhere
// would cascade into a different schedule, digest and result.

ScenarioOutcome run_outcome(const Scenario& scenario,
                            const ScenarioContext& context, bool naive) {
  ScenarioRun run(scenario, context);
  run.simulator().set_naive_dispatch(naive);
  run.start();
  run.advance_until(std::numeric_limits<SimTime>::max());
  SimulationResult result = run.finish();
  return ScenarioOutcome{std::move(result), std::move(run.stats()),
                         run.simulator().dispatch_telemetry(),
                         std::nullopt, std::nullopt};
}

std::string result_text(const SimulationResult& result) {
  std::ostringstream out;
  save_simulation_result(out, result);
  return out.str();
}

TEST(FuzzDispatch, IndexedSelectionMatchesNaiveScanBitForBit) {
  const std::uint64_t base = fuzz_base_seed();

  // One context (suite + trained predictor) serves every iteration: the
  // context depends on suite/predictor parameters only, never on the
  // machine shape, policy or fault plan being fuzzed.
  Scenario family;
  family.name = "fuzz-dispatch";
  family.system = Scenario::SystemKind::kScaledHeterogeneous;
  family.policy = "proposed";  // forces predictor training
  family.suite.kernel_scale = 0.25;
  family.suite.variants_per_kernel = 1;
  family.predictor_ensemble = 5;
  family.predictor_max_epochs = 120;
  family.seed = base;
  const ScenarioContext context(family);

  const std::vector<std::string> policies = {
      "base", "optimal", "energy-centric", "proposed", "realtime"};

  const int kIterations = 25;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = base + 1000 + iteration;
    Rng rng(seed);

    Scenario scenario = family;
    scenario.seed = seed;
    // Random machine: 4..256 cores of the scaled heterogeneous mix.
    scenario.cores = 4 + rng.below(253);
    scenario.policy = policies[rng.below(policies.size())];
    if (scenario.policy == "realtime") {
      scenario.discipline = QueueDiscipline::kEdf;
      RealtimeOptions rt;
      rt.slack_factor = 1.5 + rng.below(3) * 0.5;
      rt.priority_levels = 1 + static_cast<int>(rng.below(3));
      scenario.realtime = rt;
    }
    scenario.arrivals.count = 150 + rng.below(150);
    scenario.arrivals.mean_interarrival_cycles =
        20000.0 * 16.0 / static_cast<double>(scenario.cores);

    // Random fault schedule: every failure gets a recovery, so the
    // stream always drains; rates exercise the degraded-mode paths.
    const std::size_t failures = rng.below(4);
    for (std::size_t f = 0; f < failures; ++f) {
      const std::size_t core = rng.below(scenario.cores);
      const SimTime fail_at = 100'000 + rng.below(4'000'000);
      const SimTime recover_at = fail_at + 200'000 + rng.below(2'000'000);
      scenario.faults.core_events.push_back({fail_at, core, true});
      scenario.faults.core_events.push_back({recover_at, core, false});
    }
    if (failures > 0) {
      scenario.faults.seed = seed;
      scenario.faults.reconfig_failure_rate = rng.below(2) ? 0.05 : 0.0;
      scenario.faults.stuck_job_rate = rng.below(2) ? 0.05 : 0.0;
    }

    const std::string where =
        "seed " + std::to_string(seed) + ", " +
        std::to_string(scenario.cores) + " cores, policy " +
        scenario.policy + ", " + std::to_string(failures) +
        " fault pairs (reproduce with HETSCHED_FUZZ_SEED=" +
        std::to_string(base) + ")";

    const ScenarioOutcome indexed = run_outcome(scenario, context, false);
    const ScenarioOutcome naive = run_outcome(scenario, context, true);

    ASSERT_EQ(indexed.stream.digest(), naive.stream.digest()) << where;
    ASSERT_EQ(result_text(indexed.result), result_text(naive.result))
        << where;
    ASSERT_EQ(indexed.stream.slices(), naive.stream.slices()) << where;
    // Same decision count either way; only the scan mechanics differ.
    ASSERT_EQ(indexed.dispatch.decisions, naive.dispatch.decisions)
        << where;
  }
}

// --- DAG spec differential -----------------------------------------------

// Naive O(V*E) reference for DagSpec::validate: quadratic duplicate
// scan, per-edge range/self checks, and Bellman-style relaxation for
// cycle detection (a cycle exists iff edge relaxation still changes
// anything after V rounds).
bool naive_dag_valid(const std::vector<DagEdge>& edges,
                     std::size_t nodes) {
  for (const DagEdge& e : edges) {
    if (e.from >= nodes || e.to >= nodes || e.from == e.to) return false;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      if (edges[i].from == edges[j].from && edges[i].to == edges[j].to) {
        return false;
      }
    }
  }
  // Longest-path relaxation: acyclic graphs converge within `nodes`
  // rounds; one more productive round means a cycle.
  std::vector<std::uint64_t> dist(nodes, 0);
  for (std::size_t round = 0; round <= nodes; ++round) {
    bool changed = false;
    for (const DagEdge& e : edges) {
      if (dist[e.from] + 1 > dist[e.to]) {
        dist[e.to] = dist[e.from] + 1;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;
}

// Naive longest-path-to-sink ranks by relaxation over the reversed
// edges; requires a valid DAG.
std::vector<std::uint32_t> naive_dag_ranks(
    const std::vector<DagEdge>& edges, std::size_t nodes) {
  std::vector<std::uint32_t> rank(nodes, 0);
  for (std::size_t round = 0; round < nodes; ++round) {
    bool changed = false;
    for (const DagEdge& e : edges) {
      if (rank[e.to] + 1 > rank[e.from]) {
        rank[e.from] = rank[e.to] + 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return rank;
}

// Random graphs across three regimes — layered-acyclic, layered plus an
// injected back edge, and unconstrained (range/self/duplicate errors
// included) — must get the same accept/reject verdict from
// DagSpec::validate and the naive validator, and when accepted a
// DagArrivalSource must attach the naive ranks to the jobs it emits.
TEST(FuzzDag, ValidateAndRanksMatchNaiveReference) {
  const std::uint64_t base = fuzz_base_seed();
  const int kGraphs = 400;
  for (int graph = 0; graph < kGraphs; ++graph) {
    const std::uint64_t seed = base + 5000 + graph;
    Rng rng(seed);
    const std::size_t nodes = 2 + rng.below(40);
    const std::size_t layers = 2 + rng.below(5);
    std::vector<std::size_t> layer_of(nodes);
    for (std::size_t v = 0; v < nodes; ++v) layer_of[v] = rng.below(layers);

    DagSpec spec;
    const std::size_t attempts = rng.below(3 * nodes + 1);
    const std::uint64_t regime = rng.below(3);
    for (std::size_t k = 0; k < attempts; ++k) {
      DagEdge e;
      if (regime == 2) {
        // Unconstrained: occasionally out of range, self or duplicate.
        e.from = rng.below(nodes + 2);
        e.to = rng.below(nodes + 2);
      } else {
        // Layered: lower layer -> strictly higher layer, acyclic.
        e.from = rng.below(nodes);
        e.to = rng.below(nodes);
        if (layer_of[e.from] == layer_of[e.to]) continue;
        if (layer_of[e.from] > layer_of[e.to]) std::swap(e.from, e.to);
        bool duplicate = false;
        for (const DagEdge& seen : spec.edges) {
          duplicate |= seen.from == e.from && seen.to == e.to;
        }
        if (duplicate) continue;
      }
      spec.edges.push_back(e);
    }
    if (regime == 1 && !spec.edges.empty()) {
      // Close a random existing edge into a 2-cycle through a fresh
      // reverse edge (guaranteed invalid).
      const DagEdge& forward = spec.edges[rng.below(spec.edges.size())];
      spec.edges.push_back({forward.to, forward.from});
    }

    const std::string where =
        "seed " + std::to_string(seed) + ", " + std::to_string(nodes) +
        " nodes, " + std::to_string(spec.edges.size()) +
        " edges, regime " + std::to_string(regime) +
        " (reproduce with HETSCHED_FUZZ_SEED=" + std::to_string(base) +
        ")";
    const bool naive_ok = naive_dag_valid(spec.edges, nodes);
    const auto issue = spec.validate(nodes);
    ASSERT_EQ(!issue.has_value(), naive_ok)
        << where
        << (issue.has_value() ? "; validate said: " + issue->what
                              : "; validate accepted");
    if (naive_ok) {
      ArrivalOptions options;
      options.count = nodes;
      DagArrivalSource source(spec, {0}, options, seed, std::nullopt);
      ASSERT_EQ(emitted_ranks(source, nodes),
                naive_dag_ranks(spec.edges, nodes))
          << where;
    } else {
      ASSERT_LT(issue->edge_index, spec.edges.size()) << where;
    }
  }
}

// --- Seeded mutation fuzzing of the text parsers --------------------------
//
// Every format starts from its own writer's output. A mutation replaces
// one whitespace token with an edge value, or deletes, duplicates or
// truncates at one token; checksummed formats are re-signed so the
// parser body is reached. The contract: each case returns or throws
// std::runtime_error — never another exception, a crash or an abort.

// The case under test, printed when a contract check aborts the process.
char g_fuzz_case[512] = "";

extern "C" void print_fuzz_case(int) {
  std::fputs(g_fuzz_case, stderr);
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

const char* const kEdgeTokens[] = {
    "0",   "1",    "-1",   "4294967296", "9223372036854775807",
    "18446744073709551615", "18446744073709551616", "1000000000000",
    "nan", "inf",  "1e308", "x",          ""};

struct Mutation {
  std::string text;
  std::string what;
};

Mutation mutate(const std::string& text, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < text.size();) {
    std::size_t end = i;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(
                                    text[end]))) {
      ++end;
    }
    if (end > i) tokens.emplace_back(i, end);
    i = end + 1;
  }
  const auto [begin, end] = tokens[rng.below(tokens.size())];
  const std::string token = text.substr(begin, end - begin);
  const std::string head = text.substr(0, begin);
  const std::string tail = text.substr(end);
  const std::string where =
      "token '" + token + "' at byte " + std::to_string(begin);
  const std::size_t op = rng.below(std::size(kEdgeTokens) + 3);
  if (op < std::size(kEdgeTokens)) {
    return {head + kEdgeTokens[op] + tail,
            "replaced " + where + " with '" + kEdgeTokens[op] + "'"};
  }
  if (op == std::size(kEdgeTokens)) return {head + tail, "deleted " + where};
  if (op == std::size(kEdgeTokens) + 1) {
    return {head + token + ' ' + token + tail, "duplicated " + where};
  }
  return {head, "truncated at " + where};
}

// Runs `cases` mutations of `seed_text` through `parse`. A `signed_text`
// seed is mutated in its body and re-signed.
template <typename Parse>
void fuzz_format(const std::string& format, std::uint64_t salt,
                 const std::string& seed_text, bool signed_text, int cases,
                 Parse parse) {
  std::signal(SIGABRT, print_fuzz_case);
  const std::uint64_t base = fuzz_base_seed();
  std::string body = seed_text;
  if (signed_text) {
    std::istringstream in(seed_text);
    body = snapshot_text::read_checksummed(in, format);
  }
  Rng rng(base + salt);
  for (int i = 0; i < cases; ++i) {
    Mutation m = mutate(body, rng);
    if (signed_text) {
      std::ostringstream out;
      snapshot_text::write_with_checksum(out, m.text);
      m.text = out.str();
    }
    const std::string where = format + " case " + std::to_string(i) +
                              " (HETSCHED_FUZZ_SEED=" + std::to_string(base) +
                              "): " + m.what;
    std::snprintf(g_fuzz_case, sizeof g_fuzz_case, "fuzz case: %s\n",
                  where.c_str());
    try {
      parse(m.text);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << " threw " << e.what();
    }
  }
  std::signal(SIGABRT, SIG_DFL);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A smoke scenario, its context and the checkpoint settings of its
// mid-run checkpoint.
struct Smoke {
  Scenario scenario;
  ScenarioContext context;
  SimTime window_cycles = 0;
};

const std::vector<Smoke>& smokes() {
  static const std::vector<Smoke>* all = [] {
    auto* out = new std::vector<Smoke>;
    for (const auto& [name, window] :
         {std::pair<const char*, SimTime>{"streaming_smoke", 1'000'000},
          {"portfolio_smoke", 1'000'000},
          {"dag_smoke", 50'000}}) {
      std::istringstream in(read_file(std::string(HETSCHED_SOURCE_DIR) +
                                      "/examples/scenarios/" + name +
                                      ".scn"));
      Scenario scenario = Scenario::parse(in);
      out->push_back(Smoke{scenario, ScenarioContext(scenario), window});
    }
    return out;
  }();
  return *all;
}

CheckpointRunOptions checkpoint_options(const Smoke& smoke) {
  CheckpointRunOptions options;
  options.window_cycles = smoke.window_cycles;
  options.checkpoint_every = 1;
  return options;
}

TEST(FuzzParsers, ScenarioFilesAndFaultPlans) {
  std::uint64_t salt = 100;
  for (const Smoke& smoke : smokes()) {
    std::ostringstream text;
    smoke.scenario.save(text);
    fuzz_format(smoke.scenario.name + ".scn", ++salt, text.str(), false, 300,
                [](const std::string& mutated) {
                  std::istringstream in(mutated);
                  (void)Scenario::parse(in);
                });
  }
  const std::string plan =
      "seed 7\nfail 1 200000\nrecover 1 900000\nreconfig-failure-rate 0.25\n"
      "stuck-rate 0.125\ncounter-corruption-rate 0.5\ncounter-mode nan\n"
      "counter-noise 0.5\n";
  std::istringstream plan_in(plan);
  std::ostringstream plan_text;
  FaultPlan::parse(plan_in).save(plan_text);
  fuzz_format("fault plan", ++salt, plan_text.str(), false, 300,
              [](const std::string& mutated) {
                std::istringstream in(mutated);
                (void)FaultPlan::parse(in);
              });
}

TEST(FuzzParsers, CheckpointsResumeOneStrideOrThrow) {
  std::uint64_t salt = 200;
  for (const Smoke& smoke : smokes()) {
    CheckpointRunOptions options = checkpoint_options(smoke);
    std::vector<std::string> checkpoints;
    options.capture_checkpoints = &checkpoints;
    run_scenario_checkpointed(smoke.scenario, smoke.context, options);
    ASSERT_GE(checkpoints.size(), 2u) << smoke.scenario.name;
    fuzz_format(
        smoke.scenario.name + " checkpoint", ++salt,
        checkpoints[checkpoints.size() / 2], true, 300,
        [&smoke](const std::string& mutated) {
          CheckpointRunOptions resume = checkpoint_options(smoke);
          resume.resume_text = mutated;
          resume.halt_after_checkpoints = 1;
          std::vector<std::string> next;
          resume.capture_checkpoints = &next;
          run_scenario_checkpointed(smoke.scenario, smoke.context, resume);
        });
  }
}

TEST(FuzzParsers, SweepManifestsResumeOrThrow) {
  const Smoke& smoke = smokes().front();
  SweepGrid grid;
  grid.base = smoke.scenario;
  grid.base.arrivals.count = 60;
  grid.core_counts = {4, 6};
  grid.mean_gaps = {40000.0};
  grid.policies = {"optimal"};
  const ScenarioContext context(grid.context_scenario());
  SweepSupervisorOptions options;
  options.window_cycles = 1'000'000;
  const SupervisedSweepResult clean = run_sweep_supervised(
      grid, context, 1, ThreadPool::global(), options);
  ASSERT_EQ(clean.cells.size(), 2u);
  fuzz_format("sweep manifest", 300,
              serialize_sweep_manifest(grid, clean.cells), true, 300,
              [&](const std::string& mutated) {
                SweepSupervisorOptions resume = options;
                resume.resume_manifest_text = mutated;
                const SupervisedSweepResult result = run_sweep_supervised(
                    grid, context, 1, ThreadPool::global(), resume);
                (void)sweep_report(grid, context, result,
                                   options.window_cycles);
              });
}

TEST(FuzzParsers, PredictorSnapshotsProfileCachesAndBenchJson) {
  const Smoke& dag = smokes().back();
  const auto* predictor =
      dynamic_cast<const BestSizePredictor*>(dag.context.predictor());
  ASSERT_NE(predictor, nullptr);
  std::ostringstream snapshot;
  PredictorSnapshot::from(*predictor).save(snapshot);
  const auto load_snapshot = [](const std::string& mutated) {
    std::istringstream in(mutated);
    (void)PredictorSnapshot::load(in);
  };
  fuzz_format("predictor snapshot", 400, snapshot.str(), true, 300,
              load_snapshot);
  std::istringstream signed_snapshot(snapshot.str());
  fuzz_format("legacy predictor snapshot", 401,
              snapshot_text::read_checksummed(signed_snapshot, "snapshot"),
              false, 300, load_snapshot);

  const std::uint64_t key =
      suite_cache_key(dag.scenario.suite, dag.context.energy());
  std::ostringstream cache;
  save_suite_snapshot(cache, dag.context.suite(), key);
  fuzz_format("profile cache", 402, cache.str(), true, 300,
              [key](const std::string& mutated) {
                std::istringstream in(mutated);
                (void)load_suite_snapshot(in, key);
              });

  const std::string bench = read_file(std::string(HETSCHED_SOURCE_DIR) +
                                      "/bench/baselines/BENCH_scenario.json");
  fuzz_format("bench JSON", 403, bench, false, 300,
              [&bench](const std::string& mutated) {
                (void)bench_diff(bench, mutated, 2.5, nullptr);
              });
}

}  // namespace
}  // namespace hetsched
