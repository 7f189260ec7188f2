// Micro-benchmarks (google-benchmark): throughput/latency of the
// simulator's hot components — cache access simulation, Figure-4 energy
// evaluation, ANN inference, heuristic stepping, and the end-to-end
// event-driven scheduling loop.
#include <benchmark/benchmark.h>

#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"

namespace {

using namespace hetsched;

const Experiment& shared_experiment() {
  static const Experiment experiment{[] {
    ExperimentOptions options = ExperimentOptions::quick();
    options.scenario.arrivals.count = 1000;
    return options;
  }()};
  return experiment;
}

void BM_CacheAccess(benchmark::State& state) {
  const CacheConfig config =
      DesignSpace::all()[static_cast<std::size_t>(state.range(0))];
  Rng rng(1);
  MemTrace trace;
  trace.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    trace.push_back(MemRef{
        static_cast<std::uint32_t>(rng.below(16384)), 4,
        rng.bernoulli(0.3)});
  }
  Cache cache(config);
  for (auto _ : state) {
    for (const MemRef& ref : trace) {
      benchmark::DoNotOptimize(cache.access(ref));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.SetLabel(config.name());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(8)->Arg(17);

void BM_EnergyModelEvaluate(benchmark::State& state) {
  const EnergyModel model{CactiModel{}};
  RawCounters counters;
  counters.loads = 50000;
  counters.stores = 20000;
  counters.int_ops = 100000;
  CacheSimResult sim;
  sim.config = DesignSpace::base_config();
  sim.stats.accesses = 70000;
  sim.stats.hits = 69000;
  sim.stats.misses = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(counters, sim));
  }
}
BENCHMARK(BM_EnergyModelEvaluate);

void BM_AnnInference(benchmark::State& state) {
  const Experiment& experiment = shared_experiment();
  const BenchmarkProfile& b =
      experiment.suite().benchmark(experiment.scheduling_ids().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        experiment.predictor().predict_size_bytes(b.base_statistics));
  }
}
BENCHMARK(BM_AnnInference);

void BM_TuningHeuristicStep(benchmark::State& state) {
  ProfilingTable table(1);
  ProfilingTable::Entry& entry = table.entry(0);
  // Partially explored 8KB walk: next_config must reconstruct the path.
  table.record(0, CacheConfig{8192, 1, 16}, Observation{NanoJoules(100), NanoJoules(60), 1000});
  table.record(0, CacheConfig{8192, 2, 16}, Observation{NanoJoules(90), NanoJoules(55), 950});
  for (auto _ : state) {
    benchmark::DoNotOptimize(TuningHeuristic::next_config(entry, 8192));
  }
}
BENCHMARK(BM_TuningHeuristicStep);

void BM_KernelExecution(benchmark::State& state) {
  const auto kernels = make_standard_kernels(0.25);
  const Kernel& kernel = *kernels[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(execute(kernel, 99));
  }
  state.SetLabel(kernel.name());
}
BENCHMARK(BM_KernelExecution)->Arg(0)->Arg(3)->Arg(12);

void BM_FullSchedulingRun(benchmark::State& state) {
  const Experiment& experiment = shared_experiment();
  for (auto _ : state) {
    SystemRun run = experiment.run("proposed");
    benchmark::DoNotOptimize(run.result.total_energy());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(
          experiment.options().scenario.arrivals.count));
}
BENCHMARK(BM_FullSchedulingRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
