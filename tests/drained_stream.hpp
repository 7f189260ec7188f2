// Test helper: a generated arrival stream as a vector, for tests that run
// MulticoreSimulator::run(vector) or inspect a whole stream at once.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "workload/arrivals.hpp"

namespace hetsched {

// Every arrival `source` has left, in order.
inline std::vector<JobArrival> drain(ArrivalSource& source) {
  std::vector<JobArrival> arrivals;
  while (const std::optional<JobArrival> arrival = source.next()) {
    arrivals.push_back(*arrival);
  }
  return arrivals;
}

// The jobs GeneratedArrivalStream(benchmark_ids, options, seed) yields.
inline std::vector<JobArrival> generated_arrivals(
    std::vector<std::size_t> benchmark_ids, const ArrivalOptions& options,
    std::uint64_t seed) {
  GeneratedArrivalStream stream(std::move(benchmark_ids), options, seed);
  return drain(stream);
}

}  // namespace hetsched
