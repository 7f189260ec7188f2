// Test helper: the arrival sequence a DagArrivalSource realizes, which
// the source itself does not keep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "scenario/dag_arrivals.hpp"

namespace hetsched {

// Forwards to a fresh DagArrivalSource and records what it emits, net of
// ungets. emission_order()[k] is the node of the k-th emitted arrival
// (== simulator job id k); realized() is the arrival sequence so far,
// suitable for batch replay through MulticoreSimulator::run: sorted by
// construction, cp_rank attached. Complete once the stream is drained.
class RecordingDagSource final : public ArrivalSource {
 public:
  explicit RecordingDagSource(DagArrivalSource& source) : source_(source) {}

  std::optional<JobArrival> next() override {
    std::optional<JobArrival> arrival = source_.next();
    if (arrival.has_value()) {
      order_.push_back(source_.live_node(order_.size()));
      realized_.push_back(*arrival);
    }
    return arrival;
  }
  bool lookahead_stale() const override { return source_.lookahead_stale(); }
  void unget(const JobArrival& arrival) override {
    source_.unget(arrival);
    order_.pop_back();
    realized_.pop_back();
  }

  const std::vector<std::size_t>& emission_order() const { return order_; }
  const std::vector<JobArrival>& realized() const { return realized_; }

 private:
  DagArrivalSource& source_;
  std::vector<std::size_t> order_;
  std::vector<JobArrival> realized_;
};

// The cp_rank `source` attaches to each of its `nodes` jobs, drained
// with every emitted job retiring at its release so every node comes
// out.
inline std::vector<std::uint32_t> emitted_ranks(DagArrivalSource& source,
                                                std::size_t nodes) {
  RecordingDagSource recording(source);
  std::vector<std::uint32_t> rank(nodes, 0);
  for (std::uint64_t job = 0; const auto arrival = recording.next(); ++job) {
    rank.at(recording.emission_order().back()) = arrival->cp_rank;
    ScheduledSlice retired;
    retired.job_id = job;
    retired.start = arrival->arrival;
    retired.end = arrival->arrival;
    source.on_slice(retired);
  }
  return rank;
}

}  // namespace hetsched
