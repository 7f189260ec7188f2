// DAG workloads: precedence-constrained job graphs over a generated
// arrival stream (ROADMAP item 4; cf. Mack et al., arXiv 2112.08980).
// Jobs are the arrival-stream indices 0..count-1; a `dep A B` edge means
// job A must retire before job B becomes eligible. Roots keep their
// generated arrival time; a successor is released at
//   max(generated arrival, last predecessor's retirement cycle)
// so the frontier advances the cycle the final dependency completes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule_log.hpp"
#include "workload/arrivals.hpp"

namespace hetsched {

// One precedence edge: `from` must complete before `to` may start.
struct DagEdge {
  std::size_t from = 0;
  std::size_t to = 0;
};

// The dependency structure of a scenario's job graph. Jobs without
// edges are independent; an empty spec reproduces the plain streaming
// workload exactly.
struct DagSpec {
  std::vector<DagEdge> edges;

  bool empty() const { return edges.empty(); }

  // First structural problem with the edge set over `node_count` jobs,
  // or nullopt if the graph is a well-formed DAG. `edge_index` names the
  // offending edge (for cycles: some edge on a cycle) so callers can
  // attribute the error to a source line. Rejects out-of-range
  // endpoints, self edges (a duplicated job id within one edge),
  // duplicate edges and cycles.
  struct Issue {
    std::size_t edge_index = 0;
    std::string what;
  };
  std::optional<Issue> validate(std::size_t node_count) const;

  // Unit-weight longest-path-to-sink rank per node: 0 for sinks and
  // independent jobs, 1 + max over successors otherwise. The critical
  // path length (in edges) is the maximum entry. Requires validate() to
  // have passed.
  std::vector<std::uint32_t> ranks(std::size_t node_count) const;
};

// Cumulative DAG release accounting, surfaced in RunReport's "dag"
// section. `releases` counts dependent (non-root) releases only; roots
// are ordinary generated arrivals.
struct DagStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t releases = 0;
  std::uint64_t ready_peak = 0;      // eligible-set high-water mark
  std::uint32_t max_rank = 0;        // critical path length in edges
  Cycles release_latency_total = 0;  // sum of release - nominal arrival
  std::uint64_t cp_slack_total = 0;  // sum of max_rank - rank at release
};

// Release-on-completion arrival source: materialises the generated
// arrival stream (bit-identical draws to GeneratedArrivalStream for the
// same options/seed/realtime setup), then feeds the simulator only the
// eligible frontier. Implements ScheduleObserver so completion slices
// from the very simulator it feeds release successors; the simulator's
// lookahead re-polls via the lookahead_stale()/unget() protocol.
// The graph (nominal arrivals, ranks, successors, in-degrees) is
// O(nodes) memory rebuilt from the scenario at construction; the state
// a run mutates — and a checkpoint carries — is bounded by live jobs.
class DagArrivalSource final : public ArrivalSource,
                               public ScheduleObserver {
 public:
  // Mirrors GeneratedArrivalStream::set_realtime, taken up front because
  // the constructor performs every arrival draw.
  struct RealtimeSetup {
    std::vector<Cycles> reference_cycles_by_benchmark;
    RealtimeOptions options;
    std::uint64_t seed = 0;
  };

  // `spec` must validate against options.count nodes (checked).
  DagArrivalSource(const DagSpec& spec,
                   std::vector<std::size_t> benchmark_ids,
                   const ArrivalOptions& options, std::uint64_t seed,
                   const std::optional<RealtimeSetup>& realtime);

  // Release events (ready depth, latency, slack) are reported here;
  // null disables reporting. Not part of the arrival stream itself.
  void set_release_observer(ScheduleObserver* observer) {
    release_observer_ = observer;
  }

  // ArrivalSource: emits eligible nodes in (release time, node index)
  // order. Admission order therefore equals emission order, which is how
  // simulator job ids map back to node indices.
  std::optional<JobArrival> next() override;
  bool lookahead_stale() const override { return stale_; }
  void unget(const JobArrival& arrival) override;

  // ScheduleObserver: completed slices retire nodes and release
  // successors. Preempted fragments and watchdog expiries release
  // nothing — only a real retirement satisfies a dependency.
  void on_slice(const ScheduledSlice& slice) override;

  const DagStats& stats() const { return stats_; }

  // Test helpers for uninterrupted runs: a restored source has no
  // history before its checkpoint, so both fail a precondition there.
  // emission_order()[k] is the node of the k-th emitted arrival (==
  // simulator job id k); realized() is the arrival sequence so far,
  // suitable for batch replay through MulticoreSimulator::run: sorted by
  // construction, cp_rank attached. Complete once the stream is drained.
  std::vector<std::size_t> emission_order() const;
  std::vector<JobArrival> realized() const;

  // Checkpoint support: the live state only — root cursor, emitted
  // count, emitted-but-unretired jobs, partly satisfied nodes, the
  // completion-released heap in canonical sorted order, the stale flag
  // and cumulative stats. Everything else is rebuilt by the constructor
  // from the scenario, so the block's size is bounded by the jobs in
  // flight, not by node count or progress. Same contract as
  // GeneratedArrivalStream: construct identically, then restore before
  // the next next().
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);
  // A restored source against the simulator it feeds, paused at
  // `paused_at`: the live jobs are the simulator's `held` jobs plus its
  // `lookahead` (the last emitted job, same release), admission ids
  // continue at `next_job_id`, and nothing left to emit is due before
  // the lookahead (or the pause). Throws std::runtime_error otherwise.
  void check_resumed(const std::vector<HeldJob>& held,
                     std::uint64_t next_job_id,
                     const std::optional<JobArrival>& lookahead,
                     SimTime paused_at, const std::string& context) const;

 private:
  using HeapEntry = std::pair<SimTime, std::size_t>;  // (release, node)

  // An emitted job that has not retired: its node and release time.
  struct LiveJob {
    std::size_t node = 0;
    SimTime release = 0;
  };

  void release_node(std::size_t node, SimTime completion_time);
  // Unemitted roots plus completion-released nodes not yet emitted.
  std::size_t ready_depth() const {
    return roots_.size() - root_cursor_ + eligible_.size();
  }

  // Graph, rebuilt from the scenario: nominal arrivals (cp_rank filled
  // in), successors in CSR form, in-degrees and the roots in index (==
  // arrival) order.
  std::vector<JobArrival> base_;
  std::vector<std::size_t> successor_begin_;
  std::vector<std::size_t> successors_;
  std::vector<std::uint32_t> indegree_;
  std::vector<std::size_t> roots_;

  // Run state. Roots are served from a cursor; the heap holds only
  // nodes that completions released. `remaining_` counts unretired
  // predecessors per node; `partial_` is the set of unreleased nodes
  // with some but not all of them retired.
  std::size_t root_cursor_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      eligible_;
  std::vector<std::uint32_t> remaining_;
  std::set<std::size_t> partial_;
  // Emitted jobs not yet retired, keyed by job id (== emission index).
  std::map<std::uint64_t, LiveJob> live_;
  std::uint64_t emitted_ = 0;
  bool stale_ = false;
  DagStats stats_;

  // (release, node) per emitted job, for emission_order()/realized();
  // not checkpointed, so a restored source stops keeping it.
  std::vector<HeapEntry> emission_log_;
  bool restored_ = false;
  ScheduleObserver* release_observer_ = nullptr;
};

}  // namespace hetsched
