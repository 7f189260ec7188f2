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
};

// The graph over only the jobs that edges touch, built in O(E log E)
// whatever the declared job count. Graph index v names the v-th
// smallest touched job id, so graph order is job-id order.
struct DagGraph {
  static constexpr std::size_t kUntouched = SIZE_MAX;

  // Checks `edges` over `node_count` jobs as DagSpec::validate
  // documents; the fields below are filled only when `issue` is empty.
  DagGraph(const std::vector<DagEdge>& edges, std::size_t node_count);

  // The graph index of job `node`, or kUntouched.
  std::size_t index(std::size_t node) const;

  std::optional<DagSpec::Issue> issue;
  std::vector<std::size_t> nodes;  // graph index -> job id
  // CSR successor lists, each in edge order: v's successors are
  // successors[begin[v] .. begin[v + 1]).
  std::vector<std::size_t> begin;
  std::vector<std::size_t> successors;
  std::vector<std::uint32_t> indegree;
  // Unit-weight longest path to a sink (0 for sinks, as for every
  // untouched job); the critical path length is the maximum.
  std::vector<std::uint32_t> rank;
  std::vector<std::size_t> order;  // a topological order
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

// Release-on-completion arrival source: draws the generated arrival
// stream (bit-identical to GeneratedArrivalStream for the same
// options/seed/realtime setup) and feeds the simulator only the
// eligible frontier. Implements ScheduleObserver so completion slices
// from the very simulator it feeds release successors; the simulator's
// lookahead re-polls via the lookahead_stale()/unget() protocol.
// It holds the edge graph, the dependents' nominal arrivals and the
// jobs in flight, never anything per declared job: roots are drawn from
// the stream as the run reaches them.
class DagArrivalSource final : public ArrivalSource,
                               public ScheduleObserver {
 public:
  // Mirrors GeneratedArrivalStream::set_realtime, taken up front because
  // the constructor draws the dependents' arrivals.
  struct RealtimeSetup {
    std::vector<Cycles> reference_cycles_by_benchmark;
    RealtimeOptions options;
    std::uint64_t seed = 0;
  };

  // Throws std::invalid_argument naming the first offending edge when
  // `spec` is not a DAG over options.count jobs (DagSpec::validate).
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
  // order. Admission order therefore equals emission order: the k-th
  // emitted arrival becomes simulator job id k.
  std::optional<JobArrival> next() override;
  bool lookahead_stale() const override { return stale_; }
  void unget(const JobArrival& arrival) override;

  // ScheduleObserver: completed slices retire nodes and release
  // successors. Preempted fragments and watchdog expiries release
  // nothing — only a real retirement satisfies a dependency.
  void on_slice(const ScheduledSlice& slice) override;

  const DagStats& stats() const { return stats_; }

  // The node of job `job_id` while it is live (emitted, not retired).
  std::size_t live_node(std::uint64_t job_id) const;

  // Checkpoint support: the live state only — root cursor, emitted
  // count, emitted-but-unretired jobs, partly satisfied nodes, the
  // completion-released heap in canonical sorted order, the stale flag
  // and cumulative stats. The graph and the dependents' arrivals are
  // rebuilt by the constructor from the scenario, and restore re-draws
  // the roots up to the cursor, so the block's size is bounded by the
  // jobs in flight, not by node count or progress. Same contract as
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
  using HeapEntry = std::pair<SimTime, std::size_t>;  // (release, graph)

  // A job the source emits: its node, graph index (kUntouched for an
  // independent job) and arrival.
  struct Emission {
    JobArrival arrival;
    std::size_t node = 0;
    std::size_t graph = DagGraph::kUntouched;
  };
  // An emitted job that has not retired.
  struct LiveJob {
    std::size_t node = 0;
    std::size_t graph = DagGraph::kUntouched;
    SimTime release = 0;
  };

  bool is_root(std::size_t graph) const {
    return graph == DagGraph::kUntouched || graph_.indegree[graph] == 0;
  }
  // The next root `stream` yields, skipping the dependents' draws;
  // `touched` is the graph index of the next touched job it reaches.
  std::optional<Emission> draw_root(GeneratedArrivalStream& stream,
                                std::size_t& touched) const;
  void release(std::size_t graph, SimTime completion_time);
  // Unemitted roots plus completion-released nodes not yet emitted.
  std::uint64_t ready_depth() const {
    return root_count_ - root_cursor_ + eligible_.size();
  }

  // Rebuilt from the scenario: the graph, the dependents' nominal
  // arrivals (by graph index, cp_rank filled in) and the root count.
  DagGraph graph_;
  std::vector<JobArrival> nominal_;
  std::uint64_t root_count_ = 0;

  // Run state. Roots come from `root_stream_` in index (== arrival)
  // order: `root_` is the last one drawn, not yet emitted while
  // `root_waiting_`, and `root_cursor_` counts the emitted ones. The
  // heap holds only nodes that completions released. `remaining_`
  // counts unretired predecessors per graph node; `partial_` is the set
  // of unreleased ones with some but not all of them retired.
  GeneratedArrivalStream root_stream_;
  std::size_t root_touched_ = 0;
  std::optional<Emission> root_;
  bool root_waiting_ = false;
  std::uint64_t root_cursor_ = 0;
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
  ScheduleObserver* release_observer_ = nullptr;
};

}  // namespace hetsched
