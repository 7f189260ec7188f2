#include "scenario/dag_arrivals.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

namespace {

namespace st = snapshot_text;

// Kahn's algorithm over the edge list; returns the pop order (empty
// slots absent — size < node_count exactly when the graph has a cycle).
std::vector<std::size_t> topological_order(const std::vector<DagEdge>& edges,
                                           std::size_t node_count) {
  std::vector<std::size_t> indegree(node_count, 0);
  std::vector<std::vector<std::size_t>> successors(node_count);
  for (const DagEdge& e : edges) {
    ++indegree[e.to];
    successors[e.from].push_back(e.to);
  }
  std::vector<std::size_t> order;
  order.reserve(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t s : successors[order[head]]) {
      if (--indegree[s] == 0) order.push_back(s);
    }
  }
  return order;
}

}  // namespace

std::optional<DagSpec::Issue> DagSpec::validate(
    std::size_t node_count) const {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const DagEdge& e = edges[i];
    if (e.from >= node_count || e.to >= node_count) {
      return Issue{i, "dep job id out of range (jobs 0.." +
                          std::to_string(node_count == 0 ? 0
                                                         : node_count - 1) +
                          ")"};
    }
    if (e.from == e.to) {
      return Issue{i, "dep repeats job " + std::to_string(e.from) +
                          " (self dependency)"};
    }
  }
  // Duplicate edges: sort (from, to, first index) and compare adjacent.
  std::vector<std::size_t> by_pair(edges.size());
  for (std::size_t i = 0; i < by_pair.size(); ++i) by_pair[i] = i;
  std::sort(by_pair.begin(), by_pair.end(),
            [this](std::size_t a, std::size_t b) {
              const DagEdge& ea = edges[a];
              const DagEdge& eb = edges[b];
              if (ea.from != eb.from) return ea.from < eb.from;
              if (ea.to != eb.to) return ea.to < eb.to;
              return a < b;
            });
  for (std::size_t k = 1; k < by_pair.size(); ++k) {
    const DagEdge& a = edges[by_pair[k - 1]];
    const DagEdge& b = edges[by_pair[k]];
    if (a.from == b.from && a.to == b.to) {
      return Issue{std::max(by_pair[k - 1], by_pair[k]),
                   "duplicate dep " + std::to_string(a.from) + " -> " +
                       std::to_string(a.to)};
    }
  }
  const std::vector<std::size_t> order =
      topological_order(edges, node_count);
  if (order.size() < node_count) {
    std::vector<char> popped(node_count, 0);
    for (const std::size_t v : order) popped[v] = 1;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!popped[edges[i].from] && !popped[edges[i].to]) {
        return Issue{i, "dep edges form a cycle through job " +
                            std::to_string(edges[i].from)};
      }
    }
    HETSCHED_ASSERT(false && "cyclic graph without a residual edge");
  }
  return std::nullopt;
}

std::vector<std::uint32_t> DagSpec::ranks(std::size_t node_count) const {
  std::vector<std::vector<std::size_t>> successors(node_count);
  for (const DagEdge& e : edges) successors[e.from].push_back(e.to);
  const std::vector<std::size_t> order =
      topological_order(edges, node_count);
  HETSCHED_REQUIRE(order.size() == node_count && "ranks on a cyclic graph");
  std::vector<std::uint32_t> rank(node_count, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = *it;
    for (const std::size_t s : successors[v]) {
      rank[v] = std::max(rank[v], rank[s] + 1);
    }
  }
  return rank;
}

DagArrivalSource::DagArrivalSource(
    const DagSpec& spec, std::vector<std::size_t> benchmark_ids,
    const ArrivalOptions& options, std::uint64_t seed,
    const std::optional<RealtimeSetup>& realtime) {
  const auto issue = spec.validate(options.count);
  HETSCHED_REQUIRE(!issue.has_value() && "DagSpec must validate");

  // Same draws as the plain streaming source: a DAG scenario's nominal
  // arrivals are bit-identical to the independent-job scenario's.
  GeneratedArrivalStream generator(std::move(benchmark_ids), options, seed);
  if (realtime.has_value()) {
    generator.set_realtime(realtime->reference_cycles_by_benchmark,
                           realtime->options, realtime->seed);
  }
  const std::size_t count = options.count;
  base_.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    const std::optional<JobArrival> arrival = generator.next();
    HETSCHED_ASSERT(arrival.has_value());
    // The root cursor serves roots in index order, which is (release,
    // node) order only because generated arrivals never decrease.
    HETSCHED_ASSERT(v == 0 || arrival->arrival >= base_.back().arrival);
    base_.push_back(*arrival);
  }

  const std::vector<std::uint32_t> rank = spec.ranks(count);
  stats_.nodes = count;
  stats_.edges = spec.edges.size();
  for (std::size_t v = 0; v < count; ++v) {
    base_[v].cp_rank = rank[v];
    stats_.max_rank = std::max(stats_.max_rank, rank[v]);
  }
  // Successor lists in CSR form, each in edge order.
  indegree_.assign(count, 0);
  successor_begin_.assign(count + 1, 0);
  for (const DagEdge& e : spec.edges) {
    ++indegree_[e.to];
    ++successor_begin_[e.from + 1];
  }
  for (std::size_t v = 0; v < count; ++v) {
    successor_begin_[v + 1] += successor_begin_[v];
  }
  successors_.resize(spec.edges.size());
  std::vector<std::size_t> fill(successor_begin_.begin(),
                                successor_begin_.end() - 1);
  for (const DagEdge& e : spec.edges) successors_[fill[e.from]++] = e.to;
  remaining_ = indegree_;
  // Roots are released at their generated arrival time, up front.
  for (std::size_t v = 0; v < count; ++v) {
    if (indegree_[v] == 0) roots_.push_back(v);
  }
  stats_.ready_peak = roots_.size();
}

std::optional<JobArrival> DagArrivalSource::next() {
  stale_ = false;
  // Merge the root cursor with the released heap on (release, node).
  HeapEntry entry{};
  if (root_cursor_ < roots_.size()) {
    const std::size_t root = roots_[root_cursor_];
    entry = {base_[root].arrival, root};
  }
  if (!eligible_.empty() &&
      (root_cursor_ == roots_.size() || eligible_.top() < entry)) {
    entry = eligible_.top();
    eligible_.pop();
  } else if (root_cursor_ < roots_.size()) {
    ++root_cursor_;
  } else {
    return std::nullopt;
  }
  const auto [release, node] = entry;
  live_.emplace_hint(live_.end(), emitted_++, LiveJob{node, release});
  if (!restored_) emission_log_.push_back(entry);
  JobArrival arrival = base_[node];
  arrival.arrival = release;
  return arrival;
}

void DagArrivalSource::unget(const JobArrival& arrival) {
  // The lookahead is the last emitted job; it was never admitted, so it
  // cannot have retired.
  HETSCHED_REQUIRE(!live_.empty() && live_.rbegin()->first + 1 == emitted_ &&
                   "unget without an emission");
  const LiveJob job = live_.rbegin()->second;
  live_.erase(std::prev(live_.end()));
  --emitted_;
  if (!restored_) emission_log_.pop_back();
  HETSCHED_ASSERT(job.release == arrival.arrival);
  if (indegree_[job.node] == 0) {
    HETSCHED_ASSERT(root_cursor_ > 0 &&
                    roots_[root_cursor_ - 1] == job.node);
    --root_cursor_;
  } else {
    eligible_.push({job.release, job.node});
  }
}

void DagArrivalSource::on_slice(const ScheduledSlice& slice) {
  // Preempted fragments don't retire the job; only completion counts.
  if (!slice.completed) return;
  // Job ids are assigned at admission in emission order, so the live
  // map takes them straight back to node indices. An unget'd lookahead
  // was never admitted, so every admitted id was emitted.
  HETSCHED_REQUIRE(slice.job_id < emitted_ &&
                   "completion for a job this source never emitted");
  const auto job = live_.find(slice.job_id);
  HETSCHED_REQUIRE(job != live_.end() && "job completed twice");
  const std::size_t node = job->second.node;
  live_.erase(job);
  for (std::size_t k = successor_begin_[node]; k < successor_begin_[node + 1];
       ++k) {
    const std::size_t successor = successors_[k];
    std::uint32_t& left = remaining_[successor];
    HETSCHED_ASSERT(left > 0);
    --left;
    if (left == 0) {
      partial_.erase(successor);
      release_node(successor, slice.end);
    } else if (left + 1 == indegree_[successor]) {
      partial_.insert(successor);
    }
  }
}

void DagArrivalSource::release_node(std::size_t node,
                                    SimTime completion_time) {
  const JobArrival& base = base_[node];
  const SimTime release = std::max(base.arrival, completion_time);
  eligible_.push({release, node});
  stale_ = true;

  const Cycles latency = static_cast<Cycles>(release - base.arrival);
  const std::uint32_t slack = stats_.max_rank - base.cp_rank;
  ++stats_.releases;
  stats_.release_latency_total += latency;
  stats_.cp_slack_total += slack;
  stats_.ready_peak =
      std::max<std::uint64_t>(stats_.ready_peak, ready_depth());

  if (release_observer_ != nullptr) {
    DagReleaseEvent event;
    event.time = completion_time;
    event.node = node;
    event.ready_depth = ready_depth();
    event.latency = latency;
    event.slack = slack;
    release_observer_->on_dag_release(event);
  }
}

std::vector<std::size_t> DagArrivalSource::emission_order() const {
  HETSCHED_REQUIRE(!restored_ && "emission order of a restored DAG source");
  std::vector<std::size_t> order;
  order.reserve(emission_log_.size());
  for (const HeapEntry& entry : emission_log_) order.push_back(entry.second);
  return order;
}

std::vector<JobArrival> DagArrivalSource::realized() const {
  HETSCHED_REQUIRE(!restored_ && "realized arrivals of a restored DAG source");
  std::vector<JobArrival> arrivals;
  arrivals.reserve(emission_log_.size());
  for (const auto& [release, node] : emission_log_) {
    JobArrival arrival = base_[node];
    arrival.arrival = release;
    arrivals.push_back(arrival);
  }
  return arrivals;
}

void DagArrivalSource::save_state(std::ostream& out) const {
  out << "dag-arrivals " << base_.size() << ' ' << stats_.edges << "\n";
  out << "stale " << (stale_ ? 1 : 0) << "\n";
  out << "roots " << root_cursor_ << ' ' << emitted_ << "\n";
  out << "live " << live_.size() << "\n";
  for (const auto& [job_id, job] : live_) {
    out << job_id << ' ' << job.node << ' ' << job.release << "\n";
  }
  out << "partial " << partial_.size() << "\n";
  for (const std::size_t node : partial_) {
    out << node << ' ' << remaining_[node] << "\n";
  }
  // Drain a copy of the heap: entries come out sorted by (time, node), a
  // canonical order independent of heap layout.
  auto heap = eligible_;
  out << "eligible " << heap.size() << "\n";
  while (!heap.empty()) {
    const auto [release, node] = heap.top();
    heap.pop();
    out << release << ' ' << node << "\n";
  }
  out << "dag-stats " << stats_.releases << ' ' << stats_.ready_peak << ' '
      << stats_.release_latency_total << ' ' << stats_.cp_slack_total
      << "\n";
}

void DagArrivalSource::restore_state(std::istream& in,
                                     const std::string& context) {
  HETSCHED_REQUIRE(emitted_ == 0 && "restore into a fresh DAG source");
  auto expect = [&](const char* word) {
    std::string token;
    if (!(in >> token) || token != word) {
      st::fail(context, std::string("expected '") + word + "'");
    }
  };
  const std::size_t count = base_.size();
  // Each node may appear once across the live, partial and heap lists.
  std::vector<char> listed(count, 0);
  auto read_node = [&](const char* what) {
    const auto node = st::read_value<std::size_t>(in, what, context);
    if (node >= count) st::fail(context, std::string(what) + " out of range");
    if (listed[node] != 0) {
      st::fail(context, std::string(what) + " listed twice");
    }
    listed[node] = 1;
    return node;
  };

  expect("dag-arrivals");
  if (st::read_value<std::size_t>(in, "dag node count", context) != count) {
    st::fail(context, "dag node count does not match the scenario");
  }
  if (st::read_value<std::uint64_t>(in, "dag edge count", context) !=
      stats_.edges) {
    st::fail(context, "dag edge count does not match the scenario");
  }
  expect("stale");
  stale_ = st::read_value<int>(in, "dag stale flag", context) != 0;

  expect("roots");
  const auto cursor =
      st::read_value<std::size_t>(in, "dag root cursor", context);
  const auto emitted_count =
      st::read_value<std::uint64_t>(in, "dag emitted count", context);
  if (cursor > roots_.size()) {
    st::fail(context, "dag root cursor beyond the root count");
  }
  if (emitted_count > count || emitted_count < cursor) {
    st::fail(context, "dag emitted count inconsistent with the graph");
  }
  root_cursor_ = cursor;
  emitted_ = emitted_count;

  expect("live");
  const auto live =
      st::read_value<std::size_t>(in, "dag live count", context);
  for (std::size_t k = 0; k < live; ++k) {
    const auto job_id =
        st::read_value<std::uint64_t>(in, "dag live job id", context);
    if (job_id >= emitted_count) {
      st::fail(context, "dag live job id not below the emitted count");
    }
    const std::size_t node = read_node("dag live node");
    const auto release =
        st::read_value<SimTime>(in, "dag live release", context);
    if (!live_.emplace(job_id, LiveJob{node, release}).second) {
      st::fail(context, "dag live job id listed twice");
    }
    remaining_[node] = 0;
  }

  expect("partial");
  const auto partial =
      st::read_value<std::size_t>(in, "dag partial count", context);
  for (std::size_t k = 0; k < partial; ++k) {
    const std::size_t node = read_node("dag partial node");
    const auto left =
        st::read_value<std::uint32_t>(in, "dag predecessors left", context);
    if (left == 0 || left >= indegree_[node]) {
      st::fail(context,
               "dag partial node must have some but not all predecessors "
               "retired");
    }
    remaining_[node] = left;
    partial_.insert(node);
  }

  expect("eligible");
  const auto eligible =
      st::read_value<std::size_t>(in, "dag eligible count", context);
  for (std::size_t k = 0; k < eligible; ++k) {
    const auto release = st::read_value<SimTime>(in, "dag release", context);
    const std::size_t node = read_node("dag eligible node");
    if (indegree_[node] == 0) {
      st::fail(context, "dag root in the completion-released heap");
    }
    remaining_[node] = 0;
    eligible_.push({release, node});
  }

  expect("dag-stats");
  stats_.releases = st::read_value<std::uint64_t>(in, "dag releases", context);
  stats_.ready_peak =
      st::read_value<std::uint64_t>(in, "dag ready peak", context);
  stats_.release_latency_total =
      st::read_value<Cycles>(in, "dag release latency", context);
  stats_.cp_slack_total =
      st::read_value<std::uint64_t>(in, "dag cp slack", context);
  restored_ = true;
}

}  // namespace hetsched
