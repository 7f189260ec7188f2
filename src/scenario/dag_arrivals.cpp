#include "scenario/dag_arrivals.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

namespace st = snapshot_text;

std::optional<DagSpec::Issue> DagSpec::validate(
    std::size_t node_count) const {
  return DagGraph(edges, node_count).issue;
}

DagGraph::DagGraph(const std::vector<DagEdge>& edges,
                   std::size_t node_count) {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const DagEdge& e = edges[i];
    if (e.from >= node_count || e.to >= node_count) {
      issue = DagSpec::Issue{
          i, "dep job id out of range (jobs 0.." +
                 std::to_string(node_count == 0 ? 0 : node_count - 1) + ")"};
      return;
    }
    if (e.from == e.to) {
      issue = DagSpec::Issue{i, "dep repeats job " + std::to_string(e.from) +
                                    " (self dependency)"};
      return;
    }
  }
  {
    // Duplicate edges: sort (from, to, first index) and compare adjacent.
    std::vector<std::size_t> by_pair(edges.size());
    for (std::size_t i = 0; i < by_pair.size(); ++i) by_pair[i] = i;
    std::sort(by_pair.begin(), by_pair.end(),
              [&edges](std::size_t a, std::size_t b) {
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
        issue = DagSpec::Issue{std::max(by_pair[k - 1], by_pair[k]),
                               "duplicate dep " + std::to_string(a.from) +
                                   " -> " + std::to_string(a.to)};
        return;
      }
    }
  }

  std::vector<std::size_t> ends(2 * edges.size());
  {
    // (node, endpoint slot) sorted by node: one pass names the distinct
    // nodes and renumbers every endpoint (edge i: ends[2i] -> ends[2i+1]).
    std::vector<std::pair<std::size_t, std::size_t>> by_node;
    by_node.reserve(2 * edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      by_node.emplace_back(edges[i].from, 2 * i);
      by_node.emplace_back(edges[i].to, 2 * i + 1);
    }
    std::sort(by_node.begin(), by_node.end());
    for (const auto& [node, slot] : by_node) {
      if (nodes.empty() || nodes.back() != node) nodes.push_back(node);
      ends[slot] = nodes.size() - 1;
    }
  }
  begin.assign(nodes.size() + 1, 0);
  indegree.assign(nodes.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ++begin[ends[2 * i] + 1];
    ++indegree[ends[2 * i + 1]];
  }
  for (std::size_t v = 0; v < nodes.size(); ++v) begin[v + 1] += begin[v];
  successors.resize(edges.size());
  std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    successors[fill[ends[2 * i]]++] = ends[2 * i + 1];
  }

  // Kahn's algorithm: the order falls short of the node count exactly
  // when the graph has a cycle.
  std::vector<std::uint32_t> unvisited = indegree;
  order.reserve(nodes.size());
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    if (unvisited[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::size_t v = order[head];
    for (std::size_t k = begin[v]; k < begin[v + 1]; ++k) {
      if (--unvisited[successors[k]] == 0) order.push_back(successors[k]);
    }
  }
  if (order.size() < nodes.size()) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (unvisited[ends[2 * i]] != 0 && unvisited[ends[2 * i + 1]] != 0) {
        issue = DagSpec::Issue{i, "dep edges form a cycle through job " +
                                      std::to_string(edges[i].from)};
        return;
      }
    }
    HETSCHED_ASSERT(false && "cyclic graph without a residual edge");
  }
  rank.assign(nodes.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (std::size_t k = begin[*it]; k < begin[*it + 1]; ++k) {
      rank[*it] = std::max(rank[*it], rank[successors[k]] + 1);
    }
  }
}

std::size_t DagGraph::index(std::size_t node) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  return it != nodes.end() && *it == node
             ? static_cast<std::size_t>(it - nodes.begin())
             : kUntouched;
}

DagArrivalSource::DagArrivalSource(
    const DagSpec& spec, std::vector<std::size_t> benchmark_ids,
    const ArrivalOptions& options, std::uint64_t seed,
    const std::optional<RealtimeSetup>& realtime)
    : graph_(spec.edges, options.count),
      root_stream_(std::move(benchmark_ids), options, seed) {
  if (graph_.issue.has_value()) {
    throw std::invalid_argument("dep edge " +
                                std::to_string(graph_.issue->edge_index) +
                                ": " + graph_.issue->what);
  }
  // Same draws as the plain streaming source: a DAG scenario's nominal
  // arrivals are bit-identical to the independent-job scenario's.
  if (realtime.has_value()) {
    root_stream_.set_realtime(realtime->reference_cycles_by_benchmark,
                              realtime->options, realtime->seed);
  }
  stats_.nodes = options.count;
  stats_.edges = spec.edges.size();
  // One pass of a fresh copy of the stream, up to the last dependent,
  // stashes the dependents' arrivals.
  GeneratedArrivalStream draws = root_stream_;
  nominal_.resize(graph_.nodes.size());
  std::uint64_t dependents = 0;
  for (std::size_t v = 0; v < graph_.nodes.size(); ++v) {
    stats_.max_rank = std::max(stats_.max_rank, graph_.rank[v]);
    if (graph_.indegree[v] == 0) continue;
    ++dependents;
    while (draws.emitted() <= graph_.nodes[v]) nominal_[v] = *draws.next();
    nominal_[v].cp_rank = graph_.rank[v];
  }
  remaining_ = graph_.indegree;
  root_count_ = options.count - dependents;
  stats_.ready_peak = root_count_;
}

std::optional<DagArrivalSource::Emission> DagArrivalSource::draw_root(
    GeneratedArrivalStream& stream, std::size_t& touched) const {
  while (const std::optional<JobArrival> arrival = stream.next()) {
    Emission root{*arrival, static_cast<std::size_t>(stream.emitted() - 1),
                  DagGraph::kUntouched};
    if (touched < graph_.nodes.size() && graph_.nodes[touched] == root.node) {
      root.graph = touched++;
      if (graph_.indegree[root.graph] != 0) continue;  // stashed
      root.arrival.cp_rank = graph_.rank[root.graph];
    }
    return root;
  }
  return std::nullopt;
}

std::optional<JobArrival> DagArrivalSource::next() {
  stale_ = false;
  if (!root_waiting_) {
    root_ = draw_root(root_stream_, root_touched_);
    root_waiting_ = root_.has_value();
  }
  // Merge the roots with the released heap on (release, node). Roots
  // come in (release, node) order only because generated arrivals never
  // decrease.
  Emission job;
  if (!eligible_.empty() &&
      (!root_waiting_ ||
       HeapEntry{eligible_.top().first, graph_.nodes[eligible_.top().second]} <
           HeapEntry{root_->arrival.arrival, root_->node})) {
    const auto [release, graph] = eligible_.top();
    eligible_.pop();
    job = {nominal_[graph], graph_.nodes[graph], graph};
    job.arrival.arrival = release;
  } else if (root_waiting_) {
    job = *root_;
    root_waiting_ = false;
    ++root_cursor_;
  } else {
    return std::nullopt;
  }
  live_.emplace_hint(live_.end(), emitted_++,
                     LiveJob{job.node, job.graph, job.arrival.arrival});
  return job.arrival;
}

void DagArrivalSource::unget(const JobArrival& arrival) {
  // The lookahead is the last emitted job; it was never admitted, so it
  // cannot have retired.
  HETSCHED_REQUIRE(!live_.empty() && live_.rbegin()->first + 1 == emitted_ &&
                   "unget without an emission");
  const LiveJob job = live_.rbegin()->second;
  live_.erase(std::prev(live_.end()));
  --emitted_;
  HETSCHED_ASSERT(job.release == arrival.arrival);
  if (is_root(job.graph)) {
    // Nothing is drawn between emitting a job and taking it back, so a
    // root lookahead is still the last root drawn.
    HETSCHED_ASSERT(!root_waiting_ && root_->node == job.node);
    root_waiting_ = true;
    --root_cursor_;
  } else {
    eligible_.push({job.release, job.graph});
  }
}

void DagArrivalSource::on_slice(const ScheduledSlice& slice) {
  // Preempted fragments don't retire the job; only completion counts.
  if (!slice.completed) return;
  // Job ids are assigned at admission in emission order, so the live
  // map takes them straight to their graph nodes. An unget'd lookahead
  // was never admitted, so every admitted id was emitted.
  HETSCHED_REQUIRE(slice.job_id < emitted_ &&
                   "completion for a job this source never emitted");
  const auto job = live_.find(slice.job_id);
  HETSCHED_REQUIRE(job != live_.end() && "job completed twice");
  const std::size_t v = job->second.graph;
  live_.erase(job);
  if (v == DagGraph::kUntouched) return;
  for (std::size_t k = graph_.begin[v]; k < graph_.begin[v + 1]; ++k) {
    const std::size_t successor = graph_.successors[k];
    std::uint32_t& left = remaining_[successor];
    HETSCHED_ASSERT(left > 0);
    --left;
    if (left == 0) {
      partial_.erase(successor);
      release(successor, slice.end);
    } else if (left + 1 == graph_.indegree[successor]) {
      partial_.insert(successor);
    }
  }
}

void DagArrivalSource::release(std::size_t graph, SimTime completion_time) {
  const JobArrival& base = nominal_[graph];
  const SimTime release = std::max(base.arrival, completion_time);
  eligible_.push({release, graph});
  stale_ = true;

  const Cycles latency = static_cast<Cycles>(release - base.arrival);
  const std::uint32_t slack = stats_.max_rank - base.cp_rank;
  ++stats_.releases;
  stats_.release_latency_total += latency;
  stats_.cp_slack_total += slack;
  stats_.ready_peak = std::max(stats_.ready_peak, ready_depth());

  if (release_observer_ != nullptr) {
    DagReleaseEvent event;
    event.time = completion_time;
    event.node = graph_.nodes[graph];
    event.ready_depth = ready_depth();
    event.latency = latency;
    event.slack = slack;
    release_observer_->on_dag_release(event);
  }
}

std::size_t DagArrivalSource::live_node(std::uint64_t job_id) const {
  const auto job = live_.find(job_id);
  HETSCHED_REQUIRE(job != live_.end() && "no live job with that id");
  return job->second.node;
}

void DagArrivalSource::save_state(std::ostream& out) const {
  out << "dag-arrivals " << stats_.nodes << ' ' << stats_.edges << "\n";
  out << "stale " << (stale_ ? 1 : 0) << "\n";
  out << "roots " << root_cursor_ << ' ' << emitted_ << "\n";
  out << "live " << live_.size() << "\n";
  for (const auto& [job_id, job] : live_) {
    out << job_id << ' ' << job.node << ' ' << job.release << "\n";
  }
  out << "partial " << partial_.size() << "\n";
  for (const std::size_t v : partial_) {
    out << graph_.nodes[v] << ' ' << remaining_[v] << "\n";
  }
  // Drain a copy of the heap: entries come out sorted by (time, node), a
  // canonical order independent of heap layout.
  auto heap = eligible_;
  out << "eligible " << heap.size() << "\n";
  while (!heap.empty()) {
    const auto [release, v] = heap.top();
    heap.pop();
    out << release << ' ' << graph_.nodes[v] << "\n";
  }
  out << "dag-stats " << stats_.releases << ' ' << stats_.ready_peak << ' '
      << stats_.release_latency_total << ' ' << stats_.cp_slack_total
      << "\n";
}

void DagArrivalSource::restore_state(std::istream& in,
                                     const std::string& context) {
  HETSCHED_REQUIRE(emitted_ == 0 && "restore into a fresh DAG source");
  st::Reader r(in, context);
  const std::uint64_t count = stats_.nodes;
  // Each node may appear once across the live, partial and heap lists;
  // `listed` records which one.
  enum : char { kLive, kPartial, kEligible };
  std::map<std::size_t, char> listed;
  auto read_node = [&](const char* what, char list) {
    const auto node = r.read<std::size_t>(what);
    if (node >= count) r.fail(std::string(what) + " out of range");
    if (!listed.emplace(node, list).second) {
      r.fail(std::string(what) + " listed twice");
    }
    return node;
  };

  r.expect("dag-arrivals");
  if (r.read<std::uint64_t>("dag node count") != count) {
    r.fail("dag node count does not match the scenario");
  }
  if (r.read<std::uint64_t>("dag edge count") != stats_.edges) {
    r.fail("dag edge count does not match the scenario");
  }
  r.expect("stale");
  stale_ = r.flag("dag stale flag");

  r.expect("roots");
  const auto cursor = r.read<std::uint64_t>("dag root cursor");
  const auto emitted_count = r.read<std::uint64_t>("dag emitted count");
  if (cursor > root_count_) r.fail("dag root cursor beyond the root count");
  if (emitted_count > count || emitted_count < cursor) {
    r.fail("dag emitted count inconsistent with the graph");
  }
  // The stream gives the same roots again: re-draw the emitted ones.
  for (; root_cursor_ < cursor; ++root_cursor_) {
    root_ = draw_root(root_stream_, root_touched_);
  }
  emitted_ = emitted_count;
  const auto emitted_root = [&](std::size_t node) {
    return root_cursor_ > 0 && node <= root_->node;
  };

  r.expect("live");
  const std::size_t live = r.count("dag live count");
  for (std::size_t k = 0; k < live; ++k) {
    const auto job_id = r.read<std::uint64_t>("dag live job id");
    if (job_id >= emitted_count) {
      r.fail("dag live job id not below the emitted count");
    }
    const std::size_t node = read_node("dag live node", kLive);
    const std::size_t v = graph_.index(node);
    const auto release = r.read<SimTime>("dag live release");
    if (is_root(v) && !emitted_root(node)) r.fail("dag live root not emitted");
    if (!live_.emplace(job_id, LiveJob{node, v, release}).second) {
      r.fail("dag live job id listed twice");
    }
    if (v != DagGraph::kUntouched) remaining_[v] = 0;
  }

  r.expect("partial");
  const std::size_t partial = r.count("dag partial count");
  for (std::size_t k = 0; k < partial; ++k) {
    const std::size_t v = graph_.index(read_node("dag partial node", kPartial));
    const auto left = r.read<std::uint32_t>("dag predecessors left");
    if (left == 0 || is_root(v) || left >= graph_.indegree[v]) {
      r.fail("dag partial node must have some but not all predecessors "
             "retired");
    }
    remaining_[v] = left;
    partial_.insert(v);
  }

  r.expect("eligible");
  const std::size_t eligible = r.count("dag eligible count");
  for (std::size_t k = 0; k < eligible; ++k) {
    const auto release = r.read<SimTime>("dag release");
    const std::size_t v =
        graph_.index(read_node("dag eligible node", kEligible));
    if (is_root(v)) r.fail("dag root in the completion-released heap");
    remaining_[v] = 0;
    eligible_.push({release, v});
  }

  // Every graph node must agree with its predecessors, walked in
  // topological order: an emitted root is retired unless live; a live or
  // released node has every predecessor retired, a partial one exactly
  // `indegree - left`, and an unlisted one none (unreleased) or all
  // (retired).
  std::vector<std::uint32_t> retired_preds(graph_.nodes.size(), 0);
  for (const std::size_t v : graph_.order) {
    const auto entry = listed.find(graph_.nodes[v]);
    const bool unlisted = entry == listed.end();
    bool retired = false;
    if (graph_.indegree[v] == 0) {
      retired = emitted_root(graph_.nodes[v]) && unlisted;
    } else {
      const std::uint32_t done = retired_preds[v];
      const bool all = done == graph_.indegree[v];
      retired = unlisted && all;
      if (unlisted ? !all && done != 0
          : entry->second == kPartial
              ? done + remaining_[v] != graph_.indegree[v]
              : !all) {
        r.fail("dag node " + std::to_string(graph_.nodes[v]) +
               " does not match its retired predecessors");
      }
    }
    for (std::size_t k = graph_.begin[v]; k < graph_.begin[v + 1]; ++k) {
      if (retired) ++retired_preds[graph_.successors[k]];
    }
  }

  r.expect("dag-stats");
  stats_.releases = r.read<std::uint64_t>("dag releases");
  stats_.ready_peak = r.read<std::uint64_t>("dag ready peak");
  stats_.release_latency_total = r.read<Cycles>("dag release latency");
  stats_.cp_slack_total = r.read<std::uint64_t>("dag cp slack");
}

void DagArrivalSource::check_resumed(
    const std::vector<HeldJob>& held,
    std::uint64_t next_job_id, const std::optional<JobArrival>& lookahead,
    SimTime paused_at, const std::string& context) const {
  const std::size_t ahead = lookahead.has_value() ? 1 : 0;
  bool matches = emitted_ == next_job_id + ahead &&
                 live_.size() == held.size() + ahead;
  for (const HeldJob& job : held) {
    matches = matches && live_.count(job.job_id) != 0;
  }
  if (matches && ahead != 0) {
    // The lookahead was emitted last; a root one is the last root drawn.
    const auto last = live_.find(emitted_ - 1);
    matches = last != live_.end() && last->second.release == lookahead->arrival;
    if (matches && is_root(last->second.graph)) {
      matches = root_cursor_ > 0 && root_->node == last->second.node;
    }
  }
  if (!matches) {
    st::fail(context, "dag live jobs do not match the simulator's jobs");
  }
  // The next root, drawn from a copy so the source keeps its place.
  GeneratedArrivalStream stream = root_stream_;
  std::size_t touched = root_touched_;
  const std::optional<Emission> root =
      root_waiting_ ? root_ : draw_root(stream, touched);
  const SimTime due = ahead != 0 ? lookahead->arrival : paused_at;
  if ((root.has_value() && root->arrival.arrival < due) ||
      (!eligible_.empty() && eligible_.top().first < due)) {
    st::fail(context, "dag arrival due before the simulator's lookahead");
  }
}

}  // namespace hetsched
