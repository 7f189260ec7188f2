#include "core/portfolio_policy.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;

// Cost charged for a window whose placements the profiling table knows
// nothing about yet (e.g. a contender that only stalled). Far above any
// real per-job energy, so evidence-free contenders never beat measured
// ones on a fluke zero.
constexpr double kUnknownEnergyPriorNj = 1e15;

}  // namespace

std::string portfolio_switch_jsonl(const PortfolioStats& stats) {
  std::ostringstream out;
  for (const PortfolioStats::Switch& s : stats.switches) {
    out << "{\"event\":\"policy_switch\",\"window\":" << s.window
        << ",\"time\":" << s.time << ",\"from\":\"" << s.from
        << "\",\"to\":\"" << s.to << "\"}\n";
  }
  return out.str();
}

PortfolioPolicy::PortfolioPolicy(
    std::vector<std::unique_ptr<SchedulerPolicy>> contenders,
    std::vector<std::string> labels, SimTime window_cycles)
    : contenders_(std::move(contenders)), labels_(std::move(labels)),
      window_cycles_(window_cycles), window_end_(window_cycles) {
  HETSCHED_REQUIRE(!contenders_.empty());
  HETSCHED_REQUIRE(labels_.size() == contenders_.size());
  HETSCHED_REQUIRE(window_cycles_ >= 1);
  score_.assign(contenders_.size(), 0.0);
  scored_.assign(contenders_.size(), 0);
  led_.assign(contenders_.size(), 0);
}

bool PortfolioPolicy::can_preempt() const {
  return contenders_[active_]->can_preempt();
}

void PortfolioPolicy::on_profiled(std::size_t benchmark_id,
                                  SystemView& view) {
  // Every contender sees the profiling event, so whichever one is active
  // when the job next schedules has its prediction in place. The ANN
  // contenders all derive the identical predicted_best_size_bytes, so
  // order does not matter.
  for (auto& contender : contenders_) {
    contender->on_profiled(benchmark_id, view);
  }
}

double PortfolioPolicy::window_cost() const {
  const WindowAccount& a = account_;
  const double energy_per_job =
      a.known_jobs > 0 ? a.known_energy_nj / static_cast<double>(a.known_jobs)
                       : kUnknownEnergyPriorNj;
  const double stall_ratio =
      a.decisions > 0
          ? static_cast<double>(a.stalls) / static_cast<double>(a.decisions)
          : 0.0;
  // Contenders that never emit predictions are scored neutrally (factor
  // 1); prediction-driven ones earn up to a 2x discount at a perfect hit
  // rate.
  const double hit_rate =
      a.predicted > 0
          ? static_cast<double>(a.hits) / static_cast<double>(a.predicted)
          : 1.0;
  return energy_per_job * (1.0 + stall_ratio) * (2.0 - hit_rate);
}

std::size_t PortfolioPolicy::select_next() const {
  // Exploration: sample every contender once before trusting the scores.
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (scored_[i] == 0) return i;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < contenders_.size(); ++i) {
    if (score_[i] < score_[best]) best = i;
  }
  return best;
}

void PortfolioPolicy::roll_windows(SimTime now) {
  while (now >= window_end_) {
    ++led_[active_];
    // Idle windows (no decisions at all) carry no evidence either way and
    // leave the score untouched; the contender stays due for sampling.
    if (account_.decisions > 0) {
      const double cost = window_cost();
      score_[active_] =
          scored_[active_] == 0 ? cost : 0.5 * score_[active_] + 0.5 * cost;
      ++scored_[active_];
    }
    account_ = WindowAccount{};

    const std::size_t next = select_next();
    if (next != active_) {
      switches_.push_back(PortfolioStats::Switch{
          window_index_ + 1, window_end_, labels_[active_], labels_[next]});
      active_ = next;
    }
    ++window_index_;
    window_end_ += window_cycles_;
  }
}

Decision PortfolioPolicy::decide(const Job& job, SystemView& view) {
  roll_windows(view.now());
  const Decision decision = contenders_[active_]->decide(job, view);

  ++account_.decisions;
  if (decision.kind == Decision::Kind::kStall) {
    ++account_.stalls;
  } else {
    ++account_.placed;
    const ProfilingTable::Entry& entry =
        view.table().entry(job.benchmark_id);
    if (entry.predicted_best_size_bytes.has_value()) {
      ++account_.predicted;
      if (view.core(decision.core).spec.cache_size_bytes ==
          *entry.predicted_best_size_bytes) {
        ++account_.hits;
      }
    }
    if (const Observation* obs = entry.find(decision.config)) {
      ++account_.known_jobs;
      account_.known_energy_nj += obs->total_energy.value();
    }
  }
  return decision;
}

PortfolioStats PortfolioPolicy::stats() const {
  PortfolioStats stats;
  stats.contenders = labels_;
  stats.windows_active = led_;
  stats.windows_scored = scored_;
  stats.switches = switches_;
  stats.windows_closed = window_index_;
  stats.active = labels_[active_];
  stats.window_cycles = window_cycles_;
  return stats;
}

void PortfolioPolicy::save_state(std::ostream& out) const {
  out << "policy-state portfolio " << contenders_.size() << "\n";
  out << "window " << window_index_ << " " << window_end_ << " " << active_
      << "\n";
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    out << labels_[i] << " " << scored_[i] << " " << led_[i] << " ";
    st::write_double(out, score_[i]);
    out << "\n";
  }
  out << "account " << account_.decisions << " " << account_.stalls << " "
      << account_.placed << " " << account_.predicted << " " << account_.hits
      << " " << account_.known_jobs << " ";
  st::write_double(out, account_.known_energy_nj);
  out << "\n";
  out << "switches " << switches_.size() << "\n";
  for (const PortfolioStats::Switch& s : switches_) {
    out << s.window << " " << s.time << " " << s.from << " " << s.to << "\n";
  }
  for (const auto& contender : contenders_) {
    contender->save_state(out);
  }
}

void PortfolioPolicy::restore_state(std::istream& in,
                                    const std::string& context) {
  st::Reader r(in, context);
  r.expect("policy-state");
  r.expect("portfolio");
  if (r.read<std::size_t>("contender count") != contenders_.size()) {
    r.fail("portfolio contender count mismatch");
  }
  r.expect("window");
  window_index_ = r.read<std::uint64_t>("window index");
  window_end_ = r.read<SimTime>("window end");
  active_ = r.read<std::size_t>("active contender");
  if (active_ >= contenders_.size()) r.fail("active contender out of range");
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (r.token("contender label") != labels_[i]) {
      r.fail("portfolio contender roster mismatch");
    }
    scored_[i] = r.read<std::uint64_t>("scored windows");
    led_[i] = r.read<std::uint64_t>("led windows");
    score_[i] = r.read<double>("score");
  }
  r.expect("account");
  account_.decisions = r.read<std::uint64_t>("decisions");
  account_.stalls = r.read<std::uint64_t>("stalls");
  account_.placed = r.read<std::uint64_t>("placed");
  account_.predicted = r.read<std::uint64_t>("predicted");
  account_.hits = r.read<std::uint64_t>("hits");
  account_.known_jobs = r.read<std::uint64_t>("known jobs");
  account_.known_energy_nj = r.read<double>("known energy");
  r.expect("switches");
  const std::size_t switch_count = r.count("switch count", 8);
  switches_.clear();
  switches_.reserve(switch_count);
  for (std::size_t i = 0; i < switch_count; ++i) {
    PortfolioStats::Switch s;
    s.window = r.read<std::uint64_t>("switch window");
    s.time = r.read<SimTime>("switch time");
    s.from = r.token("switch from");
    s.to = r.token("switch to");
    switches_.push_back(std::move(s));
  }
  for (auto& contender : contenders_) {
    contender->restore_state(in, context);
  }
}

}  // namespace hetsched
