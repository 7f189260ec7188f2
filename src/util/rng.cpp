#include "util/rng.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "util/snapshot_text.hpp"

namespace hetsched {

std::uint64_t Rng::below(std::uint64_t n) {
  HETSCHED_REQUIRE(n > 0);
  // Rejection sampling: draw until the value falls inside the largest
  // multiple of n representable in 64 bits.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::exponential(double rate) {
  HETSCHED_REQUIRE(rate > 0.0);
  // uniform() is in [0,1); 1-u is in (0,1] so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

std::vector<std::size_t> Rng::sample_with_replacement(std::size_t n,
                                                      std::size_t k) {
  HETSCHED_REQUIRE(n > 0);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<std::size_t>(below(n)));
  }
  return out;
}

Rng Rng::split() {
  // Hash the current state into a fresh seed; advances this stream once so
  // successive splits differ.
  return Rng(next() ^ 0x9e3779b97f4a7c15ULL);
}

void Rng::save_state(std::ostream& out) const {
  out << "rng";
  for (const std::uint64_t s : state_) out << ' ' << s;
  out << ' ' << (has_spare_normal_ ? 1 : 0) << ' ';
  snapshot_text::write_double(out, spare_normal_);
  out << "\n";
}

void Rng::restore_state(std::istream& in, const std::string& context) {
  snapshot_text::Reader r(in, context);
  r.expect("rng");
  for (std::uint64_t& s : state_) s = r.read<std::uint64_t>("rng state word");
  has_spare_normal_ = r.flag("rng spare flag");
  spare_normal_ = r.read<double>("rng spare normal");
}

}  // namespace hetsched
