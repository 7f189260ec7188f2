#include "ann/activations.hpp"

#include <cmath>
#include <type_traits>

#include "util/contracts.hpp"

namespace hetsched {
namespace {

// Calls fn with `a` as a compile-time constant, so the element loops fn
// runs see a fixed activation and carry no switch.
template <typename Fn>
void with_constant(Activation a, Fn&& fn) {
  switch (a) {
    case Activation::kIdentity:
      fn(std::integral_constant<Activation, Activation::kIdentity>{});
      return;
    case Activation::kTanh:
      fn(std::integral_constant<Activation, Activation::kTanh>{});
      return;
    case Activation::kSigmoid:
      fn(std::integral_constant<Activation, Activation::kSigmoid>{});
      return;
    case Activation::kRelu:
      fn(std::integral_constant<Activation, Activation::kRelu>{});
      return;
  }
}

}  // namespace

std::string_view to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kRelu: return "relu";
  }
  return "unknown";
}

double activate(Activation a, double x) {
  switch (a) {
    case Activation::kIdentity: return x;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
  }
  return x;
}

double activate_grad_from_output(Activation a, double y) {
  switch (a) {
    case Activation::kIdentity: return 1.0;
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

void activate_inplace(Activation a, std::span<double> values) {
  with_constant(a, [&](auto kind) {
    for (double& v : values) v = activate(kind, v);
  });
}

void multiply_by_activation_grad(Activation a, std::span<double> values,
                                 std::span<const double> activated) {
  HETSCHED_REQUIRE(values.size() == activated.size());
  with_constant(a, [&](auto kind) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] *= activate_grad_from_output(kind, activated[i]);
    }
  });
}

}  // namespace hetsched
