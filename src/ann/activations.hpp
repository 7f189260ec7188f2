// Activation functions for the MLP. The paper's PEs are classic sigmoidal
// units; tanh is the default hidden activation, with identity output for
// the cache-size regression head.
#pragma once

#include <span>
#include <string_view>

namespace hetsched {

enum class Activation { kIdentity, kTanh, kSigmoid, kRelu };

std::string_view to_string(Activation a);

double activate(Activation a, double x);
// Derivative expressed in terms of the *activated* value y = f(x), which
// is what backprop has in hand for tanh/sigmoid.
double activate_grad_from_output(Activation a, double y);

// The same two over whole spans, with the switch on `a` taken once per
// span rather than once per element:
//   values[i] = f(values[i])
void activate_inplace(Activation a, std::span<double> values);
//   values[i] *= f'(x_i), given activated[i] = f(x_i) (backprop through f)
void multiply_by_activation_grad(Activation a, std::span<double> values,
                                 std::span<const double> activated);

}  // namespace hetsched
