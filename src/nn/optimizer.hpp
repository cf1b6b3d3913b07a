// The optimizer over flat lists of (parameter, gradient) matrices.
//
// The paper trains its stacked LSTM for 50 epochs to convergence of the
// softmax loss; it does not pin down the optimizer. Adam, the de-facto
// choice for LSTM softmax classifiers of that era, is the one used here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/matrix.hpp"

namespace mlad::nn {

/// A view binding one parameter tensor to its gradient buffer.
struct ParamSlot {
  Matrix* param = nullptr;
  Matrix* grad = nullptr;
};

/// Snapshot of Adam's moment estimates and step counter, so training can
/// resume (offline `mlad train --resume`, or the online-adaptation warm
/// start) from a real optimizer state instead of zeroed moments. Persisted
/// as a sidecar next to the model (nn/serialize.hpp).
struct AdamState {
  std::uint64_t t = 0;
  std::vector<LineFloats> m;  ///< first moments, one vector per slot
  std::vector<LineFloats> v;  ///< second moments
};

/// Does `state` have exactly one (m, v) pair per slot, each sized like the
/// slot's parameter tensor? Callers restoring a persisted state must check
/// (and refuse on mismatch) before handing it to Adam::restore.
bool adam_state_matches(const AdamState& state,
                        std::span<const ParamSlot> slots);

/// A gradient whose global L2 norm is NaN or infinite: an Adam step on it
/// would write non-finite weights, which save_model and load_model refuse.
class NonFiniteGradientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// sqrt(sum_squares), the global L2 norm of a gradient; throws
/// NonFiniteGradientError when it is NaN or infinite.
double finite_grad_norm(double sum_squares);

/// The global-norm clip as the factor Adam multiplies every gradient by on
/// load (Adam::step's grad_scale): max_norm / norm as a float when the norm
/// sqrt(sum_squares) exceeds max_norm, else 1. Throws
/// NonFiniteGradientError when the norm is not finite.
float clip_scale(double sum_squares, double max_norm);

/// The squared global L2 norm of the slots' gradients: each slot's
/// Matrix::sum_squares, the chains run side by side
/// (sum_squares_side_by_side), the sums added in slot order.
double grad_sum_squares(std::span<const ParamSlot> slots);

/// clip_scale(grad_sum_squares(slots), max_norm).
float clip_scale(std::span<const ParamSlot> slots, double max_norm);

/// Adam (Kingma & Ba) with bias correction. The per-element update runs on
/// the active kernel backend and is bitwise the same on every backend.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  /// Apply one update using the gradients currently in the slots, each
  /// multiplied by `grad_scale` (a float multiply) as it is read — the
  /// global-norm clip (clip_scale) without a pass over the gradients.
  void step(std::span<const ParamSlot> slots, float grad_scale = 1.0f);
  /// Drop the moment state (e.g. between independent models).
  void reset() {
    m_.clear();
    v_.clear();
    t_ = 0;
  }
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

  /// Copy out the moment state (for the sidecar / warm handoff).
  AdamState state() const { return {t_, m_, v_}; }
  /// Adopt a previously captured state. The caller is responsible for shape
  /// validation against the slots it will step (adam_state_matches); step()
  /// still throws if a restored moment vector disagrees with its parameter.
  void restore(AdamState state) {
    t_ = state.t;
    m_ = std::move(state.m);
    v_ = std::move(state.v);
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::uint64_t t_ = 0;
  std::vector<LineFloats> m_;  ///< line-aligned, like the parameters
  std::vector<LineFloats> v_;
};

}  // namespace mlad::nn
