#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "nn/kernel_backend.hpp"
#include "nn/optimizer.hpp"

namespace mlad::nn {

bool adam_state_matches(const AdamState& state,
                        std::span<const ParamSlot> slots) {
  if (state.m.size() != slots.size() || state.v.size() != slots.size()) {
    return false;
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (state.m[i].size() != slots[i].param->size() ||
        state.v[i].size() != slots[i].param->size()) {
      return false;
    }
  }
  return true;
}

double finite_grad_norm(double sum_squares) {
  const double norm = std::sqrt(sum_squares);
  if (!std::isfinite(norm)) {
    throw NonFiniteGradientError(
        "gradient norm is not finite (NaN or Inf gradient); refusing the "
        "optimizer step");
  }
  return norm;
}

float clip_scale(double sum_squares, double max_norm) {
  const double norm = finite_grad_norm(sum_squares);
  return norm > max_norm && norm > 0.0 ? static_cast<float>(max_norm / norm)
                                       : 1.0f;
}

double grad_sum_squares(std::span<const ParamSlot> slots) {
  // In groups of four, the chains sum_squares_side_by_side runs side by
  // side, from stack arrays: this runs every optimizer step.
  double ss = 0.0;
  for (std::size_t g = 0; g < slots.size(); g += 4) {
    const std::size_t m = std::min<std::size_t>(4, slots.size() - g);
    std::array<std::span<const float>, 4> grads;
    std::array<double, 4> slot_ss{};
    for (std::size_t c = 0; c < m; ++c) {
      const Matrix& grad = *slots[g + c].grad;
      grads[c] = {grad.data(), grad.size()};
    }
    sum_squares_side_by_side(std::span(grads).first(m),
                             std::span(slot_ss).first(m));
    for (std::size_t c = 0; c < m; ++c) ss += slot_ss[c];
  }
  return ss;
}

float clip_scale(std::span<const ParamSlot> slots, double max_norm) {
  return clip_scale(grad_sum_squares(slots), max_norm);
}

void Adam::step(std::span<const ParamSlot> slots, float grad_scale) {
  if (m_.size() != slots.size()) {
    if (!m_.empty()) {
      // Moments exist (restored or from earlier steps) but don't cover
      // these slots: refuse rather than silently zero-reinitializing —
      // that would discard a warm start without a trace. Switching an
      // optimizer between models is what reset() is for.
      throw std::invalid_argument("Adam: moment state does not match params");
    }
    m_.assign(slots.size(), {});
    v_.assign(slots.size(), {});
    for (std::size_t i = 0; i < slots.size(); ++i) {
      m_[i].assign(slots[i].param->size(), 0.0f);
      v_[i].assign(slots[i].param->size(), 0.0f);
    }
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const AdamCoeffs c{beta1_, 1.0 - beta1_, beta2_, 1.0 - beta2_,
                     lr_ * std::sqrt(bc2) / bc1, eps_};
  const KernelBackend& be = kernel_backend();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Matrix& p = *slots[i].param;
    const Matrix& g = *slots[i].grad;
    if (p.size() != g.size()) throw std::invalid_argument("Adam: slot size mismatch");
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.size() != p.size() || v.size() != p.size()) {
      // A restored state whose slot count matches but whose tensors don't —
      // refuse rather than silently indexing out of range.
      throw std::invalid_argument("Adam: moment state does not match params");
    }
    be.adam_update(p.data(), m.data(), v.data(), g.data(), grad_scale,
                   p.size(), c);
  }
}

}  // namespace mlad::nn
