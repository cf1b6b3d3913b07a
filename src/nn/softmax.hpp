// Dense softmax output layer with fused multiclass cross-entropy — the
// "Softmax Activation Layer" of Fig. 2 producing Pr(s_i | c(t-1), c(t-2), …)
// over the |S| signatures, trained with the paper's loss
//   L = -Σ_t Σ_i 1(s(x^(t)) = s_i) ln Pr(s_i | …).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace mlad::nn {

class SoftmaxLayer {
 public:
  SoftmaxLayer(std::size_t input_dim, std::size_t num_classes);

  void init_params(Rng& rng);

  std::size_t input_dim() const { return w_.cols(); }
  std::size_t num_classes() const { return w_.rows(); }

  /// out = W h + b, the logits. `out` is resized to num_classes(). Ranking
  /// needs nothing more (in_top_k below).
  void logits(std::span<const float> h, std::vector<float>& out) const;

  /// probs = softmax(W h + b). `probs` is resized to num_classes().
  void forward(std::span<const float> h, std::vector<float>& probs) const;

  /// Fused softmax + cross-entropy backward for one timestep.
  ///
  /// Given the forward `probs` and the true class, accumulates parameter
  /// gradients, writes ∂L/∂h into `dh`, and returns -ln probs[target].
  double backward(std::span<const float> h, std::span<const float> probs,
                  std::size_t target, std::span<float> dh);

  void zero_grads();

  Matrix& w() { return w_; }
  Matrix& b() { return b_; }
  const Matrix& w() const { return w_; }
  const Matrix& b() const { return b_; }
  Matrix& grad_w() { return grad_w_; }
  Matrix& grad_b() { return grad_b_; }

  std::size_t param_count() const { return w_.size() + b_.size(); }

 private:
  Matrix w_;       ///< C × H
  Matrix b_;       ///< 1 × C
  Matrix grad_w_;
  Matrix grad_b_;
};

/// Indices of the k largest scores, descending (ties: lower index first).
/// k is clamped to size.
std::vector<std::size_t> top_k_indices(std::span<const float> scores,
                                       std::size_t k);

/// True iff `target` is among the top-k classes of `scores` (the paper's
/// S(k) membership test used by the time-series detection function F_t):
/// fewer than k entries are greater than scores[target], or equal with a
/// lower index. Softmax is monotone, so the verdict is taken on logits
/// (DESIGN.md §5); a NaN score is never "greater".
bool in_top_k(std::span<const float> scores, std::size_t target,
              std::size_t k);

}  // namespace mlad::nn
