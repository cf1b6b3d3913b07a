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

  /// out = W h + b, the logits, given wT, an exact transpose of w() built
  /// by the caller once per weight version (gemv_add). `out` is resized to
  /// num_classes(). Ranking needs nothing more (in_top_k below).
  void logits(std::span<const float> h, const Matrix& wT,
              std::vector<float>& out) const;

  /// probs = softmax(W h + b). `probs` is resized to num_classes().
  void forward(std::span<const float> h, const Matrix& wT,
               std::vector<float>& probs) const;

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
/// (DESIGN.md §5); a NaN score is never "greater", and a NaN target score
/// is never in the top k — weights gone non-finite must read as misses
/// (alarms), not as hits.
bool in_top_k(std::span<const float> scores, std::size_t target,
              std::size_t k);

/// The count in_top_k makes for `target` (< scores.size()) — entries greater
/// than scores[target], or equal with a lower index — capped at `cap` (a
/// full, branch-free count; DESIGN.md §5). A NaN target ranks `cap`:
/// in_top_k(scores, target, k) == (top_k_rank(scores, target, cap) < k) for
/// every k ≤ cap.
std::size_t top_k_rank(std::span<const float> scores, std::size_t target,
                       std::size_t cap);

/// The paper's top-k error err_k (§V-B) for every k = 1..max_k from ONE
/// pass: add() ranks each target once, capped at max_k, and the whole curve
/// is read off the rank histogram — exactly the per-k miss counts of
/// in_top_k, without one pass per k.
class TopKErrorCurve {
 public:
  explicit TopKErrorCurve(std::size_t max_k);

  /// One prediction. A target outside `scores` (e.g. a signature missing
  /// from the database, passed as scores.size()) misses at every k.
  void add(std::span<const float> scores, std::size_t target);

  std::size_t max_k() const { return rank_count_.size() - 1; }
  std::size_t total() const { return total_; }

  /// Targets outside the top k, for k ≤ max_k (k = 0 misses everything).
  std::size_t misses(std::size_t k) const;
  /// err_k = misses(k) / total; 0 when nothing was added.
  double error(std::size_t k) const;
  /// err_1 .. err_max_k (index k-1).
  std::vector<double> errors() const;
  /// The paper's rule: the minimal k with err_k < theta, or max_k if none.
  std::size_t choose_k(double theta) const;

 private:
  /// [r] = targets of rank r for r < max_k; [max_k] = every other target
  /// (rank ≥ max_k, or missing).
  std::vector<std::size_t> rank_count_;
  std::size_t total_ = 0;
};

}  // namespace mlad::nn
