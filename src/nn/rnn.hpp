// Vanilla (Elman) recurrent network — the "traditional RNN" the paper's
// §V argues LSTMs outperform on temporal processing tasks ([43], [44]).
// Implemented as a drop-in comparator for the ablation bench: same softmax
// head, same training loop, same top-k evaluation as SequenceModel.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"

namespace mlad::nn {

/// One Elman cell: h_t = tanh(W x_t + U h_{t-1} + b).
class ElmanCell {
 public:
  ElmanCell(std::size_t input_dim, std::size_t hidden_dim);

  void init_params(Rng& rng);

  std::size_t input_dim() const { return w_.cols(); }
  std::size_t hidden_dim() const { return w_.rows(); }

  struct StepCache {
    std::vector<float> x;
    std::vector<float> h_prev;
    std::vector<float> h;
  };

  /// One step; `wT` / `uT` are exact transposes of w() / u(), built by
  /// the caller once per weight version (gemv_add).
  void forward(std::span<const float> x, std::span<const float> h_prev,
               const Matrix& wT, const Matrix& uT, StepCache& cache) const;

  /// Accumulate parameter gradients; write ∂L/∂x and ∂L/∂h_{t-1}.
  void backward(const StepCache& cache, std::span<const float> dh,
                std::span<float> dx, std::span<float> dh_prev);

  void zero_grads();
  Matrix& w() { return w_; }
  Matrix& u() { return u_; }
  const Matrix& w() const { return w_; }
  const Matrix& u() const { return u_; }
  Matrix& b() { return b_; }
  Matrix& grad_w() { return grad_w_; }
  Matrix& grad_u() { return grad_u_; }
  Matrix& grad_b() { return grad_b_; }
  std::size_t param_count() const { return w_.size() + u_.size() + b_.size(); }

 private:
  Matrix w_;  ///< H × I
  Matrix u_;  ///< H × H
  Matrix b_;  ///< 1 × H
  Matrix grad_w_;
  Matrix grad_u_;
  Matrix grad_b_;
};

/// Stacked Elman RNN + softmax head over the signature vocabulary —
/// interface-compatible with SequenceModel where the ablation needs it.
class RnnClassifier {
 public:
  RnnClassifier(std::size_t input_dim, std::size_t num_classes,
                std::span<const std::size_t> hidden_dims);

  void init_params(Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t num_classes() const { return softmax_.num_classes(); }

  /// Forward + BPTT over one fragment; returns summed cross-entropy.
  double train_fragment(std::span<const std::vector<float>> xs,
                        std::span<const std::size_t> targets);

  /// Streaming top-k misses (same contract as SequenceModel).
  std::size_t top_k_misses(std::span<const std::vector<float>> xs,
                           std::span<const std::size_t> targets,
                           std::size_t k) const;

  void zero_grads();
  std::vector<ParamSlot> param_slots();
  std::size_t param_count() const;

 private:
  std::size_t input_dim_;
  std::vector<ElmanCell> layers_;
  SoftmaxLayer softmax_;
};

}  // namespace mlad::nn
