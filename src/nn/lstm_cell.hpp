// One LSTM layer's cell parameters and the per-timestep forward/backward
// kernels, implementing the exact equations of the paper (§V, Fig. 1):
//
//   i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//   f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//   o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//   g_t = τ(W_g x_t + U_g h_{t-1} + b_g)
//   c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ τ(c_t)
//
// The four gates are stored stacked in single W (4H×I), U (4H×H) and b (4H)
// buffers, ordered [i, f, o, g], which keeps the forward pass to two GEMVs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/matrix.hpp"

namespace mlad::nn {

/// Per-timestep activations cached by the forward pass for BPTT.
struct LstmStepCache {
  std::vector<float> x;       ///< input at this step (I)
  std::vector<float> h_prev;  ///< hidden state entering the step (H)
  std::vector<float> c_prev;  ///< cell state entering the step (H)
  std::vector<float> i, f, o, g;  ///< gate activations (H each)
  std::vector<float> c;       ///< new cell state (H)
  std::vector<float> tanh_c;  ///< τ(c_t) (H)
  std::vector<float> h;       ///< new hidden state (H)
};

/// Batched analogue of LstmStepCache: one timestep of B sequences, each
/// buffer a (B × dim) matrix. The input x is NOT copied here — the batched
/// tape (lstm_layer.hpp) already owns the per-step input matrices.
struct LstmBatchCache {
  Matrix h_prev;  ///< B×H state entering the step (filled by the caller)
  Matrix c_prev;  ///< B×H
  Matrix i, f, o, g;  ///< gate activations, B×H each
  Matrix c;       ///< new cell state
  Matrix tanh_c;  ///< τ(c_t)
  Matrix h;       ///< new hidden state
};

/// Trainable parameters + gradient buffers for one LSTM layer.
class LstmCell {
 public:
  LstmCell(std::size_t input_dim, std::size_t hidden_dim);

  /// Glorot-style uniform init; forget-gate bias starts at 1 (the standard
  /// remedy for early forgetting, per Gers et al. which the paper cites).
  void init_params(Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Run one timestep; fills `cache` and returns spans of h/c inside it.
  void forward(std::span<const float> x, std::span<const float> h_prev,
               std::span<const float> c_prev, LstmStepCache& cache) const;

  /// Back-propagate one timestep.
  ///
  /// `dh` is ∂L/∂h_t (including recurrent contribution), `dc_in` is the
  /// recurrent ∂L/∂c_t flowing from step t+1. Accumulates parameter
  /// gradients and writes ∂L/∂x_t, ∂L/∂h_{t-1}, ∂L/∂c_{t-1}.
  void backward(const LstmStepCache& cache, std::span<const float> dh,
                std::span<const float> dc_in, std::span<float> dx,
                std::span<float> dh_prev, std::span<float> dc_prev);

  // ---- Batched entry points (DESIGN.md §4) -------------------------------
  //
  // These process one timestep of B sequences as (B × dim) matrices through
  // the kernels in kernels.hpp. They are const: gradients go to caller-owned
  // buffers so independent micro-batches can run concurrently over one cell.

  /// Batched one-timestep forward. The caller fills cache.h_prev /
  /// cache.c_prev (B×H) with the entering state; x is B×I. `wT` / `uT` are
  /// transposes of w() / u() cached by the caller (refresh after each
  /// optimizer step); `a_scratch` holds the B×4H pre-activations.
  void forward_batch(const Matrix& x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// The same step for a 0/1 input given as active ids (the one-hot layer-0
  /// input of inference): X Wᵀ becomes a gather of Wᵀ rows.
  void forward_batch(const OneHotRows& x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// Batched one-timestep backward. `dh` is ∂L/∂h_t (B×H, recurrent part
  /// included); `dc_in` is the recurrent ∂L/∂c_t from step t+1 and may have
  /// fewer rows than B (ended sequences contribute zero) or be empty.
  /// Parameter gradients accumulate into grad_w/grad_u/grad_b (shaped like
  /// w()/u()/b()); dh_prev and dc_prev (B×H) are overwritten, and so is
  /// *dx (B×I) unless dx is null (the bottom layer's input gradient has no
  /// consumer).
  void backward_batch(const Matrix& x, const LstmBatchCache& cache,
                      const Matrix& dh, const Matrix& dc_in, Matrix* dx,
                      Matrix& dh_prev, Matrix& dc_prev, Matrix& grad_w,
                      Matrix& grad_u, Matrix& grad_b, Matrix& da_scratch,
                      ThreadPool* pool = nullptr) const;

  void zero_grads();

  /// Parameter/gradient access (for the optimizers and serialization).
  Matrix& w() { return w_; }
  Matrix& u() { return u_; }
  Matrix& b() { return b_; }
  const Matrix& w() const { return w_; }
  const Matrix& u() const { return u_; }
  const Matrix& b() const { return b_; }
  Matrix& grad_w() { return grad_w_; }
  Matrix& grad_u() { return grad_u_; }
  Matrix& grad_b() { return grad_b_; }

  /// Total number of scalar parameters.
  std::size_t param_count() const { return w_.size() + u_.size() + b_.size(); }

 private:
  void check_forward_batch(std::size_t rows, std::size_t cols,
                           const Matrix& wT, const Matrix& uT,
                           const LstmBatchCache& cache) const;
  /// A += H_prev Uᵀ, then the gates — the part of forward_batch after the
  /// input product.
  void finish_forward_batch(const Matrix& uT, LstmBatchCache& cache,
                            Matrix& a_scratch, ThreadPool* pool) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Matrix w_;       ///< 4H × I, gate order [i,f,o,g]
  Matrix u_;       ///< 4H × H
  Matrix b_;       ///< 1 × 4H
  Matrix grad_w_;
  Matrix grad_u_;
  Matrix grad_b_;
};

}  // namespace mlad::nn
