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

/// Per-timestep activations cached by the forward pass for BPTT — and the
/// reusable scratch of the streaming step(), which leaves x/h_prev/c_prev
/// untouched.
struct LstmStepCache {
  std::vector<float> x;       ///< input at this step (I)
  std::vector<float> h_prev;  ///< hidden state entering the step (H)
  std::vector<float> c_prev;  ///< cell state entering the step (H)
  std::vector<float> a;       ///< pre-activations W x + U h_prev + b (4H)
  std::vector<float> i, f, o, g;  ///< gate activations (H each)
  std::vector<float> c;       ///< new cell state (H)
  std::vector<float> tanh_c;  ///< τ(c_t) (H)
  std::vector<float> h;       ///< new hidden state (H)
};

/// Batched analogue of LstmStepCache: one timestep of B sequences, each
/// buffer a (B × dim) matrix. The input x is NOT copied here — the batched
/// tape (lstm_layer.hpp) keeps the whole window's input once.
struct LstmBatchCache {
  Matrix h_prev;  ///< B×H state entering the step (inference; the training
                  ///< tape reads the previous step's h instead)
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

  /// Run one timestep; fills `cache`. `wT` / `uT` are exact transposes of
  /// w() / u(), built by the caller once per weight version (gemv_add).
  void forward(std::span<const float> x, std::span<const float> h_prev,
               std::span<const float> c_prev, const Matrix& wT,
               const Matrix& uT, LstmStepCache& cache) const;

  /// Streaming step (inference): advance (h, c) in place by one input with
  /// forward()'s arithmetic, keeping only the gates in `scratch` — no
  /// BPTT copies, and no allocation once `scratch` is warm.
  void step(std::span<const float> x, std::span<float> h, std::span<float> c,
            const Matrix& wT, const Matrix& uT, LstmStepCache& scratch) const;

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
  // These process B sequences as (B × dim) matrices through the kernels in
  // kernels.hpp. They are const: gradients go to caller-owned buffers so
  // independent micro-batches can run concurrently over one cell. Training
  // splits a step into its input half, run once over every step of a window
  // batch (input_product, weight_grads), and its recurrent half, run per
  // step (step_forward, step_backward).

  /// Batched one-timestep forward (inference). The caller fills
  /// cache.h_prev / cache.c_prev (S×H) with the entering state; x is n×I
  /// with n <= S, and the step advances the first n rows: cache.h / c
  /// (resized to n×H) receive their new state, rows n.. of h_prev / c_prev
  /// are not read. `wT` / `uT` are transposes of w() / u() cached by the
  /// caller (refresh after each optimizer step); `a_scratch` holds the
  /// n×4H pre-activations.
  void forward_batch(ConstRowsView x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// The same step for a 0/1 input given as active ids (the one-hot layer-0
  /// input): X Wᵀ becomes a gather of Wᵀ rows. Throws on ids check_one_hot
  /// refuses.
  void forward_batch(const OneHotRows& x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// a = 1·bᵀ + X Wᵀ (resized to x's rows × 4H): the input half of the
  /// pre-activations, for any number of stacked rows. 0/1 rows gather Wᵀ
  /// rows in ascending id order — bitwise the dense product on the FMA
  /// backends (DESIGN.md §2). The 0/1 overloads here and in weight_grads
  /// take rows whose ids already passed check_one_hot (training's stacked
  /// rows, checked as train_window_batch copies them in) and do not
  /// re-check them.
  void input_product(ConstRowsView x, const Matrix& wT, Matrix& a,
                     ThreadPool* pool = nullptr) const;
  void input_product(const OneHotRows& x, const Matrix& wT, Matrix& a,
                     ThreadPool* pool = nullptr) const;

  /// The recurrent half of one step: a += H_prev Uᵀ, then the gates into
  /// `out`'s i/f/o/g/c/tanh_c/h (resized to B×H). `a` (B×4H) holds the
  /// step's input half, usually rows of a whole-window input_product.
  void step_forward(ConstRowsView h_prev, ConstRowsView c_prev,
                    const Matrix& uT, RowsView a, LstmBatchCache& out,
                    ThreadPool* pool = nullptr) const;

  /// Back-propagate one step through the gates. `dh` is ∂L/∂h_t (B×H,
  /// recurrent part included); `dc_in` is the recurrent ∂L/∂c_t from step
  /// t+1 and may have fewer rows than B (ended sequences contribute zero)
  /// or be empty. Writes the gate gradient into `da` (B×4H, caller-sized),
  /// ∂L/∂c_{t-1} into dc_prev and, unless dh_prev is null (the first step
  /// has no predecessor), ∂L/∂h_{t-1} = dA U into *dh_prev.
  void step_backward(const LstmBatchCache& step, ConstRowsView c_prev,
                     ConstRowsView dh, const Matrix& dc_in, RowsView da,
                     Matrix& dc_prev, Matrix* dh_prev,
                     ThreadPool* pool = nullptr) const;

  /// Parameter gradients of a whole window batch from its stacked gate
  /// gradients `da` (N×4H) and the matching stacked rows of the entering
  /// state `h_prev` (N×H) and input `x` (N×I): grad_b += column sums of
  /// dA, grad_U += dAᵀ H_prev, grad_W += dAᵀ X. Row order is the
  /// accumulation order. For 0/1 rows the weight gradient is kept
  /// transposed: dA rows scatter into grad_wT (I×4H) += Xᵀ dA.
  void weight_grads(const Matrix& da, ConstRowsView h_prev, const Matrix& x,
                    Matrix& grad_w, Matrix& grad_u, Matrix& grad_b,
                    ThreadPool* pool = nullptr) const;
  void weight_grads(const Matrix& da, ConstRowsView h_prev,
                    const OneHotRows& x, Matrix& grad_wT, Matrix& grad_u,
                    Matrix& grad_b, ThreadPool* pool = nullptr) const;

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
  /// forward()/step() body: pre-activations and gates into `cache`.
  void gates(std::span<const float> x, std::span<const float> h_prev,
             std::span<const float> c_prev, const Matrix& wT,
             const Matrix& uT, LstmStepCache& cache) const;
  void check_forward_batch(std::size_t rows,
                           const LstmBatchCache& cache) const;
  void check_input(std::size_t cols, const Matrix& wT) const;

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
