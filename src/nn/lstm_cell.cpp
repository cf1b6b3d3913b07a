#include "nn/lstm_cell.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(4 * hidden_dim, input_dim),
      u_(4 * hidden_dim, hidden_dim),
      b_(1, 4 * hidden_dim),
      grad_w_(4 * hidden_dim, input_dim),
      grad_u_(4 * hidden_dim, hidden_dim),
      grad_b_(1, 4 * hidden_dim) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmCell: dimensions must be positive");
  }
}

void LstmCell::init_params(Rng& rng) {
  const float rw = 1.0f / std::sqrt(static_cast<float>(input_dim_));
  const float ru = 1.0f / std::sqrt(static_cast<float>(hidden_dim_));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-rw, rw));
  }
  for (std::size_t i = 0; i < u_.size(); ++i) {
    u_.data()[i] = static_cast<float>(rng.uniform(-ru, ru));
  }
  b_.fill(0.0f);
  // Forget-gate bias = 1 (gate block order is [i, f, o, g]).
  for (std::size_t j = 0; j < hidden_dim_; ++j) {
    b_(0, hidden_dim_ + j) = 1.0f;
  }
}

void LstmCell::forward(std::span<const float> x, std::span<const float> h_prev,
                       std::span<const float> c_prev, const Matrix& wT,
                       const Matrix& uT, LstmStepCache& cache) const {
  cache.x.assign(x.begin(), x.end());
  cache.h_prev.assign(h_prev.begin(), h_prev.end());
  cache.c_prev.assign(c_prev.begin(), c_prev.end());
  gates(x, h_prev, c_prev, wT, uT, cache);
}

void LstmCell::step(std::span<const float> x, std::span<float> h,
                    std::span<float> c, const Matrix& wT, const Matrix& uT,
                    LstmStepCache& scratch) const {
  gates(x, h, c, wT, uT, scratch);
  std::copy(scratch.h.begin(), scratch.h.end(), h.begin());
  std::copy(scratch.c.begin(), scratch.c.end(), c.begin());
}

void LstmCell::gates(std::span<const float> x, std::span<const float> h_prev,
                     std::span<const float> c_prev, const Matrix& wT,
                     const Matrix& uT, LstmStepCache& cache) const {
  if (x.size() != input_dim_ || h_prev.size() != hidden_dim_ ||
      c_prev.size() != hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward: dim mismatch");
  }
  const std::size_t h = hidden_dim_;
  // Pre-activations: a = W x + U h_prev + b, over all four gates at once.
  std::vector<float>& a = cache.a;
  a.assign(b_.row(0).begin(), b_.row(0).end());
  gemv_add(wT, x, a);
  gemv_add(uT, h_prev, a);

  cache.i.resize(h);
  cache.f.resize(h);
  cache.o.resize(h);
  cache.g.resize(h);
  cache.c.resize(h);
  cache.tanh_c.resize(h);
  cache.h.resize(h);
  for (std::size_t j = 0; j < h; ++j) {
    cache.i[j] = sigmoid(a[j]);
    cache.f[j] = sigmoid(a[h + j]);
    cache.o[j] = sigmoid(a[2 * h + j]);
    cache.g[j] = tanh_act(a[3 * h + j]);
    cache.c[j] = cache.f[j] * c_prev[j] + cache.i[j] * cache.g[j];
    cache.tanh_c[j] = tanh_act(cache.c[j]);
    cache.h[j] = cache.o[j] * cache.tanh_c[j];
  }
}

void LstmCell::backward(const LstmStepCache& cache, std::span<const float> dh,
                        std::span<const float> dc_in, std::span<float> dx,
                        std::span<float> dh_prev, std::span<float> dc_prev) {
  const std::size_t h = hidden_dim_;
  if (dh.size() != h || dc_in.size() != h || dx.size() != input_dim_ ||
      dh_prev.size() != h || dc_prev.size() != h) {
    throw std::invalid_argument("LstmCell::backward: dim mismatch");
  }
  // Gate pre-activation gradients, stacked [di, df, do, dg].
  std::vector<float> da(4 * h);
  for (std::size_t j = 0; j < h; ++j) {
    // h_t = o_t * tanh(c_t)
    const float do_out = dh[j] * cache.tanh_c[j];
    // dL/dc_t accumulates the output path and the recurrent path.
    const float dc =
        dh[j] * cache.o[j] * tanh_grad_from_output(cache.tanh_c[j]) + dc_in[j];
    // c_t = f⊙c_{t-1} + i⊙g
    const float di_out = dc * cache.g[j];
    const float df_out = dc * cache.c_prev[j];
    const float dg_out = dc * cache.i[j];
    dc_prev[j] = dc * cache.f[j];

    da[j] = di_out * sigmoid_grad_from_output(cache.i[j]);
    da[h + j] = df_out * sigmoid_grad_from_output(cache.f[j]);
    da[2 * h + j] = do_out * sigmoid_grad_from_output(cache.o[j]);
    da[3 * h + j] = dg_out * tanh_grad_from_output(cache.g[j]);
  }

  // Parameter gradients: grad_W += da ⊗ x, grad_U += da ⊗ h_prev, grad_b += da.
  outer_add(da, cache.x, grad_w_);
  outer_add(da, cache.h_prev, grad_u_);
  for (std::size_t j = 0; j < 4 * h; ++j) grad_b_(0, j) += da[j];

  // Input gradients: dx = Wᵀ da, dh_prev = Uᵀ da.
  std::fill(dx.begin(), dx.end(), 0.0f);
  std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
  gemv_transposed_add(w_, da, dx);
  gemv_transposed_add(u_, da, dh_prev);
}

void LstmCell::check_forward_batch(std::size_t rows,
                                   const LstmBatchCache& cache) const {
  if (cache.h_prev.rows() < rows || cache.h_prev.cols() != hidden_dim_ ||
      cache.c_prev.rows() != cache.h_prev.rows() ||
      cache.c_prev.cols() != hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward_batch: dim mismatch");
  }
}

void LstmCell::check_input(std::size_t cols, const Matrix& wT) const {
  if (cols != input_dim_) {
    throw std::invalid_argument("LstmCell::input_product: dim mismatch");
  }
  if (wT.rows() != input_dim_ || wT.cols() != 4 * hidden_dim_) {
    throw std::invalid_argument("LstmCell::input_product: stale transposes");
  }
}

void LstmCell::forward_batch(ConstRowsView x, const Matrix& wT,
                             const Matrix& uT, LstmBatchCache& cache,
                             Matrix& a_scratch, ThreadPool* pool) const {
  check_forward_batch(x.rows, cache);
  // A = 1·bᵀ + X Wᵀ + H_prev Uᵀ, all four gates at once.
  input_product(x, wT, a_scratch, pool);
  step_forward(cache.h_prev.block(0, x.rows), cache.c_prev.block(0, x.rows),
               uT, a_scratch, cache, pool);
}

void LstmCell::forward_batch(const OneHotRows& x, const Matrix& wT,
                             const Matrix& uT, LstmBatchCache& cache,
                             Matrix& a_scratch, ThreadPool* pool) const {
  check_forward_batch(x.rows(), cache);
  check_one_hot(x, "LstmCell::forward_batch");
  input_product(x, wT, a_scratch, pool);
  step_forward(cache.h_prev.block(0, x.rows()),
               cache.c_prev.block(0, x.rows()), uT, a_scratch, cache, pool);
}

void LstmCell::input_product(ConstRowsView x, const Matrix& wT, Matrix& a,
                             ThreadPool* pool) const {
  check_input(x.cols, wT);
  broadcast_rows(b_, x.rows, a);
  matmul_nn_acc(x, wT, a, pool);
}

void LstmCell::input_product(const OneHotRows& x, const Matrix& wT,
                             Matrix& a, ThreadPool* pool) const {
  check_input(x.cols, wT);
  // X Wᵀ of a 0/1 X is the ascending sum of the Wᵀ rows it selects.
  broadcast_rows(b_, x.rows(), a);
  gather_rows_acc(x, wT, a, pool);
}

void LstmCell::step_forward(ConstRowsView h_prev, ConstRowsView c_prev,
                            const Matrix& uT, RowsView a,
                            LstmBatchCache& out, ThreadPool* pool) const {
  if (uT.rows() != hidden_dim_ || uT.cols() != 4 * hidden_dim_) {
    throw std::invalid_argument("LstmCell::step_forward: stale transposes");
  }
  matmul_nn_acc(h_prev, uT, a, pool);
  lstm_gates_forward(a, c_prev, out.i, out.f, out.o, out.g, out.c,
                     out.tanh_c, out.h, pool);
}

void LstmCell::step_backward(const LstmBatchCache& step, ConstRowsView c_prev,
                             ConstRowsView dh, const Matrix& dc_in,
                             RowsView da, Matrix& dc_prev, Matrix* dh_prev,
                             ThreadPool* pool) const {
  lstm_gates_backward(step.i, step.f, step.o, step.g, c_prev, step.tanh_c,
                      dh, dc_in, da, dc_prev, pool);
  if (dh_prev != nullptr) matmul_nn(da, u_, *dh_prev, pool);
}

void LstmCell::weight_grads(const Matrix& da, ConstRowsView h_prev,
                            const Matrix& x, Matrix& grad_w, Matrix& grad_u,
                            Matrix& grad_b, ThreadPool* pool) const {
  col_sum_acc(da, grad_b);
  matmul_tn_acc(da, h_prev, grad_u, pool);
  matmul_tn_acc(da, x, grad_w, pool);
}

void LstmCell::weight_grads(const Matrix& da, ConstRowsView h_prev,
                            const OneHotRows& x, Matrix& grad_wT,
                            Matrix& grad_u, Matrix& grad_b,
                            ThreadPool* pool) const {
  col_sum_acc(da, grad_b);
  matmul_tn_acc(da, h_prev, grad_u, pool);
  // Xᵀ dA for 0/1 X: each dA row lands in the transposed gradient's rows
  // at its ids; MinibatchTrainer transposes it back as it folds the lanes.
  scatter_rows_acc(x, da, grad_wT);
}

void LstmCell::zero_grads() {
  grad_w_.fill(0.0f);
  grad_u_.fill(0.0f);
  grad_b_.fill(0.0f);
}

}  // namespace mlad::nn
