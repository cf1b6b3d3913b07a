#include "nn/lstm_layer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/kernels.hpp"

namespace mlad::nn {

void LstmLayer::forward_sequence(std::span<const std::vector<float>> xs,
                                 std::vector<LstmStepCache>& caches,
                                 std::vector<std::vector<float>>& outputs) const {
  const std::size_t h = cell_.hidden_dim();
  caches.resize(xs.size());
  outputs.resize(xs.size());
  std::vector<float> h_prev(h, 0.0f);
  std::vector<float> c_prev(h, 0.0f);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    cell_.forward(xs[t], h_prev, c_prev, caches[t]);
    h_prev = caches[t].h;
    c_prev = caches[t].c;
    outputs[t] = caches[t].h;
  }
}

void LstmLayer::backward_sequence(const std::vector<LstmStepCache>& caches,
                                  std::span<const std::vector<float>> dh_out,
                                  std::vector<std::vector<float>>& dx) {
  if (caches.size() != dh_out.size()) {
    throw std::invalid_argument("backward_sequence: cache/grad length mismatch");
  }
  const std::size_t h = cell_.hidden_dim();
  const std::size_t steps = caches.size();
  dx.assign(steps, std::vector<float>(cell_.input_dim(), 0.0f));
  std::vector<float> dh_next(h, 0.0f);  // ∂L/∂h_t from step t+1
  std::vector<float> dc_next(h, 0.0f);  // ∂L/∂c_t from step t+1
  std::vector<float> dh_total(h);
  std::vector<float> dh_prev(h);
  std::vector<float> dc_prev(h);
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t j = 0; j < h; ++j) dh_total[j] = dh_out[t][j] + dh_next[j];
    cell_.backward(caches[t], dh_total, dc_next, dx[t], dh_prev, dc_prev);
    dh_next = dh_prev;
    dc_next = dc_prev;
  }
}

void StepLayout::assign(std::span<const std::size_t> step_rows) {
  const std::size_t T = step_rows.size();
  rows.assign(step_rows.begin(), step_rows.end());
  fwd.resize(T);
  bwd.resize(T);
  total = 0;
  for (std::size_t t = 0; t < T; ++t) {
    if (t > 0 && rows[t] > rows[t - 1]) {
      throw std::invalid_argument(
          "StepLayout: batch rows must be non-increasing");
    }
    fwd[t] = total;
    total += rows[t];
  }
  std::size_t at = 0;
  for (std::size_t t = T; t-- > 0;) {
    bwd[t] = at;
    at += rows[t];
  }
}

namespace {

/// Copy x's rows from forward into backward order.
void to_backward_order(const StepLayout& layout, const Matrix& x,
                       Matrix& out) {
  out.resize(layout.total, x.cols());
  for (std::size_t t = 0; t < layout.steps(); ++t) {
    const std::size_t n = layout.rows[t] * x.cols();
    const float* src = x.data() + layout.fwd[t] * x.cols();
    std::copy(src, src + n, out.data() + layout.bwd[t] * x.cols());
  }
}

void to_backward_order(const StepLayout& layout, const OneHotRows& x,
                       OneHotRows& out) {
  out.clear(x.cols);
  for (std::size_t t = layout.steps(); t-- > 0;) {
    for (std::size_t r = 0; r < layout.rows[t]; ++r) {
      out.append_row(x, layout.fwd[t] + r);
    }
  }
}

}  // namespace

std::pair<const Matrix&, const Matrix&> LstmLayer::transposes(
    LayerBatchTape& tape, const Matrix* wT, const Matrix* uT) const {
  if (wT != nullptr && uT != nullptr) return {*wT, *uT};
  // No caller cache: transpose into the tape.
  transpose(cell_.w(), tape.wT);
  transpose(cell_.u(), tape.uT);
  return {tape.wT, tape.uT};
}

void LstmLayer::forward_sequence_batch(const OneHotRows& x,
                                       const StepLayout& layout,
                                       LayerBatchTape& tape, ThreadPool* pool,
                                       const Matrix* wT,
                                       const Matrix* uT) const {
  if (x.rows() != layout.total) {
    throw std::invalid_argument("forward_sequence_batch: row count mismatch");
  }
  const auto [w, u] = transposes(tape, wT, uT);
  cell_.input_product(x, w, tape.a, pool);
  recurrent_forward(layout, tape, u, pool);
}

void LstmLayer::forward_sequence_batch(const Matrix& x,
                                       const StepLayout& layout,
                                       LayerBatchTape& tape, ThreadPool* pool,
                                       const Matrix* wT,
                                       const Matrix* uT) const {
  if (x.rows() != layout.total) {
    throw std::invalid_argument("forward_sequence_batch: row count mismatch");
  }
  const auto [w, u] = transposes(tape, wT, uT);
  cell_.input_product(x, w, tape.a, pool);
  recurrent_forward(layout, tape, u, pool);
}

void LstmLayer::recurrent_forward(const StepLayout& layout,
                                  LayerBatchTape& tape, const Matrix& uT,
                                  ThreadPool* pool) const {
  const std::size_t T = layout.steps();
  const std::size_t H = cell_.hidden_dim();
  tape.steps.resize(T);
  tape.h.resize(layout.total, H);
  tape.zeros.resize(T > 0 ? layout.rows[0] : 0, H, 0.0f);
  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t bt = layout.rows[t];
    // Sequences sorted longest-first: the still-active rows at step t are
    // exactly the first bt rows of step t-1's state.
    const ConstRowsView h_prev =
        t > 0 ? tape.steps[t - 1].h.block(0, bt) : tape.zeros.block(0, bt);
    const ConstRowsView c_prev =
        t > 0 ? tape.steps[t - 1].c.block(0, bt) : tape.zeros.block(0, bt);
    LstmBatchCache& step = tape.steps[t];
    cell_.step_forward(h_prev, c_prev, uT, tape.a.block(layout.fwd[t], bt),
                       step, pool);
    std::copy(step.h.data(), step.h.data() + step.h.size(),
              tape.h.data() + layout.fwd[t] * H);
  }
}

void LstmLayer::recurrent_backward(const StepLayout& layout, Matrix& dh_out,
                                   bool dh_backward_order,
                                   LayerBatchTape& tape,
                                   ThreadPool* pool) const {
  const std::size_t T = tape.steps.size();
  const std::size_t H = cell_.hidden_dim();
  if (layout.steps() != T || dh_out.rows() != layout.total ||
      dh_out.cols() != H) {
    throw std::invalid_argument(
        "backward_sequence_batch: tape/grad shape mismatch");
  }
  tape.da.resize(layout.total, 4 * H);
  // The entering state of every step in backward order, for grad_U; step
  // 0's zero rows stay in, as they were in the per-step product.
  tape.h_prev.resize(layout.total, H);
  for (std::size_t t = 0; t < T; ++t) {
    const Matrix& src = t > 0 ? tape.steps[t - 1].h : tape.zeros;
    std::copy(src.data(), src.data() + layout.rows[t] * H,
              tape.h_prev.data() + layout.bwd[t] * H);
  }
  const Matrix empty;  // zero recurrent carry entering the last step
  std::size_t cur = 0;
  for (std::size_t t = T; t-- > 0;) {
    const std::size_t bt = layout.rows[t];
    const RowsView dh = dh_out.block(
        dh_backward_order ? layout.bwd[t] : layout.fwd[t], bt);
    const bool last = (t + 1 == T);
    // Recurrent gradients from step t+1 touch only its B_{t+1} ≤ B_t rows.
    if (!last) add_top_rows(dh, tape.dh_carry[cur]);
    const std::size_t nxt = 1 - cur;
    cell_.step_backward(
        tape.steps[t],
        t > 0 ? tape.steps[t - 1].c.block(0, bt) : tape.zeros.block(0, bt),
        dh, last ? empty : tape.dc_carry[cur], tape.da.block(layout.bwd[t], bt),
        tape.dc_carry[nxt], t > 0 ? &tape.dh_carry[nxt] : nullptr, pool);
    cur = nxt;
  }
}

void LstmLayer::backward_sequence_batch(const OneHotRows& x,
                                        const StepLayout& layout,
                                        Matrix& dh_out, bool dh_backward_order,
                                        LayerBatchTape& tape, Matrix& grad_w,
                                        Matrix& grad_u, Matrix& grad_b,
                                        ThreadPool* pool) const {
  recurrent_backward(layout, dh_out, dh_backward_order, tape, pool);
  to_backward_order(layout, x, tape.ids);
  cell_.weight_grads(tape.da, tape.h_prev, tape.ids, grad_w, grad_u, grad_b,
                     tape.grad_wT, pool);
}

void LstmLayer::backward_sequence_batch(const Matrix& x,
                                        const StepLayout& layout,
                                        Matrix& dh_out, bool dh_backward_order,
                                        LayerBatchTape& tape, Matrix& grad_w,
                                        Matrix& grad_u, Matrix& grad_b,
                                        ThreadPool* pool) const {
  recurrent_backward(layout, dh_out, dh_backward_order, tape, pool);
  to_backward_order(layout, x, tape.x);
  cell_.weight_grads(tape.da, tape.h_prev, tape.x, grad_w, grad_u, grad_b,
                     pool);
  matmul_nn(tape.da, cell_.w(), tape.dx, pool);
}

void LstmLayer::set_state(std::span<const float> h, std::span<const float> c) {
  if (h.size() != h_.size() || c.size() != c_.size()) {
    throw std::invalid_argument("LstmLayer::set_state: dim mismatch");
  }
  h_.assign(h.begin(), h.end());
  c_.assign(c.begin(), c.end());
}

}  // namespace mlad::nn
