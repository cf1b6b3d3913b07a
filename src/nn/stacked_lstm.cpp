#include "nn/stacked_lstm.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/kernels.hpp"

namespace mlad::nn {

StackedLstm::StackedLstm(std::size_t input_dim,
                         std::span<const std::size_t> hidden_dims)
    : input_dim_(input_dim) {
  if (hidden_dims.empty()) {
    throw std::invalid_argument("StackedLstm: need at least one layer");
  }
  std::size_t in = input_dim;
  layers_.reserve(hidden_dims.size());
  for (std::size_t hd : hidden_dims) {
    layers_.emplace_back(in, hd);
    in = hd;
  }
}

void StackedLstm::init_params(Rng& rng) {
  for (auto& l : layers_) l.init_params(rng);
}

StackedLstmState StackedLstm::make_state() const {
  StackedLstmState s;
  s.h.reserve(layers_.size());
  s.c.reserve(layers_.size());
  for (const auto& l : layers_) {
    s.h.emplace_back(l.hidden_dim(), 0.0f);
    s.c.emplace_back(l.hidden_dim(), 0.0f);
  }
  return s;
}

std::span<const float> StackedLstm::step(std::span<const float> x,
                                         StackedLstmState& state,
                                         LstmStepCache& scratch,
                                         std::span<const Matrix> wT,
                                         std::span<const Matrix> uT) const {
  if (state.h.size() != layers_.size() || wT.size() != layers_.size() ||
      uT.size() != layers_.size()) {
    throw std::invalid_argument("StackedLstm::step: state layer mismatch");
  }
  std::span<const float> in = x;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    layers_[li].cell().step(in, state.h[li], state.c[li], wT[li], uT[li],
                            scratch);
    in = state.h[li];
  }
  return in;
}

std::vector<std::vector<float>> StackedLstm::forward_sequence(
    std::span<const std::vector<float>> xs, StackedLstmCache& cache) const {
  cache.caches.assign(layers_.size(), {});
  cache.outputs.assign(layers_.size(), {});
  std::vector<std::vector<float>> in(xs.begin(), xs.end());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    layers_[li].forward_sequence(in, cache.caches[li], cache.outputs[li]);
    in = cache.outputs[li];
  }
  return in;  // top layer outputs
}

void StackedLstm::backward_sequence(const StackedLstmCache& cache,
                                    std::span<const std::vector<float>> dh_top) {
  if (cache.caches.size() != layers_.size()) {
    throw std::invalid_argument("StackedLstm::backward_sequence: bad cache");
  }
  std::vector<std::vector<float>> dh(dh_top.begin(), dh_top.end());
  std::vector<std::vector<float>> dx;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    layers_[li].backward_sequence(cache.caches[li], dh, dx);
    dh = dx;  // gradient w.r.t. the layer's inputs = grads for layer below
  }
}

void StackedLstm::forward_sequence_batch(
    const OneHotRows& x, std::span<const std::size_t> step_rows,
    StackedBatchTape& tape, ThreadPool* pool, std::span<const Matrix> wT,
    std::span<const Matrix> uT) const {
  if ((!wT.empty() && wT.size() != layers_.size()) ||
      (!uT.empty() && uT.size() != layers_.size())) {
    throw std::invalid_argument(
        "forward_sequence_batch: transpose cache size mismatch");
  }
  tape.layout.assign(step_rows);
  tape.layers.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Matrix* w = wT.empty() ? nullptr : &wT[li];
    const Matrix* u = uT.empty() ? nullptr : &uT[li];
    // Layer 0 reads the caller's 0/1 rows (which must stay alive through
    // the matching backward pass); layer l reads layer l-1's outputs.
    if (li == 0) {
      layers_[0].forward_sequence_batch(x, tape.layout, tape.layers[0], pool,
                                        w, u);
    } else {
      layers_[li].forward_sequence_batch(tape.layers[li - 1].h, tape.layout,
                                         tape.layers[li], pool, w, u);
    }
  }
}

void StackedLstm::backward_sequence_batch(const OneHotRows& x,
                                          StackedBatchTape& tape,
                                          Matrix& dh_top,
                                          std::span<Matrix> grads,
                                          ThreadPool* pool) const {
  if (tape.layers.size() != layers_.size() ||
      grads.size() != 3 * layers_.size()) {
    throw std::invalid_argument("backward_sequence_batch: bad tape/grads");
  }
  Matrix* dh = &dh_top;
  bool dh_backward_order = false;  // the output layer works in forward order
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Matrix* g = &grads[3 * li];
    if (li == 0) {
      layers_[0].backward_sequence_batch(x, tape.layout, *dh,
                                         dh_backward_order, tape.layers[0],
                                         g[0], g[1], g[2], pool);
    } else {
      layers_[li].backward_sequence_batch(
          tape.layers[li - 1].h, tape.layout, *dh, dh_backward_order,
          tape.layers[li], g[0], g[1], g[2], pool);
      // Input grads = dh_out of the layer below, stacked in backward order.
      dh = &tape.layers[li].dx;
      dh_backward_order = true;
    }
  }
}

void StackedLstm::begin_stream_batch(std::size_t streams,
                                     StreamBatchState& sb) const {
  sb.layers.resize(layers_.size());
  sb.wT.resize(layers_.size());
  sb.uT.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmCell& cell = layers_[li].cell();
    sb.layers[li].h_prev.resize(streams, cell.hidden_dim());
    sb.layers[li].c_prev.resize(streams, cell.hidden_dim());
    transpose(cell.w(), sb.wT[li]);
    transpose(cell.u(), sb.uT[li]);
  }
}

ConstRowsView StackedLstm::step_stream_batch(const OneHotRows& x,
                                             StreamBatchState& sb,
                                             ThreadPool* pool) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("step_stream_batch: uninitialized state");
  }
  const std::size_t n = x.rows();
  const bool every_stream = n == sb.layers.front().h_prev.rows();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    LstmBatchCache& cache = sb.layers[li];
    const LstmCell& cell = layers_[li].cell();
    if (li == 0) {
      cell.forward_batch(x, sb.wT[0], sb.uT[0], cache, sb.a, pool);
    } else {
      // The layer beneath's h_prev rows [0, n) hold its fresh output (see
      // below): this layer's input block.
      cell.forward_batch(sb.layers[li - 1].h_prev.block(0, n), sb.wT[li],
                         sb.uT[li], cache, sb.a, pool);
    }
    // The fresh h/c become the entering state of the next tick: swapped in
    // whole when every stream stepped, copied over the stepped rows when
    // only a prefix did (the rest keep theirs).
    if (every_stream) {
      std::swap(cache.h, cache.h_prev);
      std::swap(cache.c, cache.c_prev);
    } else {
      std::copy(cache.h.data(), cache.h.data() + cache.h.size(),
                cache.h_prev.data());
      std::copy(cache.c.data(), cache.c.data() + cache.c.size(),
                cache.c_prev.data());
    }
  }
  return sb.layers.back().h_prev.block(0, n);
}

void StackedLstm::shrink_stream_batch(std::size_t n,
                                      StreamBatchState& sb) const {
  for (LstmBatchCache& cache : sb.layers) {
    if (n > cache.h_prev.rows()) {
      throw std::invalid_argument("shrink_stream_batch: n exceeds streams");
    }
    copy_top_rows(cache.h_prev, n, sb.shrink_tmp);
    std::swap(cache.h_prev, sb.shrink_tmp);
    copy_top_rows(cache.c_prev, n, sb.shrink_tmp);
    std::swap(cache.c_prev, sb.shrink_tmp);
  }
}

void StackedLstm::grow_stream_batch(std::size_t n,
                                    StreamBatchState& sb) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("grow_stream_batch: uninitialized state");
  }
  for (LstmBatchCache& cache : sb.layers) {
    if (n < cache.h_prev.rows()) {
      throw std::invalid_argument("grow_stream_batch: n below active streams");
    }
    cache.h_prev.resize_rows(n);
    cache.c_prev.resize_rows(n);
  }
}

void StackedLstm::swap_stream_rows(std::size_t a, std::size_t b,
                                   StreamBatchState& sb) const {
  for (LstmBatchCache& cache : sb.layers) {
    swap_rows(cache.h_prev, a, b);
    swap_rows(cache.c_prev, a, b);
  }
}

void StackedLstm::refresh_stream_batch(StreamBatchState& sb) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("refresh_stream_batch: uninitialized state");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmCell& cell = layers_[li].cell();
    transpose(cell.w(), sb.wT[li]);
    transpose(cell.u(), sb.uT[li]);
  }
}

void StackedLstm::extract_stream_state(const StreamBatchState& sb,
                                       std::size_t s,
                                       StackedLstmState& out) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("extract_stream_state: uninitialized state");
  }
  out.h.resize(layers_.size());
  out.c.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmBatchCache& cache = sb.layers[li];
    if (s >= cache.h_prev.rows()) {
      throw std::invalid_argument("extract_stream_state: stream out of range");
    }
    const auto h = cache.h_prev.row(s);
    const auto c = cache.c_prev.row(s);
    out.h[li].assign(h.begin(), h.end());
    out.c[li].assign(c.begin(), c.end());
  }
}

void StackedLstm::restore_stream_state(StreamBatchState& sb, std::size_t s,
                                       const StackedLstmState& state) const {
  if (sb.layers.size() != layers_.size() ||
      state.h.size() != layers_.size() || state.c.size() != layers_.size()) {
    throw std::invalid_argument("restore_stream_state: layer mismatch");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    LstmBatchCache& cache = sb.layers[li];
    if (s >= cache.h_prev.rows() ||
        state.h[li].size() != cache.h_prev.cols() ||
        state.c[li].size() != cache.c_prev.cols()) {
      throw std::invalid_argument("restore_stream_state: shape mismatch");
    }
    std::copy(state.h[li].begin(), state.h[li].end(),
              cache.h_prev.row(s).data());
    std::copy(state.c[li].begin(), state.c[li].end(),
              cache.c_prev.row(s).data());
  }
}

void StackedLstm::zero_grads() {
  for (auto& l : layers_) l.cell().zero_grads();
}

std::size_t StackedLstm::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.cell().param_count();
  return n;
}

}  // namespace mlad::nn
