#include "nn/sequence_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {

namespace {

/// A fresh params_version() stamp, never handed out before in this process.
std::uint64_t next_params_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Matrix ModelGrads::in_param_layout(std::size_t k) const {
  if (!transposed[k]) return g[k];
  Matrix out;
  transpose(g[k], out);
  return out;
}

void WindowRef::densify(std::vector<std::vector<float>>& out) const {
  out.resize(steps());
  for (std::size_t t = 0; t < steps(); ++t) {
    out[t].assign(inputs->cols, 0.0f);
    const std::size_t r = first + t;
    for (std::uint32_t k = inputs->offsets[r]; k < inputs->offsets[r + 1];
         ++k) {
      out[t][inputs->ids[k]] = 1.0f;
    }
  }
}

SequenceModel::SequenceModel(const SequenceModelConfig& config)
    : config_(config),
      lstm_(config.input_dim, config.hidden_dims),
      softmax_(config.hidden_dims.empty() ? 0 : config.hidden_dims.back(),
               config.num_classes),
      params_version_(next_params_version()) {
  if (config.input_dim == 0 || config.num_classes == 0) {
    throw std::invalid_argument("SequenceModel: zero dimension");
  }
}

void SequenceModel::init_params(Rng& rng) {
  lstm_.init_params(rng);
  softmax_.init_params(rng);
  params_changed();
}

void SequenceModel::params_changed() {
  params_version_ = next_params_version();
}

double SequenceModel::train_fragment(std::span<const std::vector<float>> xs,
                                     std::span<const std::size_t> targets) {
  if (xs.size() != targets.size()) {
    throw std::invalid_argument("train_fragment: xs/targets length mismatch");
  }
  if (xs.empty()) return 0.0;

  StackedLstmCache cache;
  const auto top = lstm_.forward_sequence(xs, cache);

  Matrix softmax_wT;
  transpose(softmax_.w(), softmax_wT);
  double loss = 0.0;
  std::vector<std::vector<float>> dh_top(xs.size());
  std::vector<float> probs;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    softmax_.forward(top[t], softmax_wT, probs);
    dh_top[t].resize(lstm_.output_dim());
    loss += softmax_.backward(top[t], probs, targets[t], dh_top[t]);
  }
  lstm_.backward_sequence(cache, dh_top);
  return loss;
}

ModelGrads SequenceModel::make_grads() const {
  ModelGrads grads;
  for (std::size_t li = 0; li < lstm_.num_layers(); ++li) {
    const LstmCell& cell = lstm_.layer(li).cell();
    // Layer 0's one-hot input makes its weight gradient a row scatter
    // (LstmCell::weight_grads), which writes the transpose.
    const bool t = li == 0;
    grads.g.emplace_back(t ? cell.w().cols() : cell.w().rows(),
                         t ? cell.w().rows() : cell.w().cols());
    grads.transposed.push_back(t);
    grads.g.emplace_back(cell.u().rows(), cell.u().cols());
    grads.g.emplace_back(cell.b().rows(), cell.b().cols());
    grads.transposed.insert(grads.transposed.end(), 2, false);
  }
  grads.g.emplace_back(softmax_.w().rows(), softmax_.w().cols());
  grads.g.emplace_back(softmax_.b().rows(), softmax_.b().cols());
  grads.transposed.insert(grads.transposed.end(), 2, false);
  return grads;
}

void SequenceModel::refresh_transpose_cache(TransposeCache& cache) const {
  cache.wT.resize(lstm_.num_layers());
  cache.uT.resize(lstm_.num_layers());
  for (std::size_t li = 0; li < lstm_.num_layers(); ++li) {
    const LstmCell& cell = lstm_.layer(li).cell();
    transpose(cell.w(), cache.wT[li]);
    transpose(cell.u(), cache.uT[li]);
  }
  transpose(softmax_.w(), cache.softmax_wT);
  cache.version = params_version_;
}

double SequenceModel::train_window_batch(std::span<const WindowRef> windows,
                                         ModelGrads& grads, BatchWorkspace& ws,
                                         ThreadPool* pool,
                                         const TransposeCache* tcache) const {
  if (tcache != nullptr && tcache->version != params_version_) {
    tcache = nullptr;
  }
  const std::size_t slot_count = 3 * lstm_.num_layers() + 2;
  if (grads.g.size() != slot_count) {
    throw std::invalid_argument("train_window_batch: grads shape mismatch");
  }
  for (const WindowRef& w : windows) {
    if (w.inputs == nullptr || w.first > w.inputs->rows() ||
        w.steps() > w.inputs->rows() - w.first) {
      throw std::invalid_argument(
          "train_window_batch: window rows out of range");
    }
    if (w.inputs->cols != config_.input_dim) {
      throw std::invalid_argument("train_window_batch: input dim mismatch");
    }
  }
  // Sort longest-first (stable on index) so the active sequences at any
  // step are a prefix of the batch; ended rows simply drop off the bottom.
  ws.order.resize(windows.size());
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return windows[a].steps() > windows[b].steps();
                   });
  while (!ws.order.empty() && windows[ws.order.back()].steps() == 0) {
    ws.order.pop_back();
  }
  if (ws.order.empty()) return 0.0;
  const std::size_t T = windows[ws.order.front()].steps();

  // Stack every step's rows in forward order: step t holds the step-t
  // input and target of every window still active at t. Each id row is
  // checked as it is copied; the layers do not re-check the stack.
  ws.step_rows.resize(T);
  ws.x.clear(config_.input_dim);
  ws.targets.clear();
  std::size_t active = ws.order.size();
  for (std::size_t t = 0; t < T; ++t) {
    while (active > 0 && windows[ws.order[active - 1]].steps() <= t) --active;
    ws.step_rows[t] = active;
    for (std::size_t r = 0; r < active; ++r) {
      const WindowRef& w = windows[ws.order[r]];
      if (w.targets[t] >= config_.num_classes) {
        throw std::invalid_argument("train_window_batch: target out of range");
      }
      check_one_hot_row(*w.inputs, w.first + t, "train_window_batch");
      ws.x.append_row(*w.inputs, w.first + t);
      ws.targets.push_back(w.targets[t]);
    }
  }

  if (tcache != nullptr) {
    lstm_.forward_sequence_batch(ws.x, ws.step_rows, ws.tape, pool,
                                 tcache->wT, tcache->uT);
  } else {
    lstm_.forward_sequence_batch(ws.x, ws.step_rows, ws.tape, pool);
  }

  // Softmax + fused cross-entropy over the stacked rows of every step;
  // ws.probs becomes dlogits in place (probs - onehot).
  if (tcache == nullptr) transpose(softmax_.w(), ws.softmax_wT);
  const Matrix& softmax_wT =
      tcache != nullptr ? tcache->softmax_wT : ws.softmax_wT;
  Matrix& grad_w_sm = grads.g[slot_count - 2];
  Matrix& grad_b_sm = grads.g[slot_count - 1];
  const Matrix& h = ws.tape.layers.back().h;
  broadcast_rows(softmax_.b(), h.rows(), ws.probs);
  matmul_nn_acc(h, softmax_wT, ws.probs, pool);
  softmax_rows(ws.probs, pool);
  double loss = 0.0;
  for (std::size_t r = 0; r < h.rows(); ++r) {
    const std::size_t target = ws.targets[r];
    const double p = std::max(static_cast<double>(ws.probs(r, target)), 1e-12);
    loss += -std::log(p);
    ws.probs(r, target) -= 1.0f;
  }
  matmul_tn_acc(ws.probs, h, grad_w_sm, pool);
  col_sum_acc(ws.probs, grad_b_sm);
  matmul_nn(ws.probs, softmax_.w(), ws.dh_top, pool);

  lstm_.backward_sequence_batch(ws.x, ws.tape, ws.dh_top,
                                std::span(grads.g).first(slot_count - 2),
                                pool);
  return loss;
}

double SequenceModel::evaluate_fragment(
    std::span<const std::vector<float>> xs,
    std::span<const std::size_t> targets) const {
  if (xs.size() != targets.size()) {
    throw std::invalid_argument("evaluate_fragment: length mismatch");
  }
  double loss = 0.0;
  State state = make_state();
  std::vector<float> probs;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    predict(state, xs[t], probs);
    softmax_inplace(probs);  // predict stops at logits; the loss needs p
    const double p =
        std::max(static_cast<double>(probs.at(targets[t])), 1e-12);
    loss += -std::log(p);
  }
  return loss;
}

std::size_t SequenceModel::top_k_misses(std::span<const std::vector<float>> xs,
                                        std::span<const std::size_t> targets,
                                        std::size_t k) const {
  if (xs.size() != targets.size()) {
    throw std::invalid_argument("top_k_misses: length mismatch");
  }
  std::size_t misses = 0;
  State state = make_state();
  std::vector<float> logits;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    predict(state, xs[t], logits);
    if (!in_top_k(logits, targets[t], k)) ++misses;
  }
  return misses;
}

void SequenceModel::zero_grads() {
  lstm_.zero_grads();
  softmax_.zero_grads();
}

std::vector<ParamSlot> SequenceModel::param_slots() {
  std::vector<ParamSlot> slots;
  for (std::size_t li = 0; li < lstm_.num_layers(); ++li) {
    LstmCell& cell = lstm_.layer(li).cell();
    slots.push_back({&cell.w(), &cell.grad_w()});
    slots.push_back({&cell.u(), &cell.grad_u()});
    slots.push_back({&cell.b(), &cell.grad_b()});
  }
  slots.push_back({&softmax_.w(), &softmax_.grad_w()});
  slots.push_back({&softmax_.b(), &softmax_.grad_b()});
  return slots;
}

SequenceModel::State SequenceModel::make_state() const {
  State s;
  s.lstm = lstm_.make_state();
  return s;
}

void SequenceModel::reset_state(State& state) const {
  for (auto& h : state.lstm.h) std::fill(h.begin(), h.end(), 0.0f);
  for (auto& c : state.lstm.c) std::fill(c.begin(), c.end(), 0.0f);
}

void SequenceModel::predict(State& state, std::span<const float> x,
                            std::vector<float>& logits) const {
  if (state.weights.version != params_version_) {
    refresh_transpose_cache(state.weights);
  }
  const auto top = lstm_.step(x, state.lstm, state.scratch, state.weights.wT,
                              state.weights.uT);
  softmax_.logits(top, state.weights.softmax_wT, logits);
}

SequenceModel::BatchState SequenceModel::make_batch_state(
    std::size_t streams) const {
  BatchState s;
  lstm_.begin_stream_batch(streams, s.lstm);
  transpose(softmax_.w(), s.softmax_wT);
  return s;
}

void SequenceModel::predict_batch(BatchState& state, const OneHotRows& x,
                                  ThreadPool* pool) const {
  if (x.cols != config_.input_dim) {
    throw std::invalid_argument("predict_batch: input dim mismatch");
  }
  const ConstRowsView top = lstm_.step_stream_batch(x, state.lstm, pool);
  // Shaped by the first tick; grow/shrink keep its rows = the stream count.
  const std::size_t streams = state.lstm.layers.front().h_prev.rows();
  if (state.logits.rows() != streams || state.logits.cols() != num_classes()) {
    state.logits.resize(streams, num_classes());
  }
  const RowsView logits = state.logits.block(0, top.rows);
  broadcast_rows(softmax_.b(), logits);
  matmul_nn_acc(top, state.softmax_wT, logits, pool);
}

void SequenceModel::shrink_batch_state(BatchState& state,
                                       std::size_t n) const {
  lstm_.shrink_stream_batch(n, state.lstm);
  // Drop the retired predictions too, so a later grow cannot resurrect a
  // dead stream's stale logit row as a fresh stream's.
  if (state.logits.cols() == num_classes() && n < state.logits.rows()) {
    state.logits.resize_rows(n);
  }
}

void SequenceModel::grow_batch_state(BatchState& state, std::size_t n) const {
  lstm_.grow_stream_batch(n, state.lstm);
  // logits is lazily shaped by the first predict_batch; only carry existing
  // rows forward once it exists (new rows are meaningless until that
  // stream's first tick, which callers gate on their own has-prediction
  // bookkeeping).
  if (state.logits.cols() == num_classes()) state.logits.resize_rows(n);
}

void SequenceModel::swap_batch_streams(BatchState& state, std::size_t a,
                                       std::size_t b) const {
  lstm_.swap_stream_rows(a, b, state.lstm);
  if (state.logits.cols() == num_classes() && a < state.logits.rows() &&
      b < state.logits.rows()) {
    swap_rows(state.logits, a, b);
  }
}

void SequenceModel::refresh_batch_state(BatchState& state) const {
  lstm_.refresh_stream_batch(state.lstm);
  transpose(softmax_.w(), state.softmax_wT);
}

SequenceModel::StreamSnapshot SequenceModel::extract_batch_stream(
    const BatchState& state, std::size_t s) const {
  StreamSnapshot snap;
  lstm_.extract_stream_state(state.lstm, s, snap.lstm);
  if (state.logits.cols() == num_classes() && s < state.logits.rows()) {
    const auto row = state.logits.row(s);
    snap.logits.assign(row.begin(), row.end());
  }
  return snap;
}

void SequenceModel::restore_batch_stream(BatchState& state, std::size_t s,
                                         const StreamSnapshot& snapshot) const {
  lstm_.restore_stream_state(state.lstm, s, snapshot.lstm);
  if (snapshot.logits.empty()) return;
  if (snapshot.logits.size() != num_classes()) {
    throw std::invalid_argument("restore_batch_stream: logits size mismatch");
  }
  // logits is lazily shaped by the first predict_batch; a restore before
  // the batch ever ticked must materialize it so the prediction survives.
  if (state.logits.cols() != num_classes()) {
    state.logits.resize(state.lstm.layers.front().h_prev.rows(),
                        num_classes());
  } else if (s >= state.logits.rows()) {
    state.logits.resize_rows(state.lstm.layers.front().h_prev.rows());
  }
  std::copy(snapshot.logits.begin(), snapshot.logits.end(),
            state.logits.row(s).data());
}

void SequenceModel::copy_params_from(const SequenceModel& other) {
  if (other.config_.input_dim != config_.input_dim ||
      other.config_.num_classes != config_.num_classes ||
      other.config_.hidden_dims != config_.hidden_dims) {
    throw std::invalid_argument("copy_params_from: model shape mismatch");
  }
  const auto copy_matrix = [](const Matrix& from, Matrix& to) {
    std::copy(from.data(), from.data() + from.size(), to.data());
  };
  for (std::size_t li = 0; li < lstm_.num_layers(); ++li) {
    const LstmCell& src = other.lstm_.layer(li).cell();
    LstmCell& dst = lstm_.layer(li).cell();
    copy_matrix(src.w(), dst.w());
    copy_matrix(src.u(), dst.u());
    copy_matrix(src.b(), dst.b());
  }
  copy_matrix(other.softmax_.w(), softmax_.w());
  copy_matrix(other.softmax_.b(), softmax_.b());
  params_changed();
}

std::size_t SequenceModel::param_count() const {
  return lstm_.param_count() + softmax_.param_count();
}

std::size_t SequenceModel::memory_bytes() const {
  return param_count() * sizeof(float) + 64;  // params + small header
}

}  // namespace mlad::nn
