#include "nn/rnn.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"
#include "nn/sequence_model.hpp"

namespace mlad::nn {
namespace {

/// Every weight's transpose, built once per train_fragment/top_k_misses.
TransposeCache transposes(std::span<const ElmanCell> layers,
                          const SoftmaxLayer& softmax) {
  TransposeCache t;
  t.wT.resize(layers.size());
  t.uT.resize(layers.size());
  for (std::size_t li = 0; li < layers.size(); ++li) {
    transpose(layers[li].w(), t.wT[li]);
    transpose(layers[li].u(), t.uT[li]);
  }
  transpose(softmax.w(), t.softmax_wT);
  return t;
}

}  // namespace

ElmanCell::ElmanCell(std::size_t input_dim, std::size_t hidden_dim)
    : w_(hidden_dim, input_dim),
      u_(hidden_dim, hidden_dim),
      b_(1, hidden_dim),
      grad_w_(hidden_dim, input_dim),
      grad_u_(hidden_dim, hidden_dim),
      grad_b_(1, hidden_dim) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("ElmanCell: dimensions must be positive");
  }
}

void ElmanCell::init_params(Rng& rng) {
  const float rw = 1.0f / std::sqrt(static_cast<float>(w_.cols()));
  const float ru = 1.0f / std::sqrt(static_cast<float>(u_.cols()));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-rw, rw));
  }
  for (std::size_t i = 0; i < u_.size(); ++i) {
    u_.data()[i] = static_cast<float>(rng.uniform(-ru, ru));
  }
  b_.fill(0.0f);
}

void ElmanCell::forward(std::span<const float> x, std::span<const float> h_prev,
                        const Matrix& wT, const Matrix& uT,
                        StepCache& cache) const {
  if (x.size() != w_.cols() || h_prev.size() != w_.rows()) {
    throw std::invalid_argument("ElmanCell::forward: dim mismatch");
  }
  cache.x.assign(x.begin(), x.end());
  cache.h_prev.assign(h_prev.begin(), h_prev.end());
  cache.h.assign(b_.row(0).begin(), b_.row(0).end());
  gemv_add(wT, x, cache.h);
  gemv_add(uT, h_prev, cache.h);
  for (float& v : cache.h) v = tanh_act(v);
}

void ElmanCell::backward(const StepCache& cache, std::span<const float> dh,
                         std::span<float> dx, std::span<float> dh_prev) {
  const std::size_t h = w_.rows();
  if (dh.size() != h || dx.size() != w_.cols() || dh_prev.size() != h) {
    throw std::invalid_argument("ElmanCell::backward: dim mismatch");
  }
  std::vector<float> da(h);
  for (std::size_t j = 0; j < h; ++j) {
    da[j] = dh[j] * tanh_grad_from_output(cache.h[j]);
  }
  outer_add(da, cache.x, grad_w_);
  outer_add(da, cache.h_prev, grad_u_);
  for (std::size_t j = 0; j < h; ++j) grad_b_(0, j) += da[j];
  std::fill(dx.begin(), dx.end(), 0.0f);
  std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
  gemv_transposed_add(w_, da, dx);
  gemv_transposed_add(u_, da, dh_prev);
}

void ElmanCell::zero_grads() {
  grad_w_.fill(0.0f);
  grad_u_.fill(0.0f);
  grad_b_.fill(0.0f);
}

RnnClassifier::RnnClassifier(std::size_t input_dim, std::size_t num_classes,
                             std::span<const std::size_t> hidden_dims)
    : input_dim_(input_dim),
      softmax_(hidden_dims.empty() ? 0 : hidden_dims.back(), num_classes) {
  if (hidden_dims.empty()) {
    throw std::invalid_argument("RnnClassifier: need at least one layer");
  }
  std::size_t in = input_dim;
  for (std::size_t hd : hidden_dims) {
    layers_.emplace_back(in, hd);
    in = hd;
  }
}

void RnnClassifier::init_params(Rng& rng) {
  for (auto& l : layers_) l.init_params(rng);
  softmax_.init_params(rng);
}

double RnnClassifier::train_fragment(std::span<const std::vector<float>> xs,
                                     std::span<const std::size_t> targets) {
  if (xs.size() != targets.size()) {
    throw std::invalid_argument("RnnClassifier::train_fragment: length mismatch");
  }
  if (xs.empty()) return 0.0;
  const std::size_t steps = xs.size();
  const std::size_t n_layers = layers_.size();

  // Forward with full caches.
  const TransposeCache wt = transposes(layers_, softmax_);
  std::vector<std::vector<ElmanCell::StepCache>> caches(
      n_layers, std::vector<ElmanCell::StepCache>(steps));
  for (std::size_t li = 0; li < n_layers; ++li) {
    std::vector<float> h_prev(layers_[li].hidden_dim(), 0.0f);
    for (std::size_t t = 0; t < steps; ++t) {
      const std::span<const float> in =
          li == 0 ? std::span<const float>(xs[t]) : caches[li - 1][t].h;
      layers_[li].forward(in, h_prev, wt.wT[li], wt.uT[li], caches[li][t]);
      h_prev = caches[li][t].h;
    }
  }

  // Softmax head + loss.
  double loss = 0.0;
  std::vector<std::vector<float>> dh_top(steps);
  std::vector<float> probs;
  for (std::size_t t = 0; t < steps; ++t) {
    softmax_.forward(caches[n_layers - 1][t].h, wt.softmax_wT, probs);
    dh_top[t].resize(layers_.back().hidden_dim());
    loss += softmax_.backward(caches[n_layers - 1][t].h, probs, targets[t],
                              dh_top[t]);
  }

  // BPTT, top layer down.
  std::vector<std::vector<float>> dh(dh_top);
  for (std::size_t li = n_layers; li-- > 0;) {
    std::vector<std::vector<float>> dx(
        steps, std::vector<float>(layers_[li].input_dim(), 0.0f));
    std::vector<float> dh_next(layers_[li].hidden_dim(), 0.0f);
    std::vector<float> dh_prev(layers_[li].hidden_dim());
    std::vector<float> dh_total(layers_[li].hidden_dim());
    for (std::size_t t = steps; t-- > 0;) {
      for (std::size_t j = 0; j < dh_total.size(); ++j) {
        dh_total[j] = dh[t][j] + dh_next[j];
      }
      layers_[li].backward(caches[li][t], dh_total, dx[t], dh_prev);
      dh_next = dh_prev;
    }
    dh = std::move(dx);
  }
  return loss;
}

std::size_t RnnClassifier::top_k_misses(std::span<const std::vector<float>> xs,
                                        std::span<const std::size_t> targets,
                                        std::size_t k) const {
  if (xs.size() != targets.size()) {
    throw std::invalid_argument("RnnClassifier::top_k_misses: length mismatch");
  }
  std::size_t misses = 0;
  std::vector<std::vector<float>> h(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    h[li].assign(layers_[li].hidden_dim(), 0.0f);
  }
  const TransposeCache wt = transposes(layers_, softmax_);
  ElmanCell::StepCache scratch;
  std::vector<float> probs;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    std::span<const float> in = xs[t];
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      layers_[li].forward(in, h[li], wt.wT[li], wt.uT[li], scratch);
      h[li] = scratch.h;
      in = h[li];
    }
    softmax_.forward(in, wt.softmax_wT, probs);
    if (!in_top_k(probs, targets[t], k)) ++misses;
  }
  return misses;
}

void RnnClassifier::zero_grads() {
  for (auto& l : layers_) l.zero_grads();
  softmax_.zero_grads();
}

std::vector<ParamSlot> RnnClassifier::param_slots() {
  std::vector<ParamSlot> slots;
  for (auto& l : layers_) {
    slots.push_back({&l.w(), &l.grad_w()});
    slots.push_back({&l.u(), &l.grad_u()});
    slots.push_back({&l.b(), &l.grad_b()});
  }
  slots.push_back({&softmax_.w(), &softmax_.grad_w()});
  slots.push_back({&softmax_.b(), &softmax_.grad_b()});
  return slots;
}

std::size_t RnnClassifier::param_count() const {
  std::size_t n = softmax_.param_count();
  for (const auto& l : layers_) n += l.param_count();
  return n;
}

}  // namespace mlad::nn
