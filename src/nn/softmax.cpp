#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/activations.hpp"

namespace mlad::nn {

SoftmaxLayer::SoftmaxLayer(std::size_t input_dim, std::size_t num_classes)
    : w_(num_classes, input_dim),
      b_(1, num_classes),
      grad_w_(num_classes, input_dim),
      grad_b_(1, num_classes) {
  if (input_dim == 0 || num_classes == 0) {
    throw std::invalid_argument("SoftmaxLayer: dimensions must be positive");
  }
}

void SoftmaxLayer::init_params(Rng& rng) {
  const float r = 1.0f / std::sqrt(static_cast<float>(w_.cols()));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-r, r));
  }
  b_.fill(0.0f);
}

void SoftmaxLayer::logits(std::span<const float> h,
                          std::vector<float>& out) const {
  if (h.size() != w_.cols()) {
    throw std::invalid_argument("SoftmaxLayer::logits: dim mismatch");
  }
  out.assign(b_.row(0).begin(), b_.row(0).end());
  gemv_add(w_, h, out);
}

void SoftmaxLayer::forward(std::span<const float> h,
                           std::vector<float>& probs) const {
  logits(h, probs);
  softmax_inplace(probs);
}

double SoftmaxLayer::backward(std::span<const float> h,
                              std::span<const float> probs, std::size_t target,
                              std::span<float> dh) {
  if (target >= w_.rows() || probs.size() != w_.rows() ||
      dh.size() != w_.cols()) {
    throw std::invalid_argument("SoftmaxLayer::backward: dim mismatch");
  }
  // dlogits = probs - onehot(target); fused CE+softmax gradient.
  std::vector<float> dlogits(probs.begin(), probs.end());
  dlogits[target] -= 1.0f;

  outer_add(dlogits, h, grad_w_);
  for (std::size_t j = 0; j < dlogits.size(); ++j) grad_b_(0, j) += dlogits[j];

  std::fill(dh.begin(), dh.end(), 0.0f);
  gemv_transposed_add(w_, dlogits, dh);

  const double p = std::max(static_cast<double>(probs[target]), 1e-12);
  return -std::log(p);
}

void SoftmaxLayer::zero_grads() {
  grad_w_.fill(0.0f);
  grad_b_.fill(0.0f);
}

std::vector<std::size_t> top_k_indices(std::span<const float> scores,
                                       std::size_t k) {
  k = std::min(k, scores.size());
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(k);
  return idx;
}

bool in_top_k(std::span<const float> scores, std::size_t target,
              std::size_t k) {
  if (target >= scores.size() || k == 0) return false;
  if (k >= scores.size()) return true;
  return top_k_rank(scores, target, k) < k;
}

std::size_t top_k_rank(std::span<const float> scores, std::size_t target,
                       std::size_t cap) {
  const float st = scores[target];
  // Count entries strictly greater, and ties ranked before `target`.
  std::size_t better = 0;
  for (std::size_t i = 0; i < scores.size() && better < cap; ++i) {
    if (scores[i] > st || (scores[i] == st && i < target)) ++better;
  }
  return better;
}

TopKErrorCurve::TopKErrorCurve(std::size_t max_k)
    : rank_count_(max_k + 1, 0) {}

void TopKErrorCurve::add(std::span<const float> scores, std::size_t target) {
  const std::size_t cap = max_k();
  ++rank_count_[target < scores.size() ? top_k_rank(scores, target, cap)
                                       : cap];
  ++total_;
}

double TopKErrorCurve::error(std::size_t k) const {
  if (k > max_k()) throw std::out_of_range("TopKErrorCurve: k beyond max_k");
  if (total_ == 0) return 0.0;
  std::size_t misses = 0;
  for (std::size_t r = k; r < rank_count_.size(); ++r) misses += rank_count_[r];
  return static_cast<double>(misses) / static_cast<double>(total_);
}

std::vector<double> TopKErrorCurve::errors() const {
  std::vector<double> curve;
  for (std::size_t k = 1; k <= max_k(); ++k) curve.push_back(error(k));
  return curve;
}

std::size_t TopKErrorCurve::choose_k(double theta) const {
  for (std::size_t k = 1; k <= max_k(); ++k) {
    if (error(k) < theta) return k;
  }
  return max_k();
}

}  // namespace mlad::nn
