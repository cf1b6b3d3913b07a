#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"

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

void SoftmaxLayer::logits(std::span<const float> h, const Matrix& wT,
                          std::vector<float>& out) const {
  if (h.size() != w_.cols()) {
    throw std::invalid_argument("SoftmaxLayer::logits: dim mismatch");
  }
  out.assign(b_.row(0).begin(), b_.row(0).end());
  gemv_add(wT, h, out);
}

void SoftmaxLayer::forward(std::span<const float> h, const Matrix& wT,
                           std::vector<float>& probs) const {
  logits(h, wT, probs);
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
  if (k >= scores.size()) return !std::isnan(scores[target]);
  return top_k_rank(scores, target, k) < k;
}

namespace {

/// Number of p[0..n) satisfying `pred`. The 32-bit lane counters vectorize
/// twice as wide as size_t ones; chunking keeps them from wrapping.
template <typename Pred>
std::size_t count_where(const float* p, std::size_t n, const Pred& pred) {
  constexpr std::size_t kChunk = std::size_t{1} << 31;
  std::size_t total = 0;
  for (std::size_t b = 0; b < n; b += kChunk) {
    const std::size_t e = std::min(n, b + kChunk);
    std::uint32_t count = 0;
    for (std::size_t i = b; i < e; ++i) count += pred(p[i]) ? 1u : 0u;
    total += count;
  }
  return total;
}

}  // namespace

std::size_t top_k_rank(std::span<const float> scores, std::size_t target,
                       std::size_t cap) {
  const float st = scores[target];
  // Every comparison with a NaN target is false, so it would rank 0 — a
  // hit at every k. It ranks as a miss instead.
  if (std::isnan(st)) return cap;
  // A full count with no early exit, so both loops vectorize: ties (and
  // -0 == +0) count only before `target`, and a NaN on either side of a
  // comparison never counts. Capping afterwards returns exactly what a loop
  // stopping at `cap` would.
  const std::size_t better =
      count_where(scores.data(), target, [st](float v) { return v >= st; }) +
      count_where(scores.data() + target + 1, scores.size() - target - 1,
                  [st](float v) { return v > st; });
  return std::min(better, cap);
}

TopKErrorCurve::TopKErrorCurve(std::size_t max_k)
    : rank_count_(max_k + 1, 0) {}

void TopKErrorCurve::add(std::span<const float> scores, std::size_t target) {
  const std::size_t cap = max_k();
  ++rank_count_[target < scores.size() ? top_k_rank(scores, target, cap)
                                       : cap];
  ++total_;
}

std::size_t TopKErrorCurve::misses(std::size_t k) const {
  if (k > max_k()) throw std::out_of_range("TopKErrorCurve: k beyond max_k");
  std::size_t misses = 0;
  for (std::size_t r = k; r < rank_count_.size(); ++r) misses += rank_count_[r];
  return misses;
}

double TopKErrorCurve::error(std::size_t k) const {
  const std::size_t miss = misses(k);
  if (total_ == 0) return 0.0;
  return static_cast<double>(miss) / static_cast<double>(total_);
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
