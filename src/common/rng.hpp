// Deterministic random number utilities.
//
// Every stochastic component in the library (simulator, k-means init, LSTM
// weight init, noise augmentation, baselines) draws from an explicitly seeded
// `Rng` so that experiments are bit-reproducible across runs and platforms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace mlad {

/// Thin wrapper around std::mt19937_64 with convenience draws.
///
/// Passed by reference into anything stochastic; never construct ad-hoc
/// unseeded engines inside library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n must be > 0");
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_));
  }

  /// Normal draw: z * stddev + mean for a standard normal z. That is the
  /// arithmetic std::normal_distribution(mean, stddev) does on the same
  /// engine draws, so every stddev > 0 gives its bits; stddev 0 (a quiet
  /// plant) draws too and returns `mean`. A negative or non-finite stddev
  /// throws.
  double normal(double mean = 0.0, double stddev = 1.0) {
    if (!std::isfinite(stddev) || stddev < 0.0) {
      throw std::invalid_argument(
          "Rng::normal: stddev must be finite and >= 0");
    }
    const double z = std::normal_distribution<double>()(engine_);
    return stddev == 0.0 ? mean : z * stddev + mean;
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Draw an index from an (unnormalized) non-negative weight vector.
  std::size_t discrete(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child stream (for parallel or modular use).
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mlad
