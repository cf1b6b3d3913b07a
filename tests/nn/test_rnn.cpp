#include "nn/rnn.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {
namespace {

TEST(ElmanCell, RejectsZeroDims) {
  EXPECT_THROW(ElmanCell(0, 3), std::invalid_argument);
  EXPECT_THROW(ElmanCell(3, 0), std::invalid_argument);
}

/// One step over freshly transposed weights.
void elman_forward(const ElmanCell& cell, std::span<const float> x,
                   std::span<const float> h, ElmanCell::StepCache& cache) {
  Matrix wT, uT;
  transpose(cell.w(), wT);
  transpose(cell.u(), uT);
  cell.forward(x, h, wT, uT, cache);
}

TEST(ElmanCell, OutputBoundedByTanh) {
  Rng rng(1);
  ElmanCell cell(3, 4);
  cell.init_params(rng);
  ElmanCell::StepCache cache;
  std::vector<float> h(4, 0.0f);
  for (int t = 0; t < 20; ++t) {
    std::vector<float> x = {static_cast<float>(rng.uniform(-5, 5)),
                            static_cast<float>(rng.uniform(-5, 5)),
                            static_cast<float>(rng.uniform(-5, 5))};
    elman_forward(cell, x, h, cache);
    h = cache.h;
    for (float v : h) EXPECT_LE(std::abs(v), 1.0f);
  }
}

TEST(ElmanCell, GradientCheck) {
  Rng rng(2);
  ElmanCell cell(3, 4);
  cell.init_params(rng);
  const std::vector<float> x = {0.4f, -0.2f, 0.7f};
  const std::vector<float> h0 = {0.1f, -0.3f, 0.2f, 0.0f};
  const std::vector<float> probe = {1.0f, -0.5f, 0.25f, 0.75f};

  auto loss = [&] {
    ElmanCell::StepCache c;
    elman_forward(cell, x, h0, c);
    double s = 0;
    for (std::size_t i = 0; i < probe.size(); ++i) s += c.h[i] * probe[i];
    return s;
  };

  ElmanCell::StepCache cache;
  elman_forward(cell, x, h0, cache);
  std::vector<float> dx(3);
  std::vector<float> dh_prev(4);
  cell.zero_grads();
  cell.backward(cache, probe, dx, dh_prev);

  const float eps = 1e-2f;
  auto check = [&](Matrix& m, const Matrix& g) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      const float orig = m.data()[i];
      m.data()[i] = orig + eps;
      const double lp = loss();
      m.data()[i] = orig - eps;
      const double lm = loss();
      m.data()[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      if (std::abs(g.data()[i] - numeric) < 1e-4) continue;
      EXPECT_NEAR(g.data()[i], numeric,
                  2e-2 * std::max(std::abs(numeric), 1e-2));
    }
  };
  check(cell.w(), cell.grad_w());
  check(cell.u(), cell.grad_u());
  check(cell.b(), cell.grad_b());
}

TEST(RnnClassifier, LearnsCyclicSequence) {
  const std::vector<std::size_t> hidden = {16};
  RnnClassifier model(5, 5, hidden);
  Rng rng(3);
  model.init_params(rng);

  std::vector<std::vector<float>> xs;
  std::vector<std::size_t> targets;
  for (int t = 0; t < 40; ++t) {
    std::vector<float> x(5, 0.0f);
    x[t % 5] = 1.0f;
    xs.push_back(x);
    targets.push_back((t + 1) % 5);
  }
  Adam opt(1e-2);
  const auto slots = model.param_slots();
  double first = 0;
  double last = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    model.zero_grads();
    const double loss = model.train_fragment(xs, targets) / xs.size();
    if (epoch == 0) first = loss;
    last = loss;
    opt.step(slots, clip_scale(slots, 5.0));
  }
  EXPECT_LT(last, first * 0.3);
  EXPECT_EQ(model.top_k_misses(xs, targets, 1), 0u);
}

TEST(RnnClassifier, StackedShapesAndSlots) {
  const std::vector<std::size_t> hidden = {6, 4};
  RnnClassifier model(3, 7, hidden);
  EXPECT_EQ(model.param_slots().size(), 2u * 3u + 2u);
  std::size_t total = 0;
  for (auto& s : model.param_slots()) total += s.param->size();
  EXPECT_EQ(total, model.param_count());
  EXPECT_EQ(model.num_classes(), 7u);
}

TEST(RnnClassifier, ValidatesInput) {
  const std::vector<std::size_t> none;
  EXPECT_THROW(RnnClassifier(3, 2, none), std::invalid_argument);
  const std::vector<std::size_t> hidden = {4};
  RnnClassifier model(3, 2, hidden);
  std::vector<std::vector<float>> xs = {{1, 0, 0}};
  std::vector<std::size_t> targets = {0, 1};
  EXPECT_THROW(model.train_fragment(xs, targets), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::nn
