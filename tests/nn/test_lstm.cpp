#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm_cell.hpp"
#include "nn/stacked_lstm.hpp"

namespace mlad::nn {
namespace {

std::vector<std::vector<float>> random_sequence(Rng& rng, std::size_t steps,
                                                std::size_t dim) {
  std::vector<std::vector<float>> xs(steps, std::vector<float>(dim));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return xs;
}

TEST(LstmCell, RejectsZeroDims) {
  EXPECT_THROW(LstmCell(0, 4), std::invalid_argument);
  EXPECT_THROW(LstmCell(4, 0), std::invalid_argument);
}

TEST(LstmCell, ForgetBiasInitializedToOne) {
  Rng rng(3);
  LstmCell cell(2, 3);
  cell.init_params(rng);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(cell.b()(0, 3 + j), 1.0f);  // [i,f,o,g] blocks of 3
  }
}

/// One step over freshly transposed weights.
void cell_forward(const LstmCell& cell, std::span<const float> x,
                  std::span<const float> h, std::span<const float> c,
                  LstmStepCache& cache) {
  Matrix wT, uT;
  transpose(cell.w(), wT);
  transpose(cell.u(), uT);
  cell.forward(x, h, c, wT, uT, cache);
}

TEST(LstmCell, OutputsBounded) {
  Rng rng(5);
  LstmCell cell(3, 4);
  cell.init_params(rng);
  LstmStepCache cache;
  std::vector<float> h(4, 0.0f);
  std::vector<float> c(4, 0.0f);
  for (int t = 0; t < 50; ++t) {
    std::vector<float> x = {static_cast<float>(rng.uniform(-3, 3)),
                            static_cast<float>(rng.uniform(-3, 3)),
                            static_cast<float>(rng.uniform(-3, 3))};
    cell_forward(cell, x, h, c, cache);
    h = cache.h;
    c = cache.c;
    for (float v : h) {
      EXPECT_LE(std::abs(v), 1.0f);  // |h| = |o ⊙ tanh(c)| ≤ 1
    }
    for (std::size_t j = 0; j < 4; ++j) {
      // Gates in (0,1).
      EXPECT_GT(cache.i[j], 0.0f);
      EXPECT_LT(cache.i[j], 1.0f);
      EXPECT_GT(cache.f[j], 0.0f);
      EXPECT_LT(cache.f[j], 1.0f);
    }
  }
}

TEST(LstmCell, DimMismatchThrows) {
  LstmCell cell(3, 4);
  LstmStepCache cache;
  std::vector<float> x(2), h(4), c(4);
  EXPECT_THROW(cell_forward(cell, x, h, c, cache), std::invalid_argument);
}

TEST(LstmCell, CellStateUpdateEquation) {
  // With all-zero parameters: i=f=o=0.5, g=0 → c = 0.5*c_prev, h = 0.5*tanh(c).
  LstmCell cell(1, 1);
  LstmStepCache cache;
  std::vector<float> x = {1.0f};
  std::vector<float> h0 = {0.0f};
  std::vector<float> c0 = {0.8f};
  cell_forward(cell, x, h0, c0, cache);
  EXPECT_NEAR(cache.c[0], 0.4f, 1e-6f);
  EXPECT_NEAR(cache.h[0], 0.5f * std::tanh(0.4f), 1e-6f);
}

TEST(StackedLstm, RequiresLayers) {
  const std::vector<std::size_t> none;
  EXPECT_THROW(StackedLstm(3, none), std::invalid_argument);
}

TEST(StackedLstm, ShapesChainAcrossLayers) {
  const std::vector<std::size_t> dims = {7, 5, 3};
  StackedLstm stack(4, dims);
  EXPECT_EQ(stack.num_layers(), 3u);
  EXPECT_EQ(stack.layer(0).input_dim(), 4u);
  EXPECT_EQ(stack.layer(1).input_dim(), 7u);
  EXPECT_EQ(stack.layer(2).input_dim(), 5u);
  EXPECT_EQ(stack.output_dim(), 3u);
}

TEST(StackedLstm, StreamingMatchesSequence) {
  Rng rng(15);
  const std::vector<std::size_t> dims = {6, 4};
  StackedLstm stack(3, dims);
  stack.init_params(rng);
  const auto xs = random_sequence(rng, 10, 3);

  StackedLstmCache cache;
  const auto seq_out = stack.forward_sequence(xs, cache);

  StackedLstmState state = stack.make_state();
  LstmStepCache scratch;
  std::vector<Matrix> wT(dims.size()), uT(dims.size());
  for (std::size_t li = 0; li < dims.size(); ++li) {
    transpose(stack.layer(li).cell().w(), wT[li]);
    transpose(stack.layer(li).cell().u(), uT[li]);
  }
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const auto h = stack.step(xs[t], state, scratch, wT, uT);
    for (std::size_t j = 0; j < h.size(); ++j) {
      EXPECT_NEAR(h[j], seq_out[t][j], 1e-6f);
    }
  }
}

TEST(StackedLstm, ParamCountFormula) {
  const std::vector<std::size_t> dims = {8};
  StackedLstm stack(5, dims);
  // 4H(I + H + 1) = 32 * (5 + 8 + 1)
  EXPECT_EQ(stack.param_count(), 32u * 14u);
}

TEST(StackedLstm, ZeroGradsClearsAccumulation) {
  Rng rng(21);
  const std::vector<std::size_t> dims = {4};
  StackedLstm stack(3, dims);
  stack.init_params(rng);
  const auto xs = random_sequence(rng, 6, 3);
  StackedLstmCache cache;
  const auto out = stack.forward_sequence(xs, cache);
  std::vector<std::vector<float>> dh(out.size(), std::vector<float>(4, 1.0f));
  stack.backward_sequence(cache, dh);
  EXPECT_GT(stack.layer(0).cell().grad_w().sum_squares(), 0.0);
  stack.zero_grads();
  EXPECT_DOUBLE_EQ(stack.layer(0).cell().grad_w().sum_squares(), 0.0);
}

}  // namespace
}  // namespace mlad::nn
