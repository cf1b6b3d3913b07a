#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace mlad::nn {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
}

TEST(Matrix, FromRows) {
  const std::vector<float> v = {1, 2, 3, 4, 5, 6};
  const Matrix m = Matrix::from_rows(2, 3, v);
  EXPECT_FLOAT_EQ(m(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
  EXPECT_THROW(Matrix::from_rows(2, 2, v), std::invalid_argument);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::from_rows(1, 3, std::vector<float>{1, 2, 3});
  const Matrix b = Matrix::from_rows(1, 3, std::vector<float>{4, 5, 6});
  a += b;
  EXPECT_FLOAT_EQ(a(0, 2), 9.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(0, 2), 3.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  a.hadamard(b);
  EXPECT_FLOAT_EQ(a(0, 1), 20.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.hadamard(b), std::invalid_argument);
}

TEST(Matrix, SumAndSumSquares) {
  const Matrix m = Matrix::from_rows(1, 3, std::vector<float>{1, -2, 3});
  EXPECT_DOUBLE_EQ(m.sum(), 2.0);
  EXPECT_DOUBLE_EQ(m.sum_squares(), 14.0);
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a = Matrix::from_rows(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Matrix b = Matrix::from_rows(3, 2, std::vector<float>{7, 8, 9, 10, 11, 12});
  Matrix c;
  matmul(a, b, c);
  // [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matrix, MatmulDimMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  Matrix c;
  EXPECT_THROW(matmul(a, b, c), std::invalid_argument);
}

TEST(Matrix, MatmulTransposedBMatchesExplicit) {
  const Matrix a = Matrix::from_rows(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Matrix bt = Matrix::from_rows(2, 3, std::vector<float>{7, 9, 11, 8, 10, 12});
  Matrix c;
  matmul_transposed_b(a, bt, c);  // a * btᵀ
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matrix, MatmulTransposedAMatchesExplicit) {
  const Matrix at = Matrix::from_rows(3, 2, std::vector<float>{1, 4, 2, 5, 3, 6});
  const Matrix b = Matrix::from_rows(3, 2, std::vector<float>{7, 8, 9, 10, 11, 12});
  Matrix c;
  matmul_transposed_a(at, b, c);  // atᵀ * b
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matrix, GemvAddComputesWxPlusY) {
  const Matrix w = Matrix::from_rows(2, 3, std::vector<float>{1, 0, 2, 0, 1, -1});
  const std::vector<float> x = {3, 4, 5};
  std::vector<float> y = {1, 1};
  gemv_add(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y[1], 1 + 4 - 5);
}

TEST(Matrix, GemvAddSkipsZerosBitwise) {
  // gemv_add computes eight rows' chains side by side and skips exact-zero
  // inputs; every y[i] must still be the one-row dense loop's bits — with
  // zero and -0.0 inputs, -0.0 weights, and row counts around the 8-row
  // block.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const auto value = [&] {
    switch (next() % 6) {
      case 0: return 0.0f;
      case 1: return -0.0f;
      case 2: return 1.0f;
      default: return static_cast<float>(next() % 2001) / 1000.0f - 1.0f;
    }
  };
  for (const std::size_t rows : {1u, 7u, 8u, 9u, 16u, 23u}) {
    for (const std::size_t cols : {1u, 5u, 64u, 111u}) {
      Matrix w(rows, cols);
      for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = value();
      std::vector<float> x(cols);
      for (float& v : x) v = value();
      std::vector<float> y(rows);
      for (float& v : y) v = value();
      std::vector<float> want = y;
      for (std::size_t i = 0; i < rows; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < cols; ++j) acc += w(i, j) * x[j];
        want[i] += acc;
      }
      gemv_add(w, x, y);
      for (std::size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << "rows=" << rows << " cols=" << cols << " i=" << i;
      }
    }
  }
}

TEST(Matrix, GemvTransposedAddIsAdjoint) {
  // Verify <W x, g> == <x, Wᵀ g> (adjoint identity) on a fixed example.
  const Matrix w = Matrix::from_rows(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  const std::vector<float> x = {0.5f, -1.0f, 2.0f};
  const std::vector<float> g = {1.5f, -0.5f};
  std::vector<float> wx = {0, 0};
  gemv_add(w, x, wx);
  std::vector<float> wtg = {0, 0, 0};
  gemv_transposed_add(w, g, wtg);
  float lhs = 0;
  float rhs = 0;
  for (int i = 0; i < 2; ++i) lhs += wx[i] * g[i];
  for (int i = 0; i < 3; ++i) rhs += x[i] * wtg[i];
  EXPECT_NEAR(lhs, rhs, 1e-5f);
}

TEST(Matrix, OuterAddAccumulates) {
  Matrix grad(2, 3, 0.0f);
  const std::vector<float> g = {1, 2};
  const std::vector<float> x = {3, 4, 5};
  outer_add(g, x, grad);
  outer_add(g, x, grad);
  EXPECT_FLOAT_EQ(grad(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(grad(1, 2), 20.0f);
}

TEST(Matrix, RowSpanWritable) {
  Matrix m(2, 2, 0.0f);
  auto row = m.row(1);
  row[0] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 7.0f);
}

}  // namespace
}  // namespace mlad::nn
