#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"

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
  // gemv_add takes W's transpose; its per-backend bits are pinned in
  // KernelBackends.GemvParityVsScalarLoop.
  const Matrix w = Matrix::from_rows(2, 3, std::vector<float>{1, 0, 2, 0, 1, -1});
  Matrix wT;
  transpose(w, wT);
  const std::vector<float> x = {3, 4, 5};
  std::vector<float> y = {1, 1};
  gemv_add(wT, x, y);
  EXPECT_FLOAT_EQ(y[0], 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y[1], 1 + 4 - 5);
  EXPECT_THROW(gemv_add(w, x, y), std::invalid_argument);
}

TEST(Matrix, GemvTransposedAddIsAdjoint) {
  // Verify <W x, g> == <x, Wᵀ g> (adjoint identity) on a fixed example.
  const Matrix w = Matrix::from_rows(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  const std::vector<float> x = {0.5f, -1.0f, 2.0f};
  const std::vector<float> g = {1.5f, -0.5f};
  Matrix wT;
  transpose(w, wT);
  std::vector<float> wx = {0, 0};
  gemv_add(wT, x, wx);
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

bool line_aligned(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Matrix, StorageStartsOnACacheLine) {
  // Every NN buffer starts on a 64-byte line (DESIGN.md §2) — glibc alone
  // gives 16 bytes, and page + 16 for the large tapes. 512×256 floats is
  // 512 KiB, past the mmap threshold.
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {3, 5}, {1, 350}, {256, 350}, {512, 256}}) {
    Matrix m(rows, cols);
    EXPECT_TRUE(line_aligned(m.data())) << rows << "x" << cols;
    m.resize(rows + 1, cols + 3);
    EXPECT_TRUE(line_aligned(m.data())) << "resize";
    m.resize_rows(4 * rows + 7);  // grows past the capacity: reallocates
    EXPECT_TRUE(line_aligned(m.data())) << "resize_rows growth";
    const Matrix copy = m;
    EXPECT_TRUE(line_aligned(copy.data())) << "copy";
    Matrix assigned(2, 2);
    assigned = copy;
    EXPECT_TRUE(line_aligned(assigned.data())) << "copy assignment";
    const Matrix moved = std::move(m);
    EXPECT_TRUE(line_aligned(moved.data())) << "move";
    const std::vector<float> values(rows * cols, 1.5f);
    EXPECT_TRUE(line_aligned(Matrix::from_rows(rows, cols, values).data()))
        << "from_rows";
  }
}

TEST(Matrix, AdamMomentsStartOnACacheLine) {
  // The moments are LineFloats by type; a fresh state and a restored one
  // both keep that.
  static_assert(
      std::is_same_v<decltype(AdamState::m)::value_type, LineFloats>);
  static_assert(
      std::is_same_v<decltype(AdamState::v)::value_type, LineFloats>);
  Matrix p(37, 11, 0.5f);
  Matrix g(37, 11, 0.25f);
  const ParamSlot slots[] = {{&p, &g}};
  Adam fresh;
  fresh.step(slots);
  const AdamState state = fresh.state();
  ASSERT_EQ(state.m.size(), 1u);
  EXPECT_TRUE(line_aligned(state.m[0].data()));
  EXPECT_TRUE(line_aligned(state.v[0].data()));
  Adam restored;
  restored.restore(state);
  restored.step(slots);
  const AdamState after = restored.state();
  EXPECT_TRUE(line_aligned(after.m[0].data()));
  EXPECT_TRUE(line_aligned(after.v[0].data()));
  EXPECT_EQ(after.t, 2u);
}

TEST(Matrix, SideBySideSumSquaresIsEachBuffersOwn) {
  // The trainer's clip sums every slot's squares with the chains side by
  // side; each result must be that buffer's Matrix::sum_squares bitwise —
  // for any number of buffers, equal or ragged lengths, empty ones too.
  Rng rng(5);
  for (const std::vector<std::size_t>& sizes :
       std::vector<std::vector<std::size_t>>{
           {},
           {7},
           {28416, 16384, 256, 22400, 350},
           {3, 3, 3, 3, 3, 3, 3, 3, 3},
           {0, 100, 0, 1, 4097, 2, 63}}) {
    std::vector<Matrix> bufs;
    for (const std::size_t n : sizes) {
      Matrix m(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        m.data()[i] = static_cast<float>(rng.normal() * 1e3);
      }
      bufs.push_back(std::move(m));
    }
    // The ends of float's range, whose double squares are exact too: a
    // -march=native build fuses Matrix::sum_squares into FMAs and must
    // still agree.
    using lim = std::numeric_limits<float>;
    bufs.push_back(Matrix::from_rows(
        1, 6,
        std::vector<float>{lim::max(), lim::denorm_min(), lim::min(),
                           -3.0e-30f, 1.0f + lim::epsilon(), -lim::max()}));
    std::vector<std::span<const float>> spans;
    for (const Matrix& m : bufs) spans.emplace_back(m.data(), m.size());
    std::vector<double> got(bufs.size(), -1.0);
    sum_squares_side_by_side(spans, got);
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      const double want = bufs[i].sum_squares();
      EXPECT_EQ(0, std::memcmp(&got[i], &want, sizeof(double)))
          << "buffer " << i << " of " << bufs.size();
    }
  }
  std::vector<double> too_few(1);
  const std::vector<std::span<const float>> two(2);
  EXPECT_THROW(sum_squares_side_by_side(two, too_few), std::invalid_argument);
}

TEST(Matrix, RowSpanWritable) {
  Matrix m(2, 2, 0.0f);
  auto row = m.row(1);
  row[0] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 7.0f);
}

}  // namespace
}  // namespace mlad::nn
