// Kernel backend parity + dispatch (DESIGN.md §7): every SIMD backend that
// is compiled in and usable on this host must (a) agree with the scalar
// reference within the documented tolerance on randomized shapes, including
// ragged tails where M, N, K are not multiples of the vector width — and,
// for the FMA backends' matmuls and every backend's layer-0 gather, agree
// bitwise with the per-element definition — (b) be bit-identical across
// thread counts within itself, and (c) be selectable through the
// MLAD_KERNEL_BACKEND environment override.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {
namespace {

/// Restore the env-driven default after a test that fiddles the selection,
/// so tests stay order-independent within this binary.
struct BackendGuard {
  BackendGuard() = default;
  ~BackendGuard() { select_kernel_backend_from_env(); }
};

std::vector<std::string> simd_backends() {
  std::vector<std::string> names;
  for (const std::string& n : available_kernel_backends()) {
    if (n != "scalar") names.push_back(n);
  }
  return names;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double zero_fraction = 0.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.bernoulli(zero_fraction)
                      ? 0.0f
                      : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return m;
}

void expect_close(const Matrix& got, const Matrix& want, double tol,
                  const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    ASSERT_NEAR(g, w, tol * (1.0 + std::abs(w)))
        << what << " at flat index " << i;
  }
}

void expect_bitwise(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

/// Shapes chosen to exercise every tail path: vector-width multiples,
/// ragged K (k-block tail), ragged N (8/4-lane tail), single elements.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {3, 7, 5},    {8, 16, 8},  {17, 33, 9},
    {5, 64, 12}, {33, 48, 31}, {2, 100, 3}, {16, 20, 64},
};

TEST(KernelBackends, ScalarAlwaysAvailable) {
  const auto names = available_kernel_backends();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_TRUE(select_kernel_backend("scalar"));
  EXPECT_STREQ(kernel_backend().name, "scalar");
  BackendGuard restore;
}

TEST(KernelBackends, MatmulParityVsScalar) {
  BackendGuard restore;
  Rng rng(42);
  for (const std::string& name : simd_backends()) {
    for (const Shape& s : kShapes) {
      // One-hot-ish sparsity on `a` exercises the zero-block skip.
      const Matrix a = random_matrix(s.m, s.k, rng, 0.5);
      const Matrix b = random_matrix(s.k, s.n, rng);
      Matrix ref;
      Matrix out;
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_nn(a, b, ref);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_nn(a, b, out);
      expect_close(out, ref, 1e-4,
                   name + " matmul_nn " + std::to_string(s.m) + "x" +
                       std::to_string(s.k) + "x" + std::to_string(s.n));

      // Accumulating variants, seeded with a nonzero output.
      const Matrix seed = random_matrix(s.m, s.n, rng);
      Matrix ref_acc = seed;
      Matrix out_acc = seed;
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_nn_acc(a, b, ref_acc);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_nn_acc(a, b, out_acc);
      expect_close(out_acc, ref_acc, 1e-4, name + " matmul_nn_acc");

      // grad += aᵀ·b: a is K×M here (inner dim = rows).
      const Matrix at = random_matrix(s.k, s.m, rng);
      const Matrix bt = random_matrix(s.k, s.n, rng);
      Matrix ref_tn(s.m, s.n, 0.25f);
      Matrix out_tn(s.m, s.n, 0.25f);
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_tn_acc(at, bt, ref_tn);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_tn_acc(at, bt, out_tn);
      expect_close(out_tn, ref_tn, 1e-4, name + " matmul_tn_acc");
    }
  }
}

/// Per-element ascending-k fused reference: out(i,j) = fma(a(i,k), b(k,j),
/// ·) for k = 0..K-1 — the accumulation every FMA backend promises.
Matrix fma_reference_nn(const Matrix& a, const Matrix& b, Matrix out) {
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t j = 0; j < out.cols(); ++j) {
      float acc = out(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc = std::fmaf(a(i, k), b(k, j), acc);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

/// The same for out += aᵀ·b (a: K×M).
Matrix fma_reference_tn(const Matrix& a, const Matrix& b, Matrix out) {
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t j = 0; j < out.cols(); ++j) {
      float acc = out(i, j);
      for (std::size_t k = 0; k < a.rows(); ++k) {
        acc = std::fmaf(a(k, i), b(k, j), acc);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

std::vector<std::string> fma_backends() {
  std::vector<std::string> names;
  for (const std::string& n : available_kernel_backends()) {
    if (n == "avx2" || n == "avx512") names.push_back(n);
  }
  return names;
}

TEST(KernelBackends, RaggedMatmulMatchesFmaReferenceBitwise) {
  // Every row-group size (1–3 leftover rows, full groups of four) against
  // every column-tail shape: below, at and above one vector, the 32-column
  // tile edge, and the serve model's 350-class output layer.
  BackendGuard restore;
  Rng rng(31);
  const std::size_t widths[] = {1, 15, 16, 17, 31, 33, 350};
  for (const std::string& name : fma_backends()) {
    ASSERT_TRUE(select_kernel_backend(name));
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      for (const std::size_t n : widths) {
        for (const std::size_t k : {5u, 64u}) {
          const std::string what = name + " rows=" + std::to_string(rows) +
                                   " N=" + std::to_string(n) +
                                   " K=" + std::to_string(k);
          const Matrix a = random_matrix(rows, k, rng, 0.3);
          const Matrix b = random_matrix(k, n, rng);
          const Matrix seed = random_matrix(rows, n, rng);
          Matrix out = seed;
          matmul_nn_acc(a, b, out);
          expect_bitwise(out, fma_reference_nn(a, b, seed),
                         what + " matmul_nn_acc");

          const Matrix at = random_matrix(k, rows, rng, 0.3);
          Matrix out_tn = seed;
          matmul_tn_acc(at, b, out_tn);
          expect_bitwise(out_tn, fma_reference_tn(at, b, seed),
                         what + " matmul_tn_acc");
        }
      }
    }
  }
}

/// One-hot rows whose ids cross 4-wide k blocks and include the last
/// column; row r drops a few ids so rows differ.
OneHotRows crossing_ids(std::size_t rows, std::size_t cols) {
  const std::uint32_t last = static_cast<std::uint32_t>(cols - 1);
  const std::vector<std::uint32_t> pattern = {0, 3, 4, 5, 9, 12, 17,
                                              50, 63, 64, last - 1, last};
  OneHotRows x;
  x.clear(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if ((i + r) % 3 != 2) x.ids.push_back(pattern[i]);
    }
    x.end_row();
  }
  return x;
}

Matrix dense_of(const OneHotRows& x) {
  Matrix m(x.rows(), x.cols);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::uint32_t k = x.offsets[r]; k < x.offsets[r + 1]; ++k) {
      m(r, x.ids[k]) = 1.0f;
    }
  }
  return m;
}

TEST(KernelBackends, GatherIsBitwiseEqualOnEveryBackend) {
  // The layer-0 gather does plain adds, so every backend must reproduce the
  // scalar bits; on the FMA backends it must also equal the dense every-k
  // product of the same 0/1 matrix (fma(1,w,acc) = acc+w, fma(0,w,acc) =
  // acc), which is what keeps serve verdicts where they were.
  BackendGuard restore;
  Rng rng(37);
  const std::vector<std::string> fma = fma_backends();
  for (const std::size_t n : {5u, 16u, 37u, 256u, 350u}) {
    for (const std::size_t rows : {1u, 3u, 8u, 9u}) {
      const OneHotRows x = crossing_ids(rows, 110);
      const Matrix b = random_matrix(110, n, rng);
      const Matrix seed = random_matrix(rows, n, rng);
      ASSERT_TRUE(select_kernel_backend("scalar"));
      Matrix want = seed;
      gather_rows_acc(x, b, want);
      for (const std::string& name : available_kernel_backends()) {
        const std::string what = name + " N=" + std::to_string(n) +
                                 " rows=" + std::to_string(rows);
        ASSERT_TRUE(select_kernel_backend(name));
        Matrix got = seed;
        gather_rows_acc(x, b, got);
        expect_bitwise(got, want, what + " gather vs scalar");
        if (std::find(fma.begin(), fma.end(), name) != fma.end()) {
          Matrix dense = seed;
          matmul_nn_acc(dense_of(x), b, dense);
          expect_bitwise(got, dense, what + " gather vs dense one-hot");
        }
      }
    }
  }
}

TEST(KernelBackends, GatherRejectsMalformedRows) {
  const Matrix b(4, 3);
  Matrix out(1, 3);
  OneHotRows x;
  x.clear(4);
  x.ids = {2, 1};  // not ascending
  x.end_row();
  EXPECT_THROW(gather_rows_acc(x, b, out), std::invalid_argument);
  x.clear(4);
  x.ids = {4};  // out of range
  x.end_row();
  EXPECT_THROW(gather_rows_acc(x, b, out), std::invalid_argument);
  x.clear(3);  // width disagrees with b
  x.end_row();
  EXPECT_THROW(gather_rows_acc(x, b, out), std::invalid_argument);
}

/// The scatter's per-element definition: out(id, j) = seed(id, j) plus
/// a(r, j) for every row r holding id, rows ascending, one plain add each.
Matrix scatter_reference(const OneHotRows& x, const Matrix& a,
                         const Matrix& seed) {
  Matrix out = seed;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::uint32_t k = x.offsets[r]; k < x.offsets[r + 1]; ++k) {
      for (std::size_t j = 0; j < a.cols(); ++j) out(x.ids[k], j) += a(r, j);
    }
  }
  return out;
}

TEST(KernelBackends, ScatterIsBitwiseEqualOnEveryBackend) {
  // The layer-0 weight gradient: plain adds, so every backend must give the
  // per-element definition's bits; on the FMA backends they must also be
  // the dense product dAᵀ·X it replaces in training, transposed (fma(a,1,
  // acc) = acc+a, fma(a,0,acc) = acc), which keeps trained models where
  // they were.
  BackendGuard restore;
  Rng rng(41);
  const std::vector<std::string> fma = fma_backends();
  for (const std::size_t n : {5u, 16u, 37u, 64u, 256u}) {
    for (const std::size_t rows : {1u, 3u, 8u, 9u, 40u}) {
      const OneHotRows x = crossing_ids(rows, 110);
      const Matrix a = random_matrix(rows, n, rng, 0.2);
      for (const bool zero_seed : {true, false}) {
        const Matrix seed =
            zero_seed ? Matrix(110, n) : random_matrix(110, n, rng);
        const Matrix want = scatter_reference(x, a, seed);
        for (const std::string& name : available_kernel_backends()) {
          const std::string what = name + " N=" + std::to_string(n) +
                                   " rows=" + std::to_string(rows);
          ASSERT_TRUE(select_kernel_backend(name));
          Matrix got = seed;
          scatter_rows_acc(x, a, got);
          expect_bitwise(got, want, what + " scatter vs definition");
          if (std::find(fma.begin(), fma.end(), name) != fma.end()) {
            Matrix dense;
            transpose(seed, dense);
            matmul_tn_acc(a, dense_of(x), dense);
            Matrix dense_t;
            transpose(dense, dense_t);
            expect_bitwise(got, dense_t, what + " scatter vs dense dAᵀX");
          }
        }
      }
    }
  }
}

TEST(KernelBackends, ScatterRejectsMalformedRows) {
  const Matrix a(1, 3);
  Matrix out(4, 3);
  OneHotRows x;
  x.clear(4);
  x.ids = {2, 1};  // not ascending
  x.end_row();
  EXPECT_THROW(scatter_rows_acc(x, a, out), std::invalid_argument);
  x.clear(4);
  x.ids = {1, 1};  // repeated
  x.end_row();
  EXPECT_THROW(scatter_rows_acc(x, a, out), std::invalid_argument);
  x.clear(4);
  x.ids = {4};  // out of range
  x.end_row();
  EXPECT_THROW(scatter_rows_acc(x, a, out), std::invalid_argument);
  x.clear(3);  // width disagrees with out
  x.end_row();
  EXPECT_THROW(scatter_rows_acc(x, a, out), std::invalid_argument);
  x.clear(4);  // two rows against one row of a
  x.end_row();
  x.end_row();
  EXPECT_THROW(scatter_rows_acc(x, a, out), std::invalid_argument);
}

TEST(KernelBackends, StackedProductsEqualPerStepCallsBitwise) {
  // Whole-window BPTT (DESIGN.md §4) runs one product over the stacked
  // rows of every step where the per-step loop ran one per step. The
  // gradient product matmul_tn_acc sums over rows, so it must be bitwise
  // the sequence of per-block calls on the FMA backends (ascending k, one
  // FMA per k, the accumulator stored between calls); the row-independent
  // matmul_nn_acc must be on every backend.
  BackendGuard restore;
  Rng rng(43);
  const std::size_t blocks[] = {8, 8, 7, 5, 5, 2, 1, 1};  // B_t, sorted
  std::size_t total = 0;
  for (std::size_t b : blocks) total += b;
  for (const std::size_t m : {3u, 16u, 64u}) {
    for (const std::size_t n : {7u, 64u, 111u}) {
      const Matrix a = random_matrix(total, m, rng, 0.1);
      const Matrix b = random_matrix(total, n, rng, 0.1);
      const Matrix w = random_matrix(n, m, rng);
      const Matrix seed_tn = random_matrix(m, n, rng);
      const Matrix seed_nn = random_matrix(total, m, rng);
      for (const std::string& name : available_kernel_backends()) {
        const std::string what =
            name + " M=" + std::to_string(m) + " N=" + std::to_string(n);
        ASSERT_TRUE(select_kernel_backend(name));
        Matrix stepwise_tn = seed_tn;
        Matrix stepwise_nn = seed_nn;
        std::size_t at = 0;
        for (std::size_t rows : blocks) {
          matmul_tn_acc(a.block(at, rows), b.block(at, rows), stepwise_tn);
          matmul_nn_acc(b.block(at, rows), w, stepwise_nn.block(at, rows));
          at += rows;
        }
        Matrix stacked_nn = seed_nn;
        matmul_nn_acc(b, w, stacked_nn);
        expect_bitwise(stacked_nn, stepwise_nn, what + " stacked matmul_nn");
        if (name == "avx2" || name == "avx512") {
          Matrix stacked_tn = seed_tn;
          matmul_tn_acc(a, b, stacked_tn);
          expect_bitwise(stacked_tn, stepwise_tn,
                         what + " stacked matmul_tn");
        }
      }
    }
  }
}

TEST(KernelBackends, TiledTransposeIsExact) {
  Rng rng(47);
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 40}, {17, 33}, {16, 16}, {256, 111}, {5, 300}}) {
    const Matrix a = random_matrix(rows, cols, rng);
    Matrix t;
    transpose(a, t);
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    Matrix sum = random_matrix(cols, rows, rng);
    const Matrix before = sum;
    add_transposed(a, sum);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(t(j, i), a(i, j));
        ASSERT_EQ(sum(j, i), before(j, i) + a(i, j));
      }
    }
  }
  Matrix wrong(3, 3);
  EXPECT_THROW(add_transposed(Matrix(2, 3), wrong), std::invalid_argument);
}

TEST(KernelBackends, LstmGateParityVsScalar) {
  BackendGuard restore;
  Rng rng(7);
  const std::size_t batches[] = {1, 3, 8};
  const std::size_t hiddens[] = {1, 8, 12, 31, 64};
  for (const std::string& name : simd_backends()) {
    for (std::size_t B : batches) {
      for (std::size_t H : hiddens) {
        const Matrix a = random_matrix(B, 4 * H, rng);
        const Matrix c_prev = random_matrix(B, H, rng);
        Matrix ri, rf, ro, rg, rc, rt, rh;
        Matrix oi, of, oo, og, oc, ot, oh;
        ASSERT_TRUE(select_kernel_backend("scalar"));
        lstm_gates_forward(a, c_prev, ri, rf, ro, rg, rc, rt, rh);
        ASSERT_TRUE(select_kernel_backend(name));
        lstm_gates_forward(a, c_prev, oi, of, oo, og, oc, ot, oh);
        const std::string what =
            name + " gates B=" + std::to_string(B) + " H=" + std::to_string(H);
        expect_close(oi, ri, 1e-5, what + " i");
        expect_close(of, rf, 1e-5, what + " f");
        expect_close(oo, ro, 1e-5, what + " o");
        expect_close(og, rg, 1e-5, what + " g");
        expect_close(oc, rc, 1e-5, what + " c");
        expect_close(ot, rt, 1e-5, what + " tanh_c");
        expect_close(oh, rh, 1e-5, what + " h");

        // Backward over the scalar forward's caches (shared inputs so only
        // the backward kernel is under test); carry covers a strict subset
        // of rows to exercise the ended-sequence path.
        const Matrix dh = random_matrix(B, H, rng);
        const Matrix dc_in = random_matrix(B > 1 ? B - 1 : 0, H, rng);
        Matrix rda(B, 4 * H), rdc, oda(B, 4 * H), odc;
        ASSERT_TRUE(select_kernel_backend("scalar"));
        lstm_gates_backward(ri, rf, ro, rg, c_prev, rt, dh, dc_in, rda, rdc);
        ASSERT_TRUE(select_kernel_backend(name));
        lstm_gates_backward(ri, rf, ro, rg, c_prev, rt, dh, dc_in, oda, odc);
        expect_close(oda, rda, 1e-5, what + " da");
        expect_close(odc, rdc, 1e-5, what + " dc_prev");
      }
    }
  }
}

/// The pre-backend softmax_rows loop (libm exp, index order) — the scalar
/// backend must reproduce it bit-for-bit.
Matrix reference_softmax(const Matrix& logits) {
  Matrix m = logits;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.data() + r * m.cols();
    float mx = row[0];
    for (std::size_t j = 1; j < m.cols(); ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] *= inv;
  }
  return m;
}

TEST(KernelBackends, SoftmaxScalarIsBitIdenticalToReference) {
  BackendGuard restore;
  Rng rng(11);
  ASSERT_TRUE(select_kernel_backend("scalar"));
  for (const std::size_t C : {1u, 5u, 8u, 9u, 16u, 33u, 100u}) {
    const Matrix logits = random_matrix(7, C, rng);
    const Matrix want = reference_softmax(logits);
    Matrix got = logits;
    softmax_rows(got);
    expect_bitwise(got, want, "scalar softmax C=" + std::to_string(C));
  }
}

TEST(KernelBackends, SoftmaxParityVsScalar) {
  BackendGuard restore;
  Rng rng(12);
  for (const std::string& name : simd_backends()) {
    // Ragged widths exercise the vector/tail split; ±20 logits exercise the
    // polynomial exp's range reduction.
    for (const std::size_t C : {1u, 5u, 8u, 9u, 16u, 33u, 100u}) {
      Matrix logits = random_matrix(9, C, rng);
      for (std::size_t i = 0; i < logits.size(); ++i) {
        logits.data()[i] *= 10.0f;
      }
      const Matrix want = reference_softmax(logits);
      Matrix got = logits;
      ASSERT_TRUE(select_kernel_backend(name));
      softmax_rows(got);
      expect_close(got, want, 1e-5,
                   name + " softmax C=" + std::to_string(C));
      for (std::size_t r = 0; r < got.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t j = 0; j < C; ++j) sum += got(r, j);
        EXPECT_NEAR(sum, 1.0, 1e-4) << name << " row " << r;
      }
    }
  }
}

TEST(KernelBackends, SoftmaxRowBitsIndependentOfBatch) {
  // The serve engine's bitwise multi-link guarantee rests on this: a row's
  // softmax (and matmul) bits depend on that row and the shared operands
  // alone, never on how many other rows share the batch.
  BackendGuard restore;
  Rng rng(13);
  for (const std::string& name : available_kernel_backends()) {
    ASSERT_TRUE(select_kernel_backend(name));
    const Matrix big = random_matrix(8, 37, rng);
    Matrix big_sm = big;
    softmax_rows(big_sm);
    for (std::size_t r = 0; r < big.rows(); ++r) {
      Matrix one(1, big.cols());
      std::copy(big.data() + r * big.cols(),
                big.data() + (r + 1) * big.cols(), one.data());
      softmax_rows(one);
      for (std::size_t j = 0; j < big.cols(); ++j) {
        ASSERT_EQ(one(0, j), big_sm(r, j))
            << name << " row " << r << " col " << j;
      }
    }

    const Matrix b = random_matrix(37, 19, rng);
    Matrix big_mm, one_mm;
    matmul_nn(big, b, big_mm);
    for (std::size_t r = 0; r < big.rows(); ++r) {
      Matrix one(1, big.cols());
      std::copy(big.data() + r * big.cols(),
                big.data() + (r + 1) * big.cols(), one.data());
      matmul_nn(one, b, one_mm);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        ASSERT_EQ(one_mm(0, j), big_mm(r, j))
            << name << " matmul row " << r << " col " << j;
      }
    }
  }
}

TEST(KernelBackends, BitIdenticalAcrossThreadCountsPerBackend) {
  BackendGuard restore;
  Rng rng(123);
  ThreadPool pool(4);
  for (const std::string& name : available_kernel_backends()) {
    ASSERT_TRUE(select_kernel_backend(name));
    const Matrix a = random_matrix(33, 50, rng, 0.3);
    const Matrix b = random_matrix(50, 23, rng);
    Matrix serial, threaded;
    matmul_nn(a, b, serial, nullptr);
    matmul_nn(a, b, threaded, &pool);
    expect_bitwise(serial, threaded, name + " matmul_nn thread invariance");

    const OneHotRows x = crossing_ids(33, 110);
    const Matrix gb = random_matrix(110, 23, rng);
    Matrix gather_serial(33, 23), gather_threaded(33, 23);
    gather_rows_acc(x, gb, gather_serial, nullptr);
    gather_rows_acc(x, gb, gather_threaded, &pool);
    expect_bitwise(gather_serial, gather_threaded,
                   name + " gather thread invariance");

    const Matrix ga = random_matrix(17, 4 * 31, rng);
    const Matrix gc = random_matrix(17, 31, rng);
    Matrix i1, f1, o1, g1, c1, t1, h1;
    Matrix i2, f2, o2, g2, c2, t2, h2;
    lstm_gates_forward(ga, gc, i1, f1, o1, g1, c1, t1, h1, nullptr);
    lstm_gates_forward(ga, gc, i2, f2, o2, g2, c2, t2, h2, &pool);
    expect_bitwise(h1, h2, name + " gates thread invariance");
    expect_bitwise(c1, c2, name + " cell thread invariance");

    const Matrix logits = random_matrix(29, 41, rng);
    Matrix sm_serial = logits;
    Matrix sm_threaded = logits;
    softmax_rows(sm_serial, nullptr);
    softmax_rows(sm_threaded, &pool);
    expect_bitwise(sm_serial, sm_threaded,
                   name + " softmax thread invariance");
  }
}

TEST(KernelBackends, EnvVarOverridesDispatch) {
  BackendGuard restore;
  ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", "scalar", 1));
  select_kernel_backend_from_env();
  EXPECT_STREQ(kernel_backend().name, "scalar");

  for (const std::string& name : simd_backends()) {
    ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", name.c_str(), 1));
    select_kernel_backend_from_env();
    EXPECT_EQ(name, kernel_backend().name);
  }

  // Unknown values fall back to the best usable backend (never crash).
  ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", "definitely-not-a-backend", 1));
  select_kernel_backend_from_env();
  const auto names = available_kernel_backends();
  EXPECT_EQ(names.back(), kernel_backend().name);

  ASSERT_EQ(0, unsetenv("MLAD_KERNEL_BACKEND"));
  select_kernel_backend_from_env();
  EXPECT_EQ(names.back(), kernel_backend().name);
}

TEST(KernelBackends, Avx512DispatchMatchesCpuid) {
  // The avx512 backend must be listed (and selectable) exactly when the
  // host has F+BW+VL with the OS saving ZMM/opmask state — the parity and
  // invariance tests above then cover it via available_kernel_backends().
  BackendGuard restore;
  const CpuFeatures& f = cpu_features();
  const bool usable = f.avx512f && f.avx512bw && f.avx512vl;
  const auto names = available_kernel_backends();
  const bool listed =
      std::find(names.begin(), names.end(), "avx512") != names.end();
  EXPECT_EQ(usable, listed);
  if (!usable) {
    EXPECT_FALSE(select_kernel_backend("avx512"));
    GTEST_SKIP() << "AVX-512 F/BW/VL not usable on this host";
  }
  EXPECT_TRUE(select_kernel_backend("avx512"));
  EXPECT_STREQ(kernel_backend().name, "avx512");
}

TEST(KernelBackends, SelectUnknownBackendFails) {
  BackendGuard restore;
  ASSERT_TRUE(select_kernel_backend("scalar"));
  EXPECT_FALSE(select_kernel_backend("bogus"));
  EXPECT_STREQ(kernel_backend().name, "scalar");  // unchanged on failure
}

TEST(KernelBackends, FeatureSummaryIsNonEmpty) {
  EXPECT_FALSE(cpu_feature_summary().empty());
}

}  // namespace
}  // namespace mlad::nn
