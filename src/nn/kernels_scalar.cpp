// Portable scalar kernel backend — the authoritative reference
// (DESIGN.md §7). These are the pre-backend inner loops moved verbatim:
// identical arithmetic, identical summation order, so a scalar-backend run
// is bit-for-bit the historical result on every platform.
#include <algorithm>
#include <cmath>

#include "nn/kernel_backend.hpp"
#include "nn/kernels_scalar_tail.hpp"

namespace mlad::nn {
namespace {

/// out rows [rb,re) += a·b, i-k-j order with a 4-way k block: the j loop
/// streams b's rows and out's row i with unit stride (vectorizable without
/// float reassociation), and the k blocking quarters the traffic over the
/// out row. Per out element the summation order is a fixed function of K
/// alone — blocks are anchored at k=0, never at a chunk boundary — so
/// results are bit-identical for any row partition. All-zero k-blocks are
/// skipped, which keeps sparse operands cheap.
void nn_rows(const float* a, const float* b, float* out, std::size_t K,
             std::size_t N, std::size_t rb, std::size_t re) {
  const std::size_t K4 = K - K % 4;
  for (std::size_t i = rb; i < re; ++i) {
    const float* a_row = a + i * K;
    float* out_row = out + i * N;
    for (std::size_t k = 0; k < K4; k += 4) {
      const float a0 = a_row[k];
      const float a1 = a_row[k + 1];
      const float a2 = a_row[k + 2];
      const float a3 = a_row[k + 3];
      if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
      const float* b0 = b + k * N;
      const float* b1 = b0 + N;
      const float* b2 = b1 + N;
      const float* b3 = b2 + N;
      for (std::size_t j = 0; j < N; ++j) {
        out_row[j] +=
            (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (std::size_t k = K4; k < K; ++k) {
      const float aik = a_row[k];
      if (aik == 0.0f) continue;
      const float* b_row = b + k * N;
      for (std::size_t j = 0; j < N; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

/// out rows [rb,re) += aᵀ·b. Each worker owns a block of out ROWS
/// (= columns of a); per out element the accumulation order is a fixed
/// function of K (4-way blocks anchored at k=0), so any row partition is
/// bit-identical. The i-k-j order keeps the out row hot; b is the small
/// batch-side operand and stays cached.
void tn_rows(const float* a, const float* b, float* out, std::size_t K,
             std::size_t M, std::size_t N, std::size_t rb, std::size_t re) {
  const std::size_t K4 = K - K % 4;
  for (std::size_t i = rb; i < re; ++i) {
    float* out_row = out + i * N;
    const float* a_col = a + i;
    for (std::size_t k = 0; k < K4; k += 4) {
      const float a0 = a_col[k * M];
      const float a1 = a_col[(k + 1) * M];
      const float a2 = a_col[(k + 2) * M];
      const float a3 = a_col[(k + 3) * M];
      const float* b0 = b + k * N;
      const float* b1 = b0 + N;
      const float* b2 = b1 + N;
      const float* b3 = b2 + N;
      for (std::size_t j = 0; j < N; ++j) {
        out_row[j] +=
            (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
      }
    }
    for (std::size_t k = K4; k < K; ++k) {
      const float aki = a_col[k * M];
      if (aki == 0.0f) continue;
      const float* b_row = b + k * N;
      for (std::size_t j = 0; j < N; ++j) out_row[j] += aki * b_row[j];
    }
  }
}

/// Sparse 0/1 rows × b: per out element one plain add per id, ascending —
/// the definition every backend must match bitwise.
void gather_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                     const float* b, float* out, std::size_t N,
                     std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* out_row = out + r * N;
    for (std::uint32_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const float* b_row = b + std::size_t{ids[k]} * N;
      for (std::size_t j = 0; j < N; ++j) out_row[j] += b_row[j];
    }
  }
}

/// a rows × the 0/1 incidence, transposed: per out element one plain add
/// per contributing row, rows ascending — the definition every backend must
/// match bitwise.
void scatter_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                      const float* a, float* out, std::size_t N,
                      std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const float* a_row = a + r * N;
    for (std::uint32_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      float* out_row = out + std::size_t{ids[k]} * N;
      for (std::size_t j = 0; j < N; ++j) out_row[j] += a_row[j];
    }
  }
}

void gates_forward_rows(const float* a, const float* c_prev, float* i,
                        float* f, float* o, float* g, float* c, float* tanh_c,
                        float* h, std::size_t H, std::size_t rb,
                        std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    detail::scalar_gates_forward_cols(a + r * 4 * H, c_prev + r * H,
                                      i + r * H, f + r * H, o + r * H,
                                      g + r * H, c + r * H, tanh_c + r * H,
                                      h + r * H, H, /*j0=*/0);
  }
}

void gates_backward_rows(const float* i, const float* f, const float* o,
                         const float* g, const float* c_prev,
                         const float* tanh_c, const float* dh,
                         const float* dc_in, float* da, float* dc_prev,
                         std::size_t H, std::size_t carry_rows, std::size_t rb,
                         std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    detail::scalar_gates_backward_cols(
        i + r * H, f + r * H, o + r * H, g + r * H, c_prev + r * H,
        tanh_c + r * H, dh + r * H,
        r < carry_rows ? dc_in + r * H : nullptr, da + r * 4 * H,
        dc_prev + r * H, H, /*j0=*/0);
  }
}

/// The pre-backend softmax_rows loop moved verbatim from kernels.cpp:
/// libm exp, index-order max and sum — the bitwise reference.
void softmax_rows_(float* m, std::size_t C, std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* row = m + r * C;
    float mx = row[0];
    for (std::size_t j = 1; j < C; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < C; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < C; ++j) row[j] *= inv;
  }
}

/// y += x·wT: per output a chain from +0 over the nonzero x[k], ascending,
/// one rounded multiply and one rounded add per term. 64 chains at a time
/// live in a stack block, so the k loop streams one wT row segment each.
MLAD_NO_FP_CONTRACT void gemv_acc(const float* x, const float* wT, float* y,
                                  std::size_t K, std::size_t N) {
  constexpr std::size_t kBlock = 64;
  float acc[kBlock];
  for (std::size_t n0 = 0; n0 < N; n0 += kBlock) {
    const std::size_t nb = std::min(kBlock, N - n0);
    std::fill(acc, acc + nb, 0.0f);
    for (std::size_t k = 0; k < K; ++k) {
      const float xk = x[k];
      if (xk == 0.0f) continue;
      const float* w = wT + k * N + n0;
      for (std::size_t n = 0; n < nb; ++n) {
        const float prod = xk * w[n];
        acc[n] += prod;
      }
    }
    for (std::size_t n = 0; n < nb; ++n) y[n0 + n] += acc[n];
  }
}

MLAD_NO_FP_CONTRACT void adam_update(float* p, float* m, float* v,
                                     const float* grad, float grad_scale,
                                     std::size_t n, const AdamCoeffs& c) {
  for (std::size_t j = 0; j < n; ++j) {
    detail::scalar_adam_element(p[j], m[j], v[j], grad[j], grad_scale, c);
  }
}

}  // namespace

namespace detail {

void scalar_transpose(const float* a, float* out, std::size_t R,
                      std::size_t C) {
  // 16×16 tiles: a tile's 16 source rows and 16 destination rows stay
  // cached, where a plain row loop strides through a whole destination
  // column per source row.
  constexpr std::size_t kTile = 16;
  for (std::size_t i0 = 0; i0 < R; i0 += kTile) {
    const std::size_t i1 = std::min(R, i0 + kTile);
    for (std::size_t j0 = 0; j0 < C; j0 += kTile) {
      const std::size_t j1 = std::min(C, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* a_row = a + i * C;
        float* out_col = out + i;
        for (std::size_t j = j0; j < j1; ++j) out_col[j * R] = a_row[j];
      }
    }
  }
}

void scalar_col_sum_acc(const float* a, float* out, std::size_t R,
                        std::size_t N) {
  for (std::size_t r = 0; r < R; ++r) {
    const float* row = a + r * N;
    for (std::size_t j = 0; j < N; ++j) out[j] += row[j];
  }
}

}  // namespace detail

namespace {

constexpr KernelBackend kScalarBackend = {
    "scalar",            nn_rows,          tn_rows,
    gather_rows_acc,     scatter_rows_acc, gates_forward_rows,
    gates_backward_rows, softmax_rows_,    gemv_acc,
    adam_update,         detail::scalar_transpose,
    detail::scalar_col_sum_acc,
};

}  // namespace

const KernelBackend& scalar_kernel_backend() { return kScalarBackend; }

}  // namespace mlad::nn
