// NEON kernel backend (DESIGN.md §7): the 4-wide aarch64 mirror of the AVX2
// backend — same loop structure, same summation order per output element
// (vectorized over columns only), fused multiply-add via vfmaq_f32 and the
// same polynomial exp for the gate activations. Compiled empty on non-ARM
// targets; Advanced SIMD is architectural on aarch64 so no per-file flags
// are needed there.
#include "nn/kernel_backend.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels_scalar_tail.hpp"
#include "nn/sigdb_lookup_common.hpp"

namespace mlad::nn {
namespace {

inline float32x4_t exp4(float32x4_t x) {
  const float32x4_t hi = vdupq_n_f32(88.3762626647949f);
  const float32x4_t lo = vdupq_n_f32(-88.3762626647949f);
  const float32x4_t log2e = vdupq_n_f32(1.44269504088896341f);
  const float32x4_t ln2_hi = vdupq_n_f32(0.693359375f);
  const float32x4_t ln2_lo = vdupq_n_f32(-2.12194440e-4f);
  const float32x4_t one = vdupq_n_f32(1.0f);

  x = vmaxq_f32(vminq_f32(x, hi), lo);

  float32x4_t n =
      vrndmq_f32(vfmaq_f32(vdupq_n_f32(0.5f), x, log2e));  // floor
  x = vfmsq_f32(x, n, ln2_hi);
  x = vfmsq_f32(x, n, ln2_lo);

  float32x4_t y = vdupq_n_f32(1.9875691500e-4f);
  y = vfmaq_f32(vdupq_n_f32(1.3981999507e-3f), y, x);
  y = vfmaq_f32(vdupq_n_f32(8.3334519073e-3f), y, x);
  y = vfmaq_f32(vdupq_n_f32(4.1665795894e-2f), y, x);
  y = vfmaq_f32(vdupq_n_f32(1.6666665459e-1f), y, x);
  y = vfmaq_f32(vdupq_n_f32(5.0000001201e-1f), y, x);
  y = vfmaq_f32(vaddq_f32(x, one), y, vmulq_f32(x, x));

  const int32x4_t pow2n =
      vshlq_n_s32(vaddq_s32(vcvtq_s32_f32(n), vdupq_n_s32(0x7f)), 23);
  return vmulq_f32(y, vreinterpretq_f32_s32(pow2n));
}

inline float32x4_t sigmoid4(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t e = exp4(vnegq_f32(vabsq_f32(x)));
  const uint32x4_t nonneg = vcgeq_f32(x, vdupq_n_f32(0.0f));
  const float32x4_t num = vbslq_f32(nonneg, one, e);
  return vdivq_f32(num, vaddq_f32(one, e));
}

inline float32x4_t tanh4(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const uint32x4_t sign =
      vandq_u32(vreinterpretq_u32_f32(x), vdupq_n_u32(0x80000000u));
  const float32x4_t e2 = exp4(vmulq_f32(vabsq_f32(x), vdupq_n_f32(-2.0f)));
  const float32x4_t t = vdivq_f32(vsubq_f32(one, e2), vaddq_f32(one, e2));
  return vreinterpretq_f32_u32(vorrq_u32(vreinterpretq_u32_f32(t), sign));
}

inline void fma4_row(const float* b0, const float* b1, const float* b2,
                     const float* b3, float a0, float a1, float a2, float a3,
                     float* out_row, std::size_t N) {
  const float32x4_t va0 = vdupq_n_f32(a0);
  const float32x4_t va1 = vdupq_n_f32(a1);
  const float32x4_t va2 = vdupq_n_f32(a2);
  const float32x4_t va3 = vdupq_n_f32(a3);
  std::size_t j = 0;
  for (; j + 8 <= N; j += 8) {
    float32x4_t acc0 = vld1q_f32(out_row + j);
    float32x4_t acc1 = vld1q_f32(out_row + j + 4);
    acc0 = vfmaq_f32(acc0, va0, vld1q_f32(b0 + j));
    acc1 = vfmaq_f32(acc1, va0, vld1q_f32(b0 + j + 4));
    acc0 = vfmaq_f32(acc0, va1, vld1q_f32(b1 + j));
    acc1 = vfmaq_f32(acc1, va1, vld1q_f32(b1 + j + 4));
    acc0 = vfmaq_f32(acc0, va2, vld1q_f32(b2 + j));
    acc1 = vfmaq_f32(acc1, va2, vld1q_f32(b2 + j + 4));
    acc0 = vfmaq_f32(acc0, va3, vld1q_f32(b3 + j));
    acc1 = vfmaq_f32(acc1, va3, vld1q_f32(b3 + j + 4));
    vst1q_f32(out_row + j, acc0);
    vst1q_f32(out_row + j + 4, acc1);
  }
  for (; j + 4 <= N; j += 4) {
    float32x4_t acc = vld1q_f32(out_row + j);
    acc = vfmaq_f32(acc, va0, vld1q_f32(b0 + j));
    acc = vfmaq_f32(acc, va1, vld1q_f32(b1 + j));
    acc = vfmaq_f32(acc, va2, vld1q_f32(b2 + j));
    acc = vfmaq_f32(acc, va3, vld1q_f32(b3 + j));
    vst1q_f32(out_row + j, acc);
  }
  for (; j < N; ++j) {
    out_row[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
  }
}

inline void fma1_row(const float* b_row, float aik, float* out_row,
                     std::size_t N) {
  const float32x4_t va = vdupq_n_f32(aik);
  std::size_t j = 0;
  for (; j + 4 <= N; j += 4) {
    vst1q_f32(out_row + j,
              vfmaq_f32(vld1q_f32(out_row + j), va, vld1q_f32(b_row + j)));
  }
  for (; j < N; ++j) out_row[j] += aik * b_row[j];
}

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
      fma4_row(b0, b0 + N, b0 + 2 * N, b0 + 3 * N, a0, a1, a2, a3, out_row,
               N);
    }
    for (std::size_t k = K4; k < K; ++k) {
      const float aik = a_row[k];
      if (aik == 0.0f) continue;
      fma1_row(b + k * N, aik, out_row, N);
    }
  }
}

void tn_rows(const float* a, const float* b, float* out, std::size_t K,
             std::size_t M, std::size_t N, std::size_t rb, std::size_t re) {
  const std::size_t K4 = K - K % 4;
  for (std::size_t i = rb; i < re; ++i) {
    float* out_row = out + i * N;
    const float* a_col = a + i;
    for (std::size_t k = 0; k < K4; k += 4) {
      const float* b0 = b + k * N;
      fma4_row(b0, b0 + N, b0 + 2 * N, b0 + 3 * N, a_col[k * M],
               a_col[(k + 1) * M], a_col[(k + 2) * M], a_col[(k + 3) * M],
               out_row, N);
    }
    for (std::size_t k = K4; k < K; ++k) {
      const float aki = a_col[k * M];
      if (aki == 0.0f) continue;
      fma1_row(b + k * N, aki, out_row, N);
    }
  }
}

/// The gather is plain adds whose bits every backend must share, so NEON
/// forwards to the scalar definition.
void gather_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                     const float* b, float* out, std::size_t N,
                     std::size_t rb, std::size_t re) {
  scalar_kernel_backend().gather_rows_acc(ids, offsets, b, out, N, rb, re);
}

void scatter_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                      const float* a, float* out, std::size_t N,
                      std::size_t rb, std::size_t re) {
  scalar_kernel_backend().scatter_rows_acc(ids, offsets, a, out, N, rb, re);
}

void gates_forward_rows(const float* a, const float* c_prev, float* i,
                        float* f, float* o, float* g, float* c, float* tanh_c,
                        float* h, std::size_t H, std::size_t rb,
                        std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const float* ar = a + r * 4 * H;
    const float* cp = c_prev + r * H;
    float* ir = i + r * H;
    float* fr = f + r * H;
    float* orow = o + r * H;
    float* gr = g + r * H;
    float* cr = c + r * H;
    float* tr = tanh_c + r * H;
    float* hr = h + r * H;
    std::size_t j = 0;
    for (; j + 4 <= H; j += 4) {
      const float32x4_t vi = sigmoid4(vld1q_f32(ar + j));
      const float32x4_t vf = sigmoid4(vld1q_f32(ar + H + j));
      const float32x4_t vo = sigmoid4(vld1q_f32(ar + 2 * H + j));
      const float32x4_t vg = tanh4(vld1q_f32(ar + 3 * H + j));
      const float32x4_t vc =
          vfmaq_f32(vmulq_f32(vi, vg), vf, vld1q_f32(cp + j));
      const float32x4_t vt = tanh4(vc);
      vst1q_f32(ir + j, vi);
      vst1q_f32(fr + j, vf);
      vst1q_f32(orow + j, vo);
      vst1q_f32(gr + j, vg);
      vst1q_f32(cr + j, vc);
      vst1q_f32(tr + j, vt);
      vst1q_f32(hr + j, vmulq_f32(vo, vt));
    }
    detail::scalar_gates_forward_cols(ar, cp, ir, fr, orow, gr, cr, tr, hr,
                                      H, /*j0=*/j);
  }
}

void gates_backward_rows(const float* i, const float* f, const float* o,
                         const float* g, const float* c_prev,
                         const float* tanh_c, const float* dh,
                         const float* dc_in, float* da, float* dc_prev,
                         std::size_t H, std::size_t carry_rows, std::size_t rb,
                         std::size_t re) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  for (std::size_t r = rb; r < re; ++r) {
    const float* ir = i + r * H;
    const float* fr = f + r * H;
    const float* orow = o + r * H;
    const float* gr = g + r * H;
    const float* cp = c_prev + r * H;
    const float* tr = tanh_c + r * H;
    const float* dhr = dh + r * H;
    const float* dci = r < carry_rows ? dc_in + r * H : nullptr;
    float* dar = da + r * 4 * H;
    float* dcp = dc_prev + r * H;
    std::size_t j = 0;
    for (; j + 4 <= H; j += 4) {
      const float32x4_t vdh = vld1q_f32(dhr + j);
      const float32x4_t vt = vld1q_f32(tr + j);
      const float32x4_t vo = vld1q_f32(orow + j);
      const float32x4_t vi = vld1q_f32(ir + j);
      const float32x4_t vf = vld1q_f32(fr + j);
      const float32x4_t vg = vld1q_f32(gr + j);
      const float32x4_t do_out = vmulq_f32(vdh, vt);
      float32x4_t vdc =
          vmulq_f32(vmulq_f32(vdh, vo), vfmsq_f32(one, vt, vt));
      if (dci != nullptr) vdc = vaddq_f32(vdc, vld1q_f32(dci + j));
      vst1q_f32(dcp + j, vmulq_f32(vdc, vf));
      const float32x4_t di_out = vmulq_f32(vdc, vg);
      const float32x4_t df_out = vmulq_f32(vdc, vld1q_f32(cp + j));
      const float32x4_t dg_out = vmulq_f32(vdc, vi);
      vst1q_f32(dar + j,
                vmulq_f32(di_out, vmulq_f32(vi, vsubq_f32(one, vi))));
      vst1q_f32(dar + H + j,
                vmulq_f32(df_out, vmulq_f32(vf, vsubq_f32(one, vf))));
      vst1q_f32(dar + 2 * H + j,
                vmulq_f32(do_out, vmulq_f32(vo, vsubq_f32(one, vo))));
      vst1q_f32(dar + 3 * H + j, vmulq_f32(dg_out, vfmsq_f32(one, vg, vg)));
    }
    detail::scalar_gates_backward_cols(ir, fr, orow, gr, cp, tr, dhr, dci,
                                       dar, dcp, H, /*j0=*/j);
  }
}

// Row-wise softmax mirroring the AVX2 backend: exact vector max, exp4 over
// 4-lane groups with a scalar polynomial tail, lane-grouped sum finished by
// one horizontal add — per row a fixed function of the row content and C.


void softmax_rows_(float* m, std::size_t C, std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* row = m + r * C;
    float mx = row[0];
    std::size_t j = 1;
    if (C >= 5) {
      float32x4_t vmx = vld1q_f32(row);
      for (j = 4; j + 4 <= C; j += 4) {
        vmx = vmaxq_f32(vmx, vld1q_f32(row + j));
      }
      mx = vmaxvq_f32(vmx);
    }
    for (; j < C; ++j) mx = std::max(mx, row[j]);

    const float32x4_t vpivot = vdupq_n_f32(mx);
    float32x4_t vsum = vdupq_n_f32(0.0f);
    for (j = 0; j + 4 <= C; j += 4) {
      const float32x4_t e = exp4(vsubq_f32(vld1q_f32(row + j), vpivot));
      vst1q_f32(row + j, e);
      vsum = vaddq_f32(vsum, e);
    }
    float sum = (vgetq_lane_f32(vsum, 0) + vgetq_lane_f32(vsum, 1)) +
                (vgetq_lane_f32(vsum, 2) + vgetq_lane_f32(vsum, 3));
    for (; j < C; ++j) {
      row[j] = detail::scalar_exp_poly(row[j] - mx);
      sum += row[j];
    }

    const float inv = 1.0f / sum;
    const float32x4_t vinv = vdupq_n_f32(inv);
    for (j = 0; j + 4 <= C; j += 4) {
      vst1q_f32(row + j, vmulq_f32(vld1q_f32(row + j), vinv));
    }
    for (; j < C; ++j) row[j] *= inv;
  }
}

/// NEON has no 64-bit gather, so the Eytzinger walk keeps the shared
/// level-synchronous form — the win there is overlapping cache misses,
/// which needs no vector ISA at all.
void sigdb_lookup_rows_(const std::uint64_t* nodes,
                        const std::uint64_t* node_begin,
                        const std::uint64_t* node_count,
                        const std::uint64_t* keys, std::uint32_t* out_pos,
                        std::size_t qb, std::size_t qe) {
  detail::sigdb_lookup_levelsync(nodes, node_begin, node_count, keys,
                                 out_pos, qb, qe);
}

constexpr KernelBackend kNeonBackend = {
    "neon", nn_rows, tn_rows, gather_rows_acc, scatter_rows_acc,
    gates_forward_rows,
    gates_backward_rows, softmax_rows_, sigdb_lookup_rows_,
};

}  // namespace

const KernelBackend* neon_kernel_backend() { return &kNeonBackend; }

}  // namespace mlad::nn

#else  // !__aarch64__

namespace mlad::nn {
const KernelBackend* neon_kernel_backend() { return nullptr; }
}  // namespace mlad::nn

#endif
