// Shared scalar bodies of the fused LSTM gate kernels and of adam_update,
// included by every backend TU (kernels_scalar.cpp uses them for whole
// rows, the SIMD backends for the ragged tail where the length is not a
// multiple of the vector width). One definition keeps the three backends
// formula-identical, which the per-backend determinism and scalar-parity
// contracts (DESIGN.md §7) depend on. The gate bodies may still round
// differently per INCLUDING TU (an -mfma TU may contract mul+add chains),
// which is fine: each backend only has to agree with itself across
// partitions, and a column's vector-vs-tail classification is a function
// of H alone. The Adam body is exact on every backend and carries
// MLAD_NO_FP_CONTRACT.
//
// Everything here is `static`: with external-linkage inline functions the
// linker would keep ONE comdat copy for the whole binary — possibly the
// one code-generated under -mavx2 -mfma — which would smuggle wide
// instructions into the baseline-safe TUs and let the scalar backend
// execute FMA-contracted math. Internal linkage gives every backend TU
// its own ISA-correct copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "nn/kernel_backend.hpp"

namespace mlad::nn::detail {

/// Scalar replica of the SIMD backends' Cephes-style polynomial exp (same
/// constants, fmaf contraction) — the softmax ragged-tail columns use it so
/// a row's tail stays in the same exp family as its vector lanes. The
/// scalar BACKEND deliberately does not use it: its softmax is the
/// historical libm loop, bit-for-bit.
static inline float scalar_exp_poly(float x) {
  x = std::min(std::max(x, -88.3762626647949f), 88.3762626647949f);
  const float n = std::floor(std::fmaf(x, 1.44269504088896341f, 0.5f));
  x = std::fmaf(n, -0.693359375f, x);
  x = std::fmaf(n, 2.12194440e-4f, x);
  float y = 1.9875691500e-4f;
  y = std::fmaf(y, x, 1.3981999507e-3f);
  y = std::fmaf(y, x, 8.3334519073e-3f);
  y = std::fmaf(y, x, 4.1665795894e-2f);
  y = std::fmaf(y, x, 1.6666665459e-1f);
  y = std::fmaf(y, x, 5.0000001201e-1f);
  y = std::fmaf(y, x * x, x + 1.0f);
  const int pow2n = (static_cast<int>(n) + 0x7f) << 23;
  float scale;
  std::memcpy(&scale, &pow2n, sizeof(scale));
  return y * scale;
}

/// Overflow-free logistic, formula-identical to activations.cpp.
static inline float scalar_sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

static inline float scalar_tanh(float x) { return std::tanh(x); }

/// One row's fused gate forward over columns [j0, H). Pointers address the
/// row (already offset by r*H, `ar` by r*4H).
static inline void scalar_gates_forward_cols(const float* ar, const float* cp,
                                             float* ir, float* fr,
                                             float* orow, float* gr,
                                             float* cr, float* tr, float* hr,
                                             std::size_t H, std::size_t j0) {
  for (std::size_t j = j0; j < H; ++j) {
    ir[j] = scalar_sigmoid(ar[j]);
    fr[j] = scalar_sigmoid(ar[H + j]);
    orow[j] = scalar_sigmoid(ar[2 * H + j]);
    gr[j] = scalar_tanh(ar[3 * H + j]);
    cr[j] = fr[j] * cp[j] + ir[j] * gr[j];
    tr[j] = scalar_tanh(cr[j]);
    hr[j] = orow[j] * tr[j];
  }
}

/// One row's fused gate backward over columns [j0, H). `dci` is null for
/// rows beyond the recurrent carry (ended sequences).
static inline void scalar_gates_backward_cols(
    const float* ir, const float* fr, const float* orow, const float* gr,
    const float* cp, const float* tr, const float* dhr, const float* dci,
    float* dar, float* dcp, std::size_t H, std::size_t j0) {
  for (std::size_t j = j0; j < H; ++j) {
    const float do_out = dhr[j] * tr[j];
    float dc = dhr[j] * orow[j] * (1.0f - tr[j] * tr[j]);
    if (dci != nullptr) dc += dci[j];
    const float di_out = dc * gr[j];
    const float df_out = dc * cp[j];
    const float dg_out = dc * ir[j];
    dcp[j] = dc * fr[j];
    dar[j] = di_out * ir[j] * (1.0f - ir[j]);
    dar[H + j] = df_out * fr[j] * (1.0f - fr[j]);
    dar[2 * H + j] = do_out * orow[j] * (1.0f - orow[j]);
    dar[3 * H + j] = dg_out * (1.0f - gr[j] * gr[j]);
  }
}

/// One element of adam_update (kernel_backend.hpp): the scalar backend's
/// loop body and the SIMD backends' ragged tail. Each product is its own
/// statement and MLAD_NO_FP_CONTRACT keeps GCC from fusing it into the add.
MLAD_NO_FP_CONTRACT static inline void scalar_adam_element(
    float& p, float& m, float& v, float grad, float grad_scale,
    const AdamCoeffs& c) {
  const double g = grad * grad_scale;
  const double m_decay = c.beta1 * m;
  const double m_step = c.one_minus_beta1 * g;
  m = static_cast<float>(m_decay + m_step);
  const double v_decay = c.beta2 * v;
  const double v_step = c.one_minus_beta2 * g * g;
  v = static_cast<float>(v_decay + v_step);
  const double step =
      c.alpha * m / (std::sqrt(static_cast<double>(v)) + c.eps);
  p -= static_cast<float>(step);
}

/// The scalar backend's transpose and col_sum_acc entries. Unlike the
/// bodies above these are declared here and defined once, in
/// kernels_scalar.cpp, so they run as the scalar TU is compiled (baseline
/// x86-64 by default): the AVX2 backend's table points at the same
/// functions (compiled under -mavx2 the tiled transpose ran about 40 %
/// slower).
void scalar_transpose(const float* a, float* out, std::size_t R,
                      std::size_t C);
void scalar_col_sum_acc(const float* a, float* out, std::size_t R,
                        std::size_t N);

}  // namespace mlad::nn::detail
