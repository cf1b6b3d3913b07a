// AVX2+FMA kernel backend (DESIGN.md §7): 8-wide register-blocked
// micro-kernels for the matmul inner loops and fused LSTM gate kernels with
// a vectorized exponential. This TU is the only one compiled with
// -mavx2 -mfma (per-file CMake flags), so the enclosing binary stays
// baseline-safe: nothing here runs unless the cpuid dispatcher picked it.
//
// Rounding: the j (column) dimension is vectorized, so per output element
// the k-summation ORDER is identical to the scalar backend — only FMA
// contraction and the polynomial exp change the last bits. Row partitioning
// across pool workers therefore stays bit-identical within this backend.
#include "nn/kernel_backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "nn/kernels_scalar_tail.hpp"
#include "nn/sigdb_lookup_common.hpp"

namespace mlad::nn {
namespace {

// ---- vector transcendentals ------------------------------------------------

/// Cephes-style polynomial exp, elementwise over 8 lanes (~1 ulp). Input is
/// clamped to the finite-float exponent range.
inline __m256 exp8(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 ln2_hi = _mm256_set1_ps(0.693359375f);
  const __m256 ln2_lo = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

  // n = floor(x/ln2 + 0.5); reduce x to r = x - n*ln2 (split constant).
  __m256 n = _mm256_floor_ps(
      _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f)));
  x = _mm256_fnmadd_ps(n, ln2_hi, x);
  x = _mm256_fnmadd_ps(n, ln2_lo, x);

  // exp(r) ≈ 1 + r + r²·P(r).
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), _mm256_add_ps(x, one));

  // Scale by 2^n through the exponent bits.
  __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

/// σ(x) = (x ≥ 0 ? 1 : e) / (1 + e) with e = exp(-|x|) — the same
/// overflow-free form as the scalar k_sigmoid.
inline __m256 sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 absx = _mm256_andnot_ps(sign_mask, x);
  const __m256 e = exp8(_mm256_sub_ps(_mm256_setzero_ps(), absx));
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 num = _mm256_blendv_ps(e, one, nonneg);
  return _mm256_div_ps(num, _mm256_add_ps(one, e));
}

/// tanh(x) = sign(x)·(1 − e₂)/(1 + e₂) with e₂ = exp(−2|x|); never
/// overflows and is exact at ±∞-saturation.
inline __m256 tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(sign_mask, x);
  const __m256 absx = _mm256_andnot_ps(sign_mask, x);
  const __m256 e2 = exp8(_mm256_mul_ps(absx, _mm256_set1_ps(-2.0f)));
  const __m256 t =
      _mm256_div_ps(_mm256_sub_ps(one, e2), _mm256_add_ps(one, e2));
  return _mm256_or_ps(t, sign);
}

// ---- matmul micro-kernels --------------------------------------------------

// Per-element accumulation discipline of this backend: ascending k, a FUSED
// multiply-add at EVERY k (_mm256_fmadd_ps, masked on the ragged column
// tail) — no zero-skipping, unlike the scalar backend. Skips would have to
// fire identically in every row group to keep bit-identical thread
// invariance (fma(0, b, acc) is NOT a bitwise no-op when acc is -0.0 or b
// is non-finite), and per-row predication in the micro-kernel costs more
// on dense operands than the skip saves; the sparse layer-0 input takes
// the gather entry instead. With every k executed, an output element's bit
// pattern is independent of which loop shape a partition routed it
// through, so the §5 contract holds within this backend.

/// Lanes [0, n) of an 8-lane maskload/maskstore mask, n ≤ 8.
inline __m256i lane_mask(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Register-blocked micro-kernel: R ≤ 4 consecutive output rows (row r at
/// out + r·N) × a 16-column tile, 2R ymm accumulators held across the whole
/// K loop, so every loaded b row chunk is reused R times (the b-operand
/// bandwidth this product is otherwise bound on). The last N % 16 columns
/// run as 8-lane steps, the final one masked. `a_at(k, r)` must return
/// a(row r, k); neither the row group nor the column step changes any
/// element's k-summation order, so determinism is untouched. Kept out of
/// line: inlined into its caller, the k loop ran out of general registers
/// and spilled the a-row and b pointers (≈1.4× slower at 8 rows).
template <std::size_t R, typename AccessA>
[[gnu::noinline]] void micro_tile(const AccessA& a_at, const float* b,
                                  float* out, std::size_t K, std::size_t N) {
  std::size_t j = 0;
  for (; j + 16 <= N; j += 16) {
    __m256 acc[R][2];
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = _mm256_loadu_ps(out + r * N + j);
      acc[r][1] = _mm256_loadu_ps(out + r * N + j + 8);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m256 vb0 = _mm256_loadu_ps(b + k * N + j);
      const __m256 vb1 = _mm256_loadu_ps(b + k * N + j + 8);
      for (std::size_t r = 0; r < R; ++r) {
        const __m256 va = _mm256_set1_ps(a_at(k, r));
        acc[r][0] = _mm256_fmadd_ps(va, vb0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(va, vb1, acc[r][1]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(out + r * N + j, acc[r][0]);
      _mm256_storeu_ps(out + r * N + j + 8, acc[r][1]);
    }
  }
  for (; j < N; j += 8) {
    const __m256i m = lane_mask(N - j);
    __m256 acc[R];
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_maskload_ps(out + r * N + j, m);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m256 vb = _mm256_maskload_ps(b + k * N + j, m);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a_at(k, r)), vb, acc[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_maskstore_ps(out + r * N + j, m, acc[r]);
    }
  }
}

/// Rows [rb,re) in groups of four, then the 1–3 leftover rows as one
/// smaller group: group(std::integral_constant<size_t, R>, first_row).
template <typename Group>
inline void row_groups(std::size_t rb, std::size_t re, const Group& group) {
  std::size_t i = rb;
  for (; i + 4 <= re; i += 4) group(std::integral_constant<std::size_t, 4>{}, i);
  switch (re - i) {
    case 3: group(std::integral_constant<std::size_t, 3>{}, i); break;
    case 2: group(std::integral_constant<std::size_t, 2>{}, i); break;
    case 1: group(std::integral_constant<std::size_t, 1>{}, i); break;
    default: break;
  }
}

void nn_rows(const float* a, const float* b, float* out, std::size_t K,
             std::size_t N, std::size_t rb, std::size_t re) {
  row_groups(rb, re, [&](auto rows, std::size_t i) {
    const float* a0 = a + i * K;
    micro_tile<decltype(rows)::value>(
        [&](std::size_t k, std::size_t r) { return a0[r * K + k]; }, b,
        out + i * N, K, N);
  });
}

void tn_rows(const float* a, const float* b, float* out, std::size_t K,
             std::size_t M, std::size_t N, std::size_t rb, std::size_t re) {
  row_groups(rb, re, [&](auto rows, std::size_t i) {
    // Out rows are columns of a: the group's a-values of one k sit
    // contiguously at a[k*M + i ..].
    const float* a_col = a + i;
    micro_tile<decltype(rows)::value>(
        [&](std::size_t k, std::size_t r) { return a_col[k * M + r]; }, b,
        out + i * N, K, N);
  });
}

/// Sparse 0/1 rows × b: per 32-column block, four ymm accumulators take one
/// plain add per id in ascending id order — the scalar definition's bits.
/// The last N % 32 columns run as 8-lane steps, the final one masked.
void gather_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                     const float* b, float* out, std::size_t N,
                     std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* o = out + r * N;
    const std::uint32_t kb = offsets[r];
    const std::uint32_t ke = offsets[r + 1];
    std::size_t j = 0;
    for (; j + 32 <= N; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(o + j);
      __m256 acc1 = _mm256_loadu_ps(o + j + 8);
      __m256 acc2 = _mm256_loadu_ps(o + j + 16);
      __m256 acc3 = _mm256_loadu_ps(o + j + 24);
      for (std::uint32_t k = kb; k < ke; ++k) {
        const float* br = b + std::size_t{ids[k]} * N + j;
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(br));
        acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(br + 8));
        acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(br + 16));
        acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(br + 24));
      }
      _mm256_storeu_ps(o + j, acc0);
      _mm256_storeu_ps(o + j + 8, acc1);
      _mm256_storeu_ps(o + j + 16, acc2);
      _mm256_storeu_ps(o + j + 24, acc3);
    }
    for (; j < N; j += 8) {
      const __m256i m = lane_mask(N - j);
      __m256 acc = _mm256_maskload_ps(o + j, m);
      for (std::uint32_t k = kb; k < ke; ++k) {
        acc = _mm256_add_ps(
            acc, _mm256_maskload_ps(b + std::size_t{ids[k]} * N + j, m));
      }
      _mm256_maskstore_ps(o + j, m, acc);
    }
  }
}

/// a rows × the 0/1 incidence, transposed: each (row, id) adds the a row
/// into the out row in 32-column blocks of four ymm, the last N % 32
/// columns as 8-lane steps, the final one masked — one plain add per
/// element, rows ascending: the scalar definition's bits.
void scatter_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                      const float* a, float* out, std::size_t N,
                      std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const float* ar = a + r * N;
    for (std::uint32_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      float* o = out + std::size_t{ids[k]} * N;
      std::size_t j = 0;
      for (; j + 32 <= N; j += 32) {
        for (std::size_t v = 0; v < 32; v += 8) {
          const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(o + j + v),
                                           _mm256_loadu_ps(ar + j + v));
          _mm256_storeu_ps(o + j + v, sum);
        }
      }
      for (; j < N; j += 8) {
        const __m256i m = lane_mask(N - j);
        _mm256_maskstore_ps(o + j, m,
                            _mm256_add_ps(_mm256_maskload_ps(o + j, m),
                                          _mm256_maskload_ps(ar + j, m)));
      }
    }
  }
}

// ---- fused gate kernels ----------------------------------------------------

// Ragged tails (H % 8 columns) run the shared scalar bodies
// (kernels_scalar_tail.hpp). Their rounding differs from the vector lanes,
// but each element is computed the same way on every run and every thread
// count, which is all §5 requires.

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
    for (; j + 8 <= H; j += 8) {
      const __m256 vi = sigmoid8(_mm256_loadu_ps(ar + j));
      const __m256 vf = sigmoid8(_mm256_loadu_ps(ar + H + j));
      const __m256 vo = sigmoid8(_mm256_loadu_ps(ar + 2 * H + j));
      const __m256 vg = tanh8(_mm256_loadu_ps(ar + 3 * H + j));
      const __m256 vc = _mm256_fmadd_ps(vf, _mm256_loadu_ps(cp + j),
                                        _mm256_mul_ps(vi, vg));
      const __m256 vt = tanh8(vc);
      _mm256_storeu_ps(ir + j, vi);
      _mm256_storeu_ps(fr + j, vf);
      _mm256_storeu_ps(orow + j, vo);
      _mm256_storeu_ps(gr + j, vg);
      _mm256_storeu_ps(cr + j, vc);
      _mm256_storeu_ps(tr + j, vt);
      _mm256_storeu_ps(hr + j, _mm256_mul_ps(vo, vt));
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
  const __m256 one = _mm256_set1_ps(1.0f);
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
    for (; j + 8 <= H; j += 8) {
      const __m256 vdh = _mm256_loadu_ps(dhr + j);
      const __m256 vt = _mm256_loadu_ps(tr + j);
      const __m256 vo = _mm256_loadu_ps(orow + j);
      const __m256 vi = _mm256_loadu_ps(ir + j);
      const __m256 vf = _mm256_loadu_ps(fr + j);
      const __m256 vg = _mm256_loadu_ps(gr + j);
      const __m256 do_out = _mm256_mul_ps(vdh, vt);
      __m256 vdc = _mm256_mul_ps(
          _mm256_mul_ps(vdh, vo),
          _mm256_fnmadd_ps(vt, vt, one));
      if (dci != nullptr) vdc = _mm256_add_ps(vdc, _mm256_loadu_ps(dci + j));
      _mm256_storeu_ps(dcp + j, _mm256_mul_ps(vdc, vf));
      const __m256 di_out = _mm256_mul_ps(vdc, vg);
      const __m256 df_out = _mm256_mul_ps(vdc, _mm256_loadu_ps(cp + j));
      const __m256 dg_out = _mm256_mul_ps(vdc, vi);
      _mm256_storeu_ps(
          dar + j,
          _mm256_mul_ps(di_out,
                        _mm256_mul_ps(vi, _mm256_sub_ps(one, vi))));
      _mm256_storeu_ps(
          dar + H + j,
          _mm256_mul_ps(df_out,
                        _mm256_mul_ps(vf, _mm256_sub_ps(one, vf))));
      _mm256_storeu_ps(
          dar + 2 * H + j,
          _mm256_mul_ps(do_out,
                        _mm256_mul_ps(vo, _mm256_sub_ps(one, vo))));
      _mm256_storeu_ps(dar + 3 * H + j,
                       _mm256_mul_ps(dg_out, _mm256_fnmadd_ps(vg, vg, one)));
    }
    detail::scalar_gates_backward_cols(ir, fr, orow, gr, cp, tr, dhr, dci,
                                       dar, dcp, H, /*j0=*/j);
  }
}

// Row-wise softmax on the polynomial exp8. Per row: vector max (exact, so
// the subtracted pivot matches the scalar backend bit-for-bit), exp over
// 8-lane groups with a scalar polynomial tail, lane-grouped sum finished by
// one horizontal add. The sum order differs from the scalar backend (allowed
// between backends) but is a fixed function of C alone, so a row's bits
// never depend on B or on the partition.


void softmax_rows_(float* m, std::size_t C, std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* row = m + r * C;
    float mx = row[0];
    std::size_t j = 1;
    if (C >= 9) {
      __m256 vmx = _mm256_loadu_ps(row);
      for (j = 8; j + 8 <= C; j += 8) {
        vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(row + j));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, vmx);
      mx = lanes[0];
      for (int l = 1; l < 8; ++l) mx = std::max(mx, lanes[l]);
    }
    for (; j < C; ++j) mx = std::max(mx, row[j]);

    const __m256 vpivot = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (j = 0; j + 8 <= C; j += 8) {
      const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), vpivot));
      _mm256_storeu_ps(row + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vsum);
    float sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (; j < C; ++j) {
      row[j] = detail::scalar_exp_poly(row[j] - mx);
      sum += row[j];
    }

    const float inv = 1.0f / sum;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (j = 0; j + 8 <= C; j += 8) {
      _mm256_storeu_ps(row + j,
                       _mm256_mul_ps(_mm256_loadu_ps(row + j), vinv));
    }
    for (; j < C; ++j) row[j] *= inv;
  }
}

/// Batched Eytzinger search, 4 queries per vector: all four descents step in
/// lockstep via a masked 64-bit gather, so the four node loads of one
/// iteration issue together. Lanes whose walk has ended (i > n) keep their
/// state through the gather mask and the blend. AVX2 has no unsigned 64-bit
/// compare, so both operands are sign-flipped and compared signed — an
/// order-preserving bijection. The final trailing-ones fixup is cheap and
/// scalar. Exact integer search: bit-identical to the scalar backend.
void sigdb_lookup_rows_(const std::uint64_t* nodes,
                        const std::uint64_t* node_begin,
                        const std::uint64_t* node_count,
                        const std::uint64_t* keys, std::uint32_t* out_pos,
                        std::size_t qb, std::size_t qe) {
  // Level-synchronous schedule (same as the scalar reference): every sweep
  // advances ALL still-active 4-lane groups of the chunk by one tree level,
  // so up to kLanes gathered loads are outstanding at once — the walk is
  // memory-latency bound and lockstep-per-group alone would cap the
  // parallelism at 4. Lane state lives in small stack arrays (L1-resident);
  // padding lanes get count 0 so they go inactive before the first gather.
  constexpr std::size_t kLanes = 64;
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vall = _mm256_set1_epi64x(-1);
  alignas(32) std::uint64_t idx[kLanes];
  alignas(32) std::uint64_t beg[kLanes], cnt[kLanes], kk[kLanes];
  for (std::size_t c = qb; c < qe; c += kLanes) {
    const std::size_t m = qe - c < kLanes ? qe - c : kLanes;
    const std::size_t mp = (m + 3) & ~std::size_t{3};
    for (std::size_t j = 0; j < m; ++j) {
      beg[j] = node_begin[c + j];
      cnt[j] = node_count[c + j];
      kk[j] = keys[c + j];
      idx[j] = 1;
    }
    for (std::size_t j = m; j < mp; ++j) {
      beg[j] = 0;
      cnt[j] = 0;  // 1 > 0 ⇒ the pad lane never gathers
      kk[j] = 0;
      idx[j] = 1;
    }
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t g = 0; g < mp; g += 4) {
        const __m256i vi =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(idx + g));
        const __m256i vn =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(cnt + g));
        // active lane ⇔ i <= n ⇔ !(i > n), computed in sign-flipped space.
        const __m256i vi_s = _mm256_xor_si256(vi, vsign);
        const __m256i vn_s = _mm256_xor_si256(vn, vsign);
        const __m256i vactive =
            _mm256_andnot_si256(_mm256_cmpgt_epi64(vi_s, vn_s), vall);
        if (_mm256_movemask_epi8(vactive) == 0) continue;
        any = true;
        const __m256i vbegin =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(beg + g));
        const __m256i vkey =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(kk + g));
        const __m256i vidx = _mm256_add_epi64(vbegin, vi);
        const __m256i vnode = _mm256_mask_i64gather_epi64(
            vi, reinterpret_cast<const long long*>(nodes), vidx, vactive, 8);
        // step = (node < key): compare sign-flipped, take the low bit.
        const __m256i vlt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(vkey, vsign), _mm256_xor_si256(vnode, vsign));
        const __m256i vnext = _mm256_add_epi64(_mm256_slli_epi64(vi, 1),
                                               _mm256_and_si256(vlt, vone));
        _mm256_store_si256(reinterpret_cast<__m256i*>(idx + g),
                           _mm256_blendv_epi8(vi, vnext, vactive));
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t p =
          idx[j] >> (static_cast<unsigned>(std::countr_one(idx[j])) + 1);
      const std::uint64_t* base = nodes + beg[j];
      out_pos[c + j] =
          (p != 0 && base[p] == kk[j]) ? static_cast<std::uint32_t>(p) : 0u;
    }
  }
}

constexpr KernelBackend kAvx2Backend = {
    "avx2", nn_rows, tn_rows, gather_rows_acc, scatter_rows_acc,
    gates_forward_rows,
    gates_backward_rows, softmax_rows_, sigdb_lookup_rows_,
};

}  // namespace

const KernelBackend* avx2_kernel_backend() { return &kAvx2Backend; }

}  // namespace mlad::nn

#else  // !(__AVX2__ && __FMA__)

namespace mlad::nn {
const KernelBackend* avx2_kernel_backend() { return nullptr; }
}  // namespace mlad::nn

#endif
