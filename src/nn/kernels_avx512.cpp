// AVX-512 kernel backend (DESIGN.md §7, §11): 16-wide register-blocked
// micro-kernels for the matmul inner loops and fused LSTM gate kernels with
// a vectorized exponential. This TU is the only one compiled with
// -mavx512f -mavx512bw -mavx512vl (per-file CMake flags), so the enclosing
// binary stays baseline-safe: nothing here runs unless the cpuid dispatcher
// (which also checks the OS saves ZMM/opmask state) picked it.
//
// Rounding: the j (column) dimension is vectorized, so per output element
// the k-summation ORDER is identical to the scalar backend — only FMA
// contraction and the polynomial exp change the last bits. Row partitioning
// across pool workers therefore stays bit-identical within this backend.
//
// Sign-bit tricks use integer ops through casts (_mm512_and_ps and friends
// are AVX-512DQ, which this TU deliberately does not require).
#include "nn/kernel_backend.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

// GCC's _mm512_undefined_ps trips -Wmaybe-uninitialized inside the
// intrinsics header itself (gcc PR105593); nothing here reads
// uninitialized state.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

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

/// Cephes-style polynomial exp, elementwise over 16 lanes (~1 ulp) — the
/// same constants as the AVX2/NEON backends' 8/4-lane versions. Input is
/// clamped to the finite-float exponent range.
inline __m512 exp16(__m512 x) {
  const __m512 hi = _mm512_set1_ps(88.3762626647949f);
  const __m512 lo = _mm512_set1_ps(-88.3762626647949f);
  const __m512 log2e = _mm512_set1_ps(1.44269504088896341f);
  const __m512 ln2_hi = _mm512_set1_ps(0.693359375f);
  const __m512 ln2_lo = _mm512_set1_ps(-2.12194440e-4f);
  const __m512 one = _mm512_set1_ps(1.0f);

  x = _mm512_max_ps(_mm512_min_ps(x, hi), lo);

  // n = floor(x/ln2 + 0.5); reduce x to r = x - n*ln2 (split constant).
  __m512 n = _mm512_roundscale_ps(
      _mm512_fmadd_ps(x, log2e, _mm512_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(n, ln2_hi, x);
  x = _mm512_fnmadd_ps(n, ln2_lo, x);

  // exp(r) ≈ 1 + r + r²·P(r).
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
  y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
  y = _mm512_fmadd_ps(y, _mm512_mul_ps(x, x), _mm512_add_ps(x, one));

  // Scale by 2^n through the exponent bits.
  __m512i pow2n = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(0x7f)), 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(pow2n));
}

/// σ(x) = (x ≥ 0 ? 1 : e) / (1 + e) with e = exp(-|x|) — the same
/// overflow-free form as the scalar k_sigmoid.
inline __m512 sigmoid16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512i sign_mask = _mm512_set1_epi32(0x80000000);
  const __m512 absx = _mm512_castsi512_ps(
      _mm512_andnot_si512(sign_mask, _mm512_castps_si512(x)));
  const __m512 e = exp16(_mm512_sub_ps(_mm512_setzero_ps(), absx));
  const __mmask16 nonneg =
      _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GE_OQ);
  const __m512 num = _mm512_mask_blend_ps(nonneg, e, one);
  return _mm512_div_ps(num, _mm512_add_ps(one, e));
}

/// tanh(x) = sign(x)·(1 − e₂)/(1 + e₂) with e₂ = exp(−2|x|); never
/// overflows and is exact at ±∞-saturation.
inline __m512 tanh16(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512i sign_mask = _mm512_set1_epi32(0x80000000);
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i sign = _mm512_and_si512(sign_mask, xi);
  const __m512 absx = _mm512_castsi512_ps(_mm512_andnot_si512(sign_mask, xi));
  const __m512 e2 = exp16(_mm512_mul_ps(absx, _mm512_set1_ps(-2.0f)));
  const __m512 t =
      _mm512_div_ps(_mm512_sub_ps(one, e2), _mm512_add_ps(one, e2));
  return _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(t), sign));
}

// ---- matmul micro-kernels --------------------------------------------------

// Per-element accumulation discipline of this backend: ascending k, a FUSED
// multiply-add at EVERY k (_mm512_fmadd_ps, masked on the ragged column
// tail) — no zero-skipping, exactly the AVX2 backend's contract (see
// kernels_avx2.cpp for the full rationale). With every k executed, an
// output element's bit pattern is independent of which loop shape a
// partition routed it through, so the §5 contract holds within this backend.

/// Register-blocked micro-kernel: R ≤ 4 consecutive output rows (row r at
/// out + r·N) × a 64-column tile, 4R zmm accumulators held across the whole
/// K loop, so every loaded b row chunk is reused R times and up to 16
/// independent FMA chains hide the FMA latency. The last N % 64 columns
/// run as 16-lane steps, the final one masked. `a_at(k, r)` must return
/// a(row r, k); neither the row group nor the column step changes any
/// element's k-summation order, so determinism is untouched. Kept out of
/// line so the k loop gets the general registers to itself (inlined, the
/// AVX2 twin spilled its a-row and b pointers).
template <std::size_t R, typename AccessA>
[[gnu::noinline]] void micro_tile(const AccessA& a_at, const float* b,
                                  float* out, std::size_t K, std::size_t N) {
  constexpr std::size_t V = 4;  // zmm per row of the main tile
  std::size_t j = 0;
  for (; j + 16 * V <= N; j += 16 * V) {
    __m512 acc[R][V];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_loadu_ps(out + r * N + j + 16 * v);
      }
    }
    for (std::size_t k = 0; k < K; ++k) {
      __m512 vb[V];
      for (std::size_t v = 0; v < V; ++v) {
        vb[v] = _mm512_loadu_ps(b + k * N + j + 16 * v);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const __m512 va = _mm512_set1_ps(a_at(k, r));
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm512_fmadd_ps(va, vb[v], acc[r][v]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        _mm512_storeu_ps(out + r * N + j + 16 * v, acc[r][v]);
      }
    }
  }
  for (; j < N; j += 16) {
    const __mmask16 m =
        N - j >= 16 ? __mmask16{0xffff}
                    : static_cast<__mmask16>((1u << (N - j)) - 1u);
    __m512 acc[R];
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_maskz_loadu_ps(m, out + r * N + j);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m512 vb = _mm512_maskz_loadu_ps(m, b + k * N + j);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(a_at(k, r)), vb, acc[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm512_mask_storeu_ps(out + r * N + j, m, acc[r]);
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

/// Sparse 0/1 rows × b: per 64-column block, four zmm accumulators take
/// one plain add per id in ascending id order — the scalar definition's
/// bits. The last N % 64 columns run as 16-lane steps, the final one masked.
/// Bound by L2 bandwidth (each id streams one b row), not by add latency.
void gather_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                     const float* b, float* out, std::size_t N,
                     std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* o = out + r * N;
    const std::uint32_t kb = offsets[r];
    const std::uint32_t ke = offsets[r + 1];
    std::size_t j = 0;
    for (; j + 64 <= N; j += 64) {
      __m512 acc0 = _mm512_loadu_ps(o + j);
      __m512 acc1 = _mm512_loadu_ps(o + j + 16);
      __m512 acc2 = _mm512_loadu_ps(o + j + 32);
      __m512 acc3 = _mm512_loadu_ps(o + j + 48);
      for (std::uint32_t k = kb; k < ke; ++k) {
        const float* br = b + std::size_t{ids[k]} * N + j;
        acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(br));
        acc1 = _mm512_add_ps(acc1, _mm512_loadu_ps(br + 16));
        acc2 = _mm512_add_ps(acc2, _mm512_loadu_ps(br + 32));
        acc3 = _mm512_add_ps(acc3, _mm512_loadu_ps(br + 48));
      }
      _mm512_storeu_ps(o + j, acc0);
      _mm512_storeu_ps(o + j + 16, acc1);
      _mm512_storeu_ps(o + j + 32, acc2);
      _mm512_storeu_ps(o + j + 48, acc3);
    }
    for (; j < N; j += 16) {
      const __mmask16 m =
          N - j >= 16 ? __mmask16{0xffff}
                      : static_cast<__mmask16>((1u << (N - j)) - 1u);
      __m512 acc = _mm512_maskz_loadu_ps(m, o + j);
      for (std::uint32_t k = kb; k < ke; ++k) {
        acc = _mm512_add_ps(
            acc, _mm512_maskz_loadu_ps(m, b + std::size_t{ids[k]} * N + j));
      }
      _mm512_mask_storeu_ps(o + j, m, acc);
    }
  }
}

/// a rows × the 0/1 incidence, transposed: each (row, id) adds the a row
/// into the out row in 64-column blocks of four zmm, the last N % 64
/// columns as 16-lane steps, the final one masked — one plain add per
/// element, rows ascending: the scalar definition's bits.
void scatter_rows_acc(const std::uint32_t* ids, const std::uint32_t* offsets,
                      const float* a, float* out, std::size_t N,
                      std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const float* ar = a + r * N;
    for (std::uint32_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      float* o = out + std::size_t{ids[k]} * N;
      std::size_t j = 0;
      for (; j + 64 <= N; j += 64) {
        for (std::size_t v = 0; v < 64; v += 16) {
          const __m512 sum = _mm512_add_ps(_mm512_loadu_ps(o + j + v),
                                           _mm512_loadu_ps(ar + j + v));
          _mm512_storeu_ps(o + j + v, sum);
        }
      }
      for (; j < N; j += 16) {
        const __mmask16 m =
            N - j >= 16 ? __mmask16{0xffff}
                        : static_cast<__mmask16>((1u << (N - j)) - 1u);
        _mm512_mask_storeu_ps(o + j, m,
                              _mm512_add_ps(_mm512_maskz_loadu_ps(m, o + j),
                                            _mm512_maskz_loadu_ps(m, ar + j)));
      }
    }
  }
}

// ---- fused gate kernels ----------------------------------------------------

// Ragged tails (H % 16 columns) run the shared scalar bodies
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
    for (; j + 16 <= H; j += 16) {
      const __m512 vi = sigmoid16(_mm512_loadu_ps(ar + j));
      const __m512 vf = sigmoid16(_mm512_loadu_ps(ar + H + j));
      const __m512 vo = sigmoid16(_mm512_loadu_ps(ar + 2 * H + j));
      const __m512 vg = tanh16(_mm512_loadu_ps(ar + 3 * H + j));
      const __m512 vc = _mm512_fmadd_ps(vf, _mm512_loadu_ps(cp + j),
                                        _mm512_mul_ps(vi, vg));
      const __m512 vt = tanh16(vc);
      _mm512_storeu_ps(ir + j, vi);
      _mm512_storeu_ps(fr + j, vf);
      _mm512_storeu_ps(orow + j, vo);
      _mm512_storeu_ps(gr + j, vg);
      _mm512_storeu_ps(cr + j, vc);
      _mm512_storeu_ps(tr + j, vt);
      _mm512_storeu_ps(hr + j, _mm512_mul_ps(vo, vt));
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
  const __m512 one = _mm512_set1_ps(1.0f);
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
    for (; j + 16 <= H; j += 16) {
      const __m512 vdh = _mm512_loadu_ps(dhr + j);
      const __m512 vt = _mm512_loadu_ps(tr + j);
      const __m512 vo = _mm512_loadu_ps(orow + j);
      const __m512 vi = _mm512_loadu_ps(ir + j);
      const __m512 vf = _mm512_loadu_ps(fr + j);
      const __m512 vg = _mm512_loadu_ps(gr + j);
      const __m512 do_out = _mm512_mul_ps(vdh, vt);
      __m512 vdc = _mm512_mul_ps(
          _mm512_mul_ps(vdh, vo),
          _mm512_fnmadd_ps(vt, vt, one));
      if (dci != nullptr) vdc = _mm512_add_ps(vdc, _mm512_loadu_ps(dci + j));
      _mm512_storeu_ps(dcp + j, _mm512_mul_ps(vdc, vf));
      const __m512 di_out = _mm512_mul_ps(vdc, vg);
      const __m512 df_out = _mm512_mul_ps(vdc, _mm512_loadu_ps(cp + j));
      const __m512 dg_out = _mm512_mul_ps(vdc, vi);
      _mm512_storeu_ps(
          dar + j,
          _mm512_mul_ps(di_out,
                        _mm512_mul_ps(vi, _mm512_sub_ps(one, vi))));
      _mm512_storeu_ps(
          dar + H + j,
          _mm512_mul_ps(df_out,
                        _mm512_mul_ps(vf, _mm512_sub_ps(one, vf))));
      _mm512_storeu_ps(
          dar + 2 * H + j,
          _mm512_mul_ps(do_out,
                        _mm512_mul_ps(vo, _mm512_sub_ps(one, vo))));
      _mm512_storeu_ps(dar + 3 * H + j,
                       _mm512_mul_ps(dg_out, _mm512_fnmadd_ps(vg, vg, one)));
    }
    detail::scalar_gates_backward_cols(ir, fr, orow, gr, cp, tr, dhr, dci,
                                       dar, dcp, H, /*j0=*/j);
  }
}

// Row-wise softmax on the polynomial exp16. Per row: vector max (exact, so
// the subtracted pivot matches the scalar backend bit-for-bit), exp over
// 16-lane groups with a scalar polynomial tail, lane-grouped sum finished by
// a fixed pairwise tree. The sum order differs from the scalar and AVX2
// backends (allowed between backends) but is a fixed function of C alone,
// so a row's bits never depend on B or on the partition.

void softmax_rows_(float* m, std::size_t C, std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    float* row = m + r * C;
    float mx = row[0];
    std::size_t j = 1;
    if (C >= 17) {
      __m512 vmx = _mm512_loadu_ps(row);
      for (j = 16; j + 16 <= C; j += 16) {
        vmx = _mm512_max_ps(vmx, _mm512_loadu_ps(row + j));
      }
      alignas(64) float lanes[16];
      _mm512_store_ps(lanes, vmx);
      mx = lanes[0];
      for (int l = 1; l < 16; ++l) mx = std::max(mx, lanes[l]);
    }
    for (; j < C; ++j) mx = std::max(mx, row[j]);

    const __m512 vpivot = _mm512_set1_ps(mx);
    __m512 vsum = _mm512_setzero_ps();
    for (j = 0; j + 16 <= C; j += 16) {
      const __m512 e = exp16(_mm512_sub_ps(_mm512_loadu_ps(row + j), vpivot));
      _mm512_storeu_ps(row + j, e);
      vsum = _mm512_add_ps(vsum, e);
    }
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, vsum);
    const float s0 = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                     ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    const float s1 = ((lanes[8] + lanes[9]) + (lanes[10] + lanes[11])) +
                     ((lanes[12] + lanes[13]) + (lanes[14] + lanes[15]));
    float sum = s0 + s1;
    for (; j < C; ++j) {
      row[j] = detail::scalar_exp_poly(row[j] - mx);
      sum += row[j];
    }

    const float inv = 1.0f / sum;
    const __m512 vinv = _mm512_set1_ps(inv);
    for (j = 0; j + 16 <= C; j += 16) {
      _mm512_storeu_ps(row + j,
                       _mm512_mul_ps(_mm512_loadu_ps(row + j), vinv));
    }
    for (; j < C; ++j) row[j] *= inv;
  }
}

/// Batched Eytzinger search, 8 queries per vector: lockstep descents via a
/// masked 64-bit gather with native unsigned compares
/// (_mm512_cmp*_epu64_mask) and opmask-predicated updates — no sign-flip
/// tricks needed at this width. The trailing-ones fixup stays scalar. Exact
/// integer search: bit-identical to the scalar backend.
void sigdb_lookup_rows_(const std::uint64_t* nodes,
                        const std::uint64_t* node_begin,
                        const std::uint64_t* node_count,
                        const std::uint64_t* keys, std::uint32_t* out_pos,
                        std::size_t qb, std::size_t qe) {
  // Level-synchronous schedule (same as the scalar reference): every sweep
  // advances ALL still-active 8-lane groups of the chunk by one tree level,
  // so up to kLanes gathered loads are outstanding at once — lockstep per
  // group alone would cap the memory-level parallelism at 8. Lane state
  // lives in small stack arrays (L1-resident); padding lanes get count 0 so
  // they go inactive before the first gather.
  constexpr std::size_t kLanes = 64;
  const __m512i vone = _mm512_set1_epi64(1);
  alignas(64) std::uint64_t idx[kLanes];
  alignas(64) std::uint64_t beg[kLanes], cnt[kLanes], kk[kLanes];
  for (std::size_t c = qb; c < qe; c += kLanes) {
    const std::size_t m = qe - c < kLanes ? qe - c : kLanes;
    const std::size_t mp = (m + 7) & ~std::size_t{7};
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
      for (std::size_t g = 0; g < mp; g += 8) {
        const __m512i vi = _mm512_load_si512(idx + g);
        const __m512i vn = _mm512_load_si512(cnt + g);
        const __mmask8 active = _mm512_cmple_epu64_mask(vi, vn);
        if (active == 0) continue;
        any = true;
        const __m512i vbegin = _mm512_load_si512(beg + g);
        const __m512i vkey = _mm512_load_si512(kk + g);
        const __m512i vidx = _mm512_add_epi64(vbegin, vi);
        const __m512i vnode = _mm512_mask_i64gather_epi64(
            vi, active, vidx, nodes, 8);
        const __mmask8 lt =
            _mm512_cmplt_epu64_mask(vnode, vkey) & active;
        // i := 2i (+1 where node < key), only on active lanes.
        __m512i vnext = _mm512_mask_mov_epi64(vi, active,
                                              _mm512_slli_epi64(vi, 1));
        vnext = _mm512_mask_add_epi64(vnext, lt, vnext, vone);
        _mm512_store_si512(idx + g, vnext);
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

constexpr KernelBackend kAvx512Backend = {
    "avx512", nn_rows, tn_rows, gather_rows_acc, scatter_rows_acc,
    gates_forward_rows,
    gates_backward_rows, softmax_rows_, sigdb_lookup_rows_,
};

}  // namespace

const KernelBackend* avx512_kernel_backend() { return &kAvx512Backend; }

}  // namespace mlad::nn

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace mlad::nn {
const KernelBackend* avx512_kernel_backend() { return nullptr; }
}  // namespace mlad::nn

#endif
