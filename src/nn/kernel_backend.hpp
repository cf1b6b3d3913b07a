// Pluggable kernel backends for the hot inner loops of kernels.hpp
// (DESIGN.md §7): one function table per instruction set, selected once at
// startup by cpuid-based runtime dispatch and overridable with the
// MLAD_KERNEL_BACKEND environment variable.
//
// Every entry computes COMPLETE output rows [rb, re): the dispatching
// wrappers in kernels.cpp only ever partition rows across pool workers, so
// within one backend results are bit-identical for any thread count
// (DESIGN.md §5). Different backends may round differently (FMA contraction,
// vectorized transcendentals); the scalar backend is the authoritative
// reference and is bit-for-bit the pre-backend portable code.
//
// Raw-pointer signatures keep the backend TUs free of Matrix so they can be
// compiled with per-file ISA flags (-mavx2 -mfma) without leaking wide
// instructions into inlineable headers of a baseline build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Entries that must compute a rounded multiply followed by a separately
// rounded add (gemv_acc, adam_update) carry MLAD_NO_FP_CONTRACT: GCC
// contracts a mul feeding an add into one FMA under its C++ default
// -ffp-contract=fast wherever FMA is available (the -mfma and -mavx512f
// TUs, any -march=native build), intrinsics included. Clang contracts only
// within one source expression, so those bodies also keep every product
// its own statement (DESIGN.md §7).
#if defined(__GNUC__) && !defined(__clang__)
#define MLAD_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define MLAD_NO_FP_CONTRACT
#endif

namespace mlad::nn {

/// Per-step constants of adam_update, in double: alpha is the bias-corrected
/// step size lr·sqrt(1 − beta2^t) / (1 − beta1^t).
struct AdamCoeffs {
  double beta1;
  double one_minus_beta1;
  double beta2;
  double one_minus_beta2;
  double alpha;
  double eps;
};

struct KernelBackend {
  const char* name;

  /// out rows [rb,re) += a·b  (a: M×K row-major, b: K×N, out: M×N).
  /// Callers zero `out` first for a plain product. Per out element the
  /// summation order must be a fixed function of K alone.
  void (*matmul_nn_rows)(const float* a, const float* b, float* out,
                         std::size_t K, std::size_t N, std::size_t rb,
                         std::size_t re);

  /// out rows [rb,re) += aᵀ·b  (a: K×M, b: K×N, out: M×N) — the
  /// gradient-accumulation product (grad_W += dAᵀ · X).
  void (*matmul_tn_rows)(const float* a, const float* b, float* out,
                         std::size_t K, std::size_t M, std::size_t N,
                         std::size_t rb, std::size_t re);

  /// out rows [rb,re) += the b rows a 0/1 input row selects: row r adds
  /// b(ids[k], :) for k in [offsets[r], offsets[r+1]) in that (ascending)
  /// order, one plain float add per id and no FMA, so every backend
  /// computes the same bits. On an FMA backend that also equals
  /// matmul_nn_rows of the dense 0/1 matrix: fma(1,w,acc) = acc+w and
  /// fma(0,w,acc) = acc for finite w.
  void (*gather_rows_acc)(const std::uint32_t* ids,
                          const std::uint32_t* offsets, const float* b,
                          float* out, std::size_t N, std::size_t rb,
                          std::size_t re);

  /// The transpose of gather_rows_acc — the layer-0 weight gradient: for
  /// each row r of `a` in [rb,re), ascending, add a(r, :) into out(ids[k], :)
  /// for k in [offsets[r], offsets[r+1]), one plain float add per (row, id)
  /// and no FMA, so every backend computes the same bits. On an FMA backend
  /// those equal matmul_tn_rows of `a` and the dense 0/1 matrix, transposed:
  /// fma(a,1,acc) = acc+a and fma(a,0,acc) = acc for finite a. Several rows
  /// may add into one out row, so callers never split [rb,re) across
  /// workers.
  void (*scatter_rows_acc)(const std::uint32_t* ids,
                           const std::uint32_t* offsets, const float* a,
                           float* out, std::size_t N, std::size_t rb,
                           std::size_t re);

  /// Fused LSTM gate activations + cell update over rows [rb,re). `a` is the
  /// B×4H pre-activation block in gate order [i,f,o,g]; all other buffers
  /// are B×H.
  void (*gates_forward_rows)(const float* a, const float* c_prev, float* i,
                             float* f, float* o, float* g, float* c,
                             float* tanh_c, float* h, std::size_t H,
                             std::size_t rb, std::size_t re);

  /// Backward of gates_forward over rows [rb,re). `dc_in` covers only the
  /// first `carry_rows` rows (ended sequences contribute zero); `da` is
  /// B×4H, everything else B×H.
  void (*gates_backward_rows)(const float* i, const float* f, const float* o,
                              const float* g, const float* c_prev,
                              const float* tanh_c, const float* dh,
                              const float* dc_in, float* da, float* dc_prev,
                              std::size_t H, std::size_t carry_rows,
                              std::size_t rb, std::size_t re);

  /// Numerically-stabilized softmax in place over rows [rb,re) of the B×C
  /// block `m` (subtract the row max, exponentiate, normalize) — the
  /// training loss's; inference ranks on logits. Per row the arithmetic
  /// must be a fixed function of the row content and C alone — never of the
  /// partition or of B — so row partitioning stays bitwise-safe.
  void (*softmax_rows)(float* m, std::size_t C, std::size_t rb,
                       std::size_t re);

  /// y[0,N) += x·wT for one input row x (K) and a transposed weight wT
  /// (K×N) — the single-stream y += W x. Per output n, a chain from +0 over
  /// ascending k with x[k] != 0 adds the product x[k]·wT(k, n), a rounded
  /// multiply then a rounded add (no FMA); y[n] then adds the chain. Every
  /// backend computes the same bits. Skipping a zero input is bitwise the
  /// dense chain for finite w: w·0 is ±0 and +0 + ±0 = +0, x + ±0 = x.
  void (*gemv_acc)(const float* x, const float* wT, float* y, std::size_t K,
                   std::size_t N);

  /// Adam over n elements (DESIGN.md §4): per element, in double,
  ///   g = grad · grad_scale            (a float multiply: the clip)
  ///   m = float(beta1·m + (1 − beta1)·g)
  ///   v = float(beta2·v + ((1 − beta2)·g)·g)
  ///   p = p − float(alpha·m / (sqrt(v) + eps))   (the subtraction in float)
  /// with every operation correctly rounded and none fused, so every
  /// backend computes the same bits.
  void (*adam_update)(float* p, float* m, float* v, const float* grad,
                      float grad_scale, std::size_t n, const AdamCoeffs& c);

  /// out (C×R) = aᵀ for the row-major R×C `a` — a pure copy, so every
  /// backend produces the same bits (the weight-transpose cache, §11, and
  /// the trainer's fold of the transposed layer-0 gradient, §4).
  void (*transpose)(const float* a, float* out, std::size_t R, std::size_t C);

  /// out[0,N) += the column sums of the R×N block `a`: per column a chain
  /// of plain float adds over the rows, ascending, so every backend
  /// computes the same bits (the bias gradients).
  void (*col_sum_acc)(const float* a, float* out, std::size_t R,
                      std::size_t N);
};

/// The portable reference backend — always available, bit-identical to the
/// pre-backend kernels for any input.
const KernelBackend& scalar_kernel_backend();

/// AVX2+FMA backend, or nullptr when not compiled in (non-x86 target or a
/// compiler without per-file -mavx2 support). Runtime usability is the
/// dispatcher's job (cpu_features()).
const KernelBackend* avx2_kernel_backend();

/// AVX-512 (F+BW+VL) backend, or nullptr when not compiled in. Runtime
/// usability — including the OS saving ZMM/opmask state — is the
/// dispatcher's job (cpu_features()).
const KernelBackend* avx512_kernel_backend();

/// The active backend. First use selects from MLAD_KERNEL_BACKEND
/// (scalar|avx2|avx512) when set and usable, otherwise the best backend
/// both compiled in and supported by the host CPU.
const KernelBackend& kernel_backend();

/// Names of the backends compiled in AND usable on this CPU, ordered worst
/// to best ("scalar" first, the dispatcher's preferred backend last).
std::vector<std::string> available_kernel_backends();

/// Select the active backend by name; returns false (and leaves the active
/// backend unchanged) when the name is unknown or unusable on this host.
bool select_kernel_backend(const std::string& name);

/// Re-read MLAD_KERNEL_BACKEND and reselect (called implicitly on first
/// kernel_backend() use; tests call it again after setenv). An unset, empty,
/// unknown, or unusable value falls back to the best available backend.
const KernelBackend& select_kernel_backend_from_env();

}  // namespace mlad::nn
