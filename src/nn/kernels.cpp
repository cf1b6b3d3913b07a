#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/cpu_features.hpp"
#include "nn/kernel_backend.hpp"

namespace mlad::nn {

// ---- backend dispatch (DESIGN.md §7) ---------------------------------------

namespace {

/// Usable = compiled into this binary AND supported by the host CPU.
const KernelBackend* usable_avx2() {
  const KernelBackend* b = avx2_kernel_backend();
  if (b == nullptr) return nullptr;
  const CpuFeatures& f = cpu_features();
  return (f.avx2 && f.fma) ? b : nullptr;
}

const KernelBackend* usable_avx512() {
  const KernelBackend* b = avx512_kernel_backend();
  if (b == nullptr) return nullptr;
  const CpuFeatures& f = cpu_features();
  // avx512f already implies the OS saves ZMM/opmask state (cpu_features
  // folds the XCR0 check in); BW+VL are what the TU is compiled with.
  return (f.avx512f && f.avx512bw && f.avx512vl) ? b : nullptr;
}

const KernelBackend* best_backend() {
  if (const KernelBackend* b = usable_avx512()) return b;
  if (const KernelBackend* b = usable_avx2()) return b;
  return &scalar_kernel_backend();
}

const KernelBackend* backend_by_name(const std::string& name) {
  if (name == "scalar") return &scalar_kernel_backend();
  if (name == "avx2") return usable_avx2();
  if (name == "avx512") return usable_avx512();
  return nullptr;
}

/// The active backend. Selection is one pointer swap; concurrent first-use
/// races resolve to the same value, so plain acquire/release suffices.
std::atomic<const KernelBackend*> g_backend{nullptr};

}  // namespace

std::vector<std::string> available_kernel_backends() {
  // Worst to best: tests rely on names.front() being the scalar reference
  // and names.back() being what best_backend() falls back to.
  std::vector<std::string> names = {"scalar"};
  if (usable_avx2() != nullptr) names.emplace_back("avx2");
  if (usable_avx512() != nullptr) names.emplace_back("avx512");
  return names;
}

bool select_kernel_backend(const std::string& name) {
  const KernelBackend* b = backend_by_name(name);
  if (b == nullptr) return false;
  g_backend.store(b, std::memory_order_release);
  return true;
}

const KernelBackend& select_kernel_backend_from_env() {
  const KernelBackend* chosen = nullptr;
  if (const char* env = std::getenv("MLAD_KERNEL_BACKEND");
      env != nullptr && *env != '\0') {
    chosen = backend_by_name(env);
    if (chosen == nullptr) {
      std::fprintf(stderr,
                   "mlad: MLAD_KERNEL_BACKEND=%s unknown or unsupported on "
                   "this host (cpu: %s); using %s\n",
                   env, cpu_feature_summary().c_str(), best_backend()->name);
    }
  }
  if (chosen == nullptr) chosen = best_backend();
  g_backend.store(chosen, std::memory_order_release);
  return *chosen;
}

const KernelBackend& kernel_backend() {
  const KernelBackend* b = g_backend.load(std::memory_order_acquire);
  if (b != nullptr) return *b;
  return select_kernel_backend_from_env();
}

// ---- dispatching wrappers --------------------------------------------------

namespace {

/// Run fn over row blocks [rb, re) of an `rows`-row output. Each output row
/// is produced entirely inside one invocation, so any partition is
/// bit-identical to the serial run. Template so the serial path inlines the
/// loop body (no std::function indirection on 1-thread hot paths).
template <typename F>
inline void for_row_blocks(std::size_t rows, ThreadPool* pool, F&& fn) {
  if (pool == nullptr || rows <= 1) {
    fn(0, rows);
    return;
  }
  pool->parallel_chunks(0, rows, std::forward<F>(fn));
}

inline void check_nn(ConstRowsView a, const Matrix& b, const char* who) {
  if (a.cols != b.rows()) {
    throw std::invalid_argument(std::string(who) + ": inner dim mismatch");
  }
}

}  // namespace

void check_one_hot_row(const OneHotRows& x, std::size_t r, const char* who) {
  const std::uint32_t kb = x.offsets[r];
  const std::uint32_t ke = x.offsets[r + 1];
  if (ke < kb || ke > x.ids.size()) {
    throw std::invalid_argument(std::string(who) + ": malformed input rows");
  }
  for (std::uint32_t k = kb; k < ke; ++k) {
    if (x.ids[k] >= x.cols || (k > kb && x.ids[k] <= x.ids[k - 1])) {
      throw std::invalid_argument(std::string(who) +
                                  ": ids out of range or not ascending");
    }
  }
}

void check_one_hot(const OneHotRows& x, const char* who) {
  if (x.offsets.empty() || x.offsets.back() != x.ids.size()) {
    throw std::invalid_argument(std::string(who) + ": malformed input rows");
  }
  for (std::size_t r = 0; r < x.rows(); ++r) check_one_hot_row(x, r, who);
}

void matmul_nn(ConstRowsView a, const Matrix& b, Matrix& out,
               ThreadPool* pool) {
  check_nn(a, b, "matmul_nn");
  out.resize(a.rows, b.cols());
  const KernelBackend& be = kernel_backend();
  for_row_blocks(a.rows, pool, [&](std::size_t rb, std::size_t re) {
    be.matmul_nn_rows(a.data, b.data(), out.data(), a.cols, b.cols(), rb, re);
  });
}

void matmul_nn_acc(ConstRowsView a, const Matrix& b, RowsView out,
                   ThreadPool* pool) {
  check_nn(a, b, "matmul_nn_acc");
  if (out.rows != a.rows || out.cols != b.cols()) {
    throw std::invalid_argument("matmul_nn_acc: output shape mismatch");
  }
  const KernelBackend& be = kernel_backend();
  for_row_blocks(a.rows, pool, [&](std::size_t rb, std::size_t re) {
    be.matmul_nn_rows(a.data, b.data(), out.data, a.cols, b.cols(), rb, re);
  });
}

void matmul_tn_acc(ConstRowsView a, ConstRowsView b, Matrix& out,
                   ThreadPool* pool) {
  if (a.rows != b.rows) {
    throw std::invalid_argument("matmul_tn_acc: inner dim mismatch");
  }
  if (out.rows() != a.cols || out.cols() != b.cols) {
    throw std::invalid_argument("matmul_tn_acc: output shape mismatch");
  }
  const KernelBackend& be = kernel_backend();
  for_row_blocks(out.rows(), pool, [&](std::size_t rb, std::size_t re) {
    be.matmul_tn_rows(a.data, b.data, out.data(), a.rows, a.cols, b.cols, rb,
                      re);
  });
}

void gather_rows_acc(const OneHotRows& x, const Matrix& b, Matrix& out,
                     ThreadPool* pool) {
  if (x.cols != b.rows()) {
    throw std::invalid_argument("gather_rows_acc: malformed input rows");
  }
  if (out.rows() != x.rows() || out.cols() != b.cols()) {
    throw std::invalid_argument("gather_rows_acc: output shape mismatch");
  }
  const KernelBackend& be = kernel_backend();
  for_row_blocks(x.rows(), pool, [&](std::size_t rb, std::size_t re) {
    be.gather_rows_acc(x.ids.data(), x.offsets.data(), b.data(), out.data(),
                       b.cols(), rb, re);
  });
}

void scatter_rows_acc(const OneHotRows& x, ConstRowsView a, Matrix& out) {
  if (x.rows() != a.rows || out.rows() != x.cols || out.cols() != a.cols) {
    throw std::invalid_argument("scatter_rows_acc: shape mismatch");
  }
  kernel_backend().scatter_rows_acc(x.ids.data(), x.offsets.data(), a.data,
                                    out.data(), a.cols, 0, a.rows);
}

void gemv_add(const Matrix& wT, std::span<const float> x, std::span<float> y) {
  if (wT.rows() != x.size() || wT.cols() != y.size()) {
    throw std::invalid_argument("gemv_add: dim mismatch");
  }
  kernel_backend().gemv_acc(x.data(), wT.data(), y.data(), wT.rows(),
                            wT.cols());
}

namespace {

// Process-wide transpose() counters (kernels.hpp TransposeStats). Relaxed is
// enough: they are statistics, never used for synchronization.
std::atomic<std::uint64_t> g_transpose_calls{0};
std::atomic<std::uint64_t> g_transpose_elements{0};

}  // namespace

TransposeStats transpose_stats() {
  return {g_transpose_calls.load(std::memory_order_relaxed),
          g_transpose_elements.load(std::memory_order_relaxed)};
}

void reset_transpose_stats() {
  g_transpose_calls.store(0, std::memory_order_relaxed);
  g_transpose_elements.store(0, std::memory_order_relaxed);
}

void transpose(const Matrix& a, Matrix& out) {
  g_transpose_calls.fetch_add(1, std::memory_order_relaxed);
  g_transpose_elements.fetch_add(a.rows() * a.cols(),
                                 std::memory_order_relaxed);
  // Every element is overwritten: a cache entry of the right shape skips
  // resize's fill pass.
  if (out.rows() != a.cols() || out.cols() != a.rows()) {
    out.resize(a.cols(), a.rows());
  }
  kernel_backend().transpose(a.data(), out.data(), a.rows(), a.cols());
}

void add_bias_rows(Matrix& m, const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != m.cols()) {
    throw std::invalid_argument("add_bias_rows: bias shape mismatch");
  }
  const float* b = bias.data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.data() + r * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += b[j];
  }
}

void broadcast_rows(const Matrix& bias, std::size_t rows, Matrix& m) {
  m.resize(rows, bias.cols());
  broadcast_rows(bias, m);
}

void broadcast_rows(const Matrix& bias, RowsView m) {
  if (bias.rows() != 1 || bias.cols() != m.cols) {
    throw std::invalid_argument("broadcast_rows: bias must be a 1×cols row");
  }
  for (std::size_t r = 0; r < m.rows; ++r) {
    std::copy(bias.data(), bias.data() + m.cols, m.data + r * m.cols);
  }
}

void col_sum_acc(ConstRowsView a, Matrix& out_row) {
  if (out_row.rows() != 1 || out_row.cols() != a.cols) {
    throw std::invalid_argument("col_sum_acc: output shape mismatch");
  }
  kernel_backend().col_sum_acc(a.data, out_row.data(), a.rows, a.cols);
}

void copy_top_rows(const Matrix& src, std::size_t n, Matrix& dst) {
  if (n > src.rows()) {
    throw std::invalid_argument("copy_top_rows: n exceeds src rows");
  }
  dst.resize(n, src.cols());
  std::copy(src.data(), src.data() + n * src.cols(), dst.data());
}

void add_top_rows(RowsView dst, const Matrix& src) {
  if (src.rows() > dst.rows || src.cols() != dst.cols) {
    throw std::invalid_argument("add_top_rows: shape mismatch");
  }
  const std::size_t n = src.rows() * src.cols();
  float* d = dst.data;
  const float* s = src.data();
  for (std::size_t idx = 0; idx < n; ++idx) d[idx] += s[idx];
}

void softmax_rows(Matrix& m, ThreadPool* pool) {
  if (m.cols() == 0) return;
  const KernelBackend& be = kernel_backend();
  for_row_blocks(m.rows(), pool, [&](std::size_t rb, std::size_t re) {
    be.softmax_rows(m.data(), m.cols(), rb, re);
  });
}

void swap_rows(Matrix& m, std::size_t a, std::size_t b) {
  if (a >= m.rows() || b >= m.rows()) {
    throw std::invalid_argument("swap_rows: row out of range");
  }
  if (a == b) return;
  float* ra = m.data() + a * m.cols();
  float* rb = m.data() + b * m.cols();
  std::swap_ranges(ra, ra + m.cols(), rb);
}

void lstm_gates_forward(ConstRowsView a, ConstRowsView c_prev, Matrix& i,
                        Matrix& f, Matrix& o, Matrix& g, Matrix& c,
                        Matrix& tanh_c, Matrix& h, ThreadPool* pool) {
  const std::size_t B = a.rows;
  const std::size_t H = c_prev.cols;
  if (a.cols != 4 * H || c_prev.rows != B) {
    throw std::invalid_argument("lstm_gates_forward: shape mismatch");
  }
  i.resize(B, H);
  f.resize(B, H);
  o.resize(B, H);
  g.resize(B, H);
  c.resize(B, H);
  tanh_c.resize(B, H);
  h.resize(B, H);
  const KernelBackend& be = kernel_backend();
  for_row_blocks(B, pool, [&](std::size_t rb, std::size_t re) {
    be.gates_forward_rows(a.data, c_prev.data, i.data(), f.data(),
                          o.data(), g.data(), c.data(), tanh_c.data(),
                          h.data(), H, rb, re);
  });
}

void lstm_gates_backward(const Matrix& i, const Matrix& f, const Matrix& o,
                         const Matrix& g, ConstRowsView c_prev,
                         const Matrix& tanh_c, ConstRowsView dh,
                         const Matrix& dc_in, RowsView da, Matrix& dc_prev,
                         ThreadPool* pool) {
  const std::size_t B = i.rows();
  const std::size_t H = i.cols();
  if (dh.rows != B || dh.cols != H || c_prev.rows != B || c_prev.cols != H ||
      da.rows != B || da.cols != 4 * H || dc_in.rows() > B ||
      (!dc_in.empty() && dc_in.cols() != H)) {
    throw std::invalid_argument("lstm_gates_backward: shape mismatch");
  }
  dc_prev.resize(B, H);
  const std::size_t carry_rows = dc_in.rows();
  const KernelBackend& be = kernel_backend();
  for_row_blocks(B, pool, [&](std::size_t rb, std::size_t re) {
    be.gates_backward_rows(i.data(), f.data(), o.data(), g.data(),
                           c_prev.data, tanh_c.data(), dh.data,
                           dc_in.data(), da.data, dc_prev.data(), H,
                           carry_rows, rb, re);
  });
}

}  // namespace mlad::nn
