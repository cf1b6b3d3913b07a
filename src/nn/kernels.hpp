// Batched matrix kernels — the bottom layer of the NN engine (DESIGN.md §2).
//
// These are the blocked, vectorizable primitives the batched LSTM forward /
// backward passes are built from. They complement (not replace) the
// sample-at-a-time reference primitives in matrix.hpp: the reference path
// stays authoritative for parity tests, the kernels here are the hot path.
//
// Determinism contract (DESIGN.md §5): every output element is computed by a
// fixed-order summation that does not depend on the pool size, and parallel
// execution only partitions *rows* of the output across workers. Results are
// therefore bit-identical for any `pool` (including nullptr).
//
// The matmul and gate inner loops run on a pluggable SIMD backend
// (kernel_backend.hpp): scalar (reference), AVX2+FMA or AVX-512, selected
// once by runtime cpuid dispatch and overridable via MLAD_KERNEL_BACKEND. The
// determinism contract holds *per backend*; backends may differ from each
// other within a documented tolerance (DESIGN.md §7).
//
// Convention: weights are stored as in the cells (W: out×in); the batched
// forward multiplies activations (B×in) by a pre-transposed copy (in×out) so
// the inner loops stream both operands with unit stride.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/thread_pool.hpp"
#include "nn/matrix.hpp"

namespace mlad::nn {

/// out = a · b (a: M×K, b: K×N). `out` is resized and overwritten.
void matmul_nn(ConstRowsView a, const Matrix& b, Matrix& out,
               ThreadPool* pool = nullptr);

/// out += a · b. `out` must already be M×N.
void matmul_nn_acc(ConstRowsView a, const Matrix& b, RowsView out,
                   ThreadPool* pool = nullptr);

/// out += aᵀ · b (a: K×M, b: K×N, out: M×N) — the gradient-accumulation
/// product (grad_W += dAᵀ · X). Per out element the k order is ascending,
/// so on the FMA backends one call over stacked rows equals the sequence
/// of calls over its row blocks bitwise (DESIGN.md §4).
void matmul_tn_acc(ConstRowsView a, ConstRowsView b, Matrix& out,
                   ThreadPool* pool = nullptr);

/// Throws std::invalid_argument (message prefixed by `who`) unless x's
/// offsets are consistent and every row's ids are strictly ascending and
/// below x.cols — what the gather and scatter below index by. The entry
/// points that take ids from outside check them once
/// (LstmCell::forward_batch whole, train_window_batch row by row as it
/// stacks them); the gather and scatter do not re-check (DESIGN.md §2).
void check_one_hot(const OneHotRows& x, const char* who);
/// The same for row r < x.rows() alone: its ids lie inside x.ids, strictly
/// ascending and below x.cols.
void check_one_hot_row(const OneHotRows& x, std::size_t r, const char* who);

/// out += x · b for 0/1 rows x (x.cols == b.rows(), out: x.rows()×b.cols()):
/// row r adds the b rows its ids select, ascending, with plain float adds —
/// bitwise the same on every backend (DESIGN.md §2, §7). Throws on a shape
/// mismatch; x's ids must already pass check_one_hot.
void gather_rows_acc(const OneHotRows& x, const Matrix& b, Matrix& out,
                     ThreadPool* pool = nullptr);

/// out += xᵀ · a for 0/1 rows x (x.rows() == a.rows, out: x.cols × a.cols):
/// row r of a is added into out at each of its ids, rows ascending, with
/// plain float adds — the transposed layer-0 weight gradient (DESIGN.md
/// §4, §7). Bitwise the same on every backend; on the FMA backends also the
/// transpose of matmul_tn_acc(a, dense x). Throws on a shape mismatch;
/// x's ids must already pass check_one_hot.
void scatter_rows_acc(const OneHotRows& x, ConstRowsView a, Matrix& out);

/// y += W x for one input vector x, given W's transpose wT (in×out,
/// x.size() == wT.rows(), y.size() == wT.cols()): the single-stream gate
/// and softmax product (DESIGN.md §2). Per y[n], a chain from +0 over
/// ascending j with x[j] != 0 adds x[j]·W(n, j) — a multiply, then an add,
/// no FMA — and y[n] then adds the chain; bitwise the same on every backend
/// and bitwise the dense one-row dot product for finite W. Callers build wT
/// once per weight version (a stream, a pass, a training window).
void gemv_add(const Matrix& wT, std::span<const float> x, std::span<float> y);

/// out = aᵀ (resized) on the active backend — an exact copy, in-register
/// 16×16 tiles on AVX-512, cached 16×16 tiles on the scalar and AVX2
/// backends. Used to cache transposed weights once per optimizer step
/// (DESIGN.md §11).
void transpose(const Matrix& a, Matrix& out);

/// Cumulative process-wide transpose() counters, maintained with relaxed
/// atomics (negligible overhead; safe under concurrent lanes). Benchmarks
/// and tests use these to measure how much re-transposition the
/// transposed-weight cache (DESIGN.md §11) eliminates from training.
struct TransposeStats {
  std::uint64_t calls = 0;     ///< number of transpose() invocations
  std::uint64_t elements = 0;  ///< total elements copied across them
};

/// Snapshot of the counters since process start / the last reset.
TransposeStats transpose_stats();

/// Zero the counters (bench/test scoping; not for concurrent use with timed
/// sections you care about).
void reset_transpose_stats();

/// Every row of m gets bias (1×m.cols()) added. Usually fused by seeding the
/// output with the bias instead; exposed for clarity and tests.
void add_bias_rows(Matrix& m, const Matrix& bias);

/// m is resized to rows×bias.cols() and every row is set to bias (1×C).
void broadcast_rows(const Matrix& bias, std::size_t rows, Matrix& m);

/// out_row (1×a.cols) += column sums of a, summed in row order on the
/// active backend (vectorized over columns; the same bits everywhere).
void col_sum_acc(ConstRowsView a, Matrix& out_row);

/// dst = the first n rows of src (resized to n×src.cols()).
void copy_top_rows(const Matrix& src, std::size_t n, Matrix& dst);

/// dst.row(r) += src.row(r) for r < src.rows(); src.rows() <= dst.rows.
void add_top_rows(RowsView dst, const Matrix& src);

/// Numerically-stabilized softmax over every row of m, in place — the
/// training loss's; inference ranks on logits (DESIGN.md §5). Runs on the
/// active kernel backend (scalar reference = the historical libm loop,
/// bit-for-bit; SIMD backends reuse their polynomial exp). Per row the
/// result is a fixed function of the row content and m.cols() alone.
void softmax_rows(Matrix& m, ThreadPool* pool = nullptr);

/// Swap two rows of m in place (stream-slot compaction in the serve layer).
void swap_rows(Matrix& m, std::size_t a, std::size_t b);

/// Fused LSTM gate activations + cell update over a batch (DESIGN.md §2).
///
/// `a` holds the B×4H pre-activations in gate order [i, f, o, g]; `c_prev`
/// is B×H. Writes the sigmoid/tanh gate activations and the new cell /
/// hidden state into the B×H outputs (all resized).
void lstm_gates_forward(ConstRowsView a, ConstRowsView c_prev, Matrix& i,
                        Matrix& f, Matrix& o, Matrix& g, Matrix& c,
                        Matrix& tanh_c, Matrix& h, ThreadPool* pool = nullptr);

/// Backward of lstm_gates_forward.
///
/// Inputs are the cached gate activations, `dh` = ∂L/∂h_t (B×H) and `dc_in`
/// = the recurrent ∂L/∂c_t from step t+1, which may have FEWER rows than B
/// (sequences that already ended contribute zero). Writes the pre-activation
/// gradient into `da` (B×4H, gate order [i,f,o,g]; the caller sizes it —
/// usually one step's rows of a whole-window buffer) and ∂L/∂c_{t-1} into
/// dc_prev (resized to B×H).
void lstm_gates_backward(const Matrix& i, const Matrix& f, const Matrix& o,
                         const Matrix& g, ConstRowsView c_prev,
                         const Matrix& tanh_c, ConstRowsView dh,
                         const Matrix& dc_in, RowsView da, Matrix& dc_prev,
                         ThreadPool* pool = nullptr);

}  // namespace mlad::nn
