// Dense row-major matrix of floats — the numeric workhorse of the from-
// scratch neural-network substrate (the paper trained its LSTM in a Python
// framework; we reimplement the math directly, see DESIGN.md §2).
//
// The type is deliberately small: exactly the operations the LSTM forward /
// backward passes and the baseline models need, all bounds-checked in debug
// builds and allocation-free on the hot paths that matter.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace mlad::nn {

/// Allocator that starts every block on a 64-byte cache-line boundary
/// (DESIGN.md §2). glibc's malloc returns 16-byte alignment, and blocks
/// large enough to be mmap'd start 16 bytes past a page, so a 64-byte SIMD
/// load of such a buffer straddled two lines almost every time. Aligned
/// operator new pairs with aligned operator delete.
template <typename T>
struct LineAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) noexcept {}  // NOLINT: rebind

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  template <typename U>
  bool operator==(const LineAllocator<U>&) const noexcept {
    return true;
  }
};

/// Line-aligned float storage: Matrix's buffer and Adam's moments.
using LineFloats = std::vector<float, LineAllocator<float>>;

class Matrix;

/// Consecutive rows of a row-major float matrix, by pointer: a whole Matrix,
/// or one timestep's rows of a stacked training tape (DESIGN.md §4). Non-
/// owning — valid while the Matrix it points into is neither resized nor
/// destroyed. The kernels take these so a per-step loop can work in place
/// on slices of whole-window buffers.
struct ConstRowsView {
  const float* data;
  std::size_t rows;
  std::size_t cols;

  ConstRowsView(const float* d, std::size_t r, std::size_t c)
      : data(d), rows(r), cols(c) {}
  ConstRowsView(const Matrix& m);  // NOLINT: a Matrix is a view of itself
};

struct RowsView {
  float* data;
  std::size_t rows;
  std::size_t cols;

  RowsView(float* d, std::size_t r, std::size_t c)
      : data(d), rows(r), cols(c) {}
  RowsView(Matrix& m);  // NOLINT: a Matrix is a view of itself
  operator ConstRowsView() const { return {data, rows, cols}; }
};

/// Row-major dense matrix. A row vector is a Matrix with rows()==1. data()
/// starts on a cache line; rows are not padded, so row r > 0 is aligned
/// only when cols() is a multiple of 16.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::span<const float> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Rows [first, first + count) as a view; throws std::out_of_range past
  /// the end.
  RowsView block(std::size_t first, std::size_t count);
  ConstRowsView block(std::size_t first, std::size_t count) const;

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }
  /// Change only the row count, PRESERVING the surviving rows (row-major
  /// storage makes this a plain tail resize; `resize` by contrast discards
  /// everything). New rows are filled with `fill`; shrinking keeps the
  /// vector's capacity, so a later re-grow recycles the same allocation —
  /// the stream-slot recycling the serve engine's link lifecycle relies on.
  void resize_rows(std::size_t rows, float fill = 0.0f) {
    data_.resize(rows * cols_, fill);
    rows_ = rows;
  }

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);
  /// Hadamard (element-wise) product in place.
  Matrix& hadamard(const Matrix& other);

  /// Apply f to every element in place. Header-only template so the functor
  /// inlines into the loop (no std::function call per element on hot paths).
  template <typename F>
  Matrix& apply(F&& f) {
    for (float& v : data_) v = f(v);
    return *this;
  }

  /// Frobenius-norm squared: one serial double chain in element order.
  double sum_squares() const;
  /// Sum of all entries.
  double sum() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  LineFloats data_;
};

inline ConstRowsView::ConstRowsView(const Matrix& m)
    : data(m.data()), rows(m.rows()), cols(m.cols()) {}
inline RowsView::RowsView(Matrix& m)
    : data(m.data()), rows(m.rows()), cols(m.cols()) {}

/// A batch of 0/1 rows stored as each row's active column ids: row r is
/// ids[offsets[r] .. offsets[r+1]), strictly ascending. The layer-0 input of
/// batched inference and training (one id per discretized feature plus the
/// noisy bit), whose product with a weight matrix is a row gather and whose
/// weight gradient is a row scatter (DESIGN.md §2).
struct OneHotRows {
  std::size_t cols = 0;                   ///< width of the dense equivalent
  std::vector<std::uint32_t> ids;         ///< active columns, row after row
  std::vector<std::uint32_t> offsets{0};  ///< rows() + 1 entries

  std::size_t rows() const { return offsets.size() - 1; }
  /// Drop every row; the next rows are `width` columns wide.
  void clear(std::size_t width) {
    cols = width;
    ids.clear();
    offsets.assign(1, 0);
  }
  /// Close the row whose ids were appended since the last end_row().
  void end_row() { offsets.push_back(static_cast<std::uint32_t>(ids.size())); }
  /// Append a copy of row r of `other` (same width).
  void append_row(const OneHotRows& other, std::size_t r);
};

/// out[i] = the sum of squares of bufs[i] exactly as Matrix::sum_squares
/// computes it (one serial double chain in element order), the chains of
/// four consecutive buffers advanced side by side, so their add latencies
/// overlap instead of queuing one after another (DESIGN.md §11). Allocates
/// nothing. out.size() must equal bufs.size().
void sum_squares_side_by_side(std::span<const std::span<const float>> bufs,
                              std::span<double> out);

/// out = a * b. Shapes must agree; `out` is resized.
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * bᵀ.
void matmul_transposed_b(const Matrix& a, const Matrix& b, Matrix& out);

/// out = aᵀ * b.
void matmul_transposed_a(const Matrix& a, const Matrix& b, Matrix& out);

/// accumulate outer product: grad_w += gᵀ x  (g: 1×out, x: 1×in, w: out×in).
void outer_add(std::span<const float> g, std::span<const float> x, Matrix& grad_w);

/// y += Wᵀ g (back-prop through gemv_add): g: 1×out, y: 1×in.
void gemv_transposed_add(const Matrix& w, std::span<const float> g,
                         std::span<float> y);

}  // namespace mlad::nn
