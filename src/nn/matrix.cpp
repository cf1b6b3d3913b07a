#include "nn/matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mlad::nn {

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::span<const float> values) {
  if (values.size() != rows * cols) {
    throw std::invalid_argument("Matrix::from_rows: value count mismatch");
  }
  Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

RowsView Matrix::block(std::size_t first, std::size_t count) {
  if (first > rows_ || count > rows_ - first) {
    throw std::out_of_range("Matrix::block: rows out of range");
  }
  return {data_.data() + first * cols_, count, cols_};
}

ConstRowsView Matrix::block(std::size_t first, std::size_t count) const {
  if (first > rows_ || count > rows_ - first) {
    throw std::out_of_range("Matrix::block: rows out of range");
  }
  return {data_.data() + first * cols_, count, cols_};
}

void OneHotRows::append_row(const OneHotRows& other, std::size_t r) {
  if (other.cols != cols || r >= other.rows()) {
    throw std::invalid_argument("OneHotRows::append_row: bad source row");
  }
  ids.insert(ids.end(), other.ids.begin() + other.offsets[r],
             other.ids.begin() + other.offsets[r + 1]);
  end_row();
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::hadamard(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("hadamard: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

// The double square of a float is exact (24-bit significands, 48 bits of
// product), so an FMA-contracted `s += v * v` (a -march=native build) has
// the bits of a multiply then an add: sum_squares_side_by_side, which
// squares packed and adds apart, matches this in every build.
double Matrix::sum_squares() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

namespace {

/// The chains of sum_squares_side_by_side for M buffers over elements
/// [lo, hi): each a serial double chain, the M of them interleaved. The
/// squares of a block are computed first, packed: a scalar float→double
/// conversion merges into its destination register, which tied every
/// chain to the previous element's square through that register.
template <std::size_t M>
void advance_chains(const float* const* p, double* s, std::size_t lo,
                    std::size_t hi) {
  constexpr std::size_t kBlock = 256;
  double sq[M][kBlock];
  double acc[M];
  for (std::size_t c = 0; c < M; ++c) acc[c] = s[c];
  for (std::size_t b = lo; b < hi; b += kBlock) {
    const std::size_t n = std::min(kBlock, hi - b);
    for (std::size_t c = 0; c < M; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = p[c][b + i];
        sq[c][i] = v * v;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < M; ++c) acc[c] += sq[c][i];
    }
  }
  for (std::size_t c = 0; c < M; ++c) s[c] = acc[c];
}

}  // namespace

void sum_squares_side_by_side(std::span<const std::span<const float>> bufs,
                              std::span<double> out) {
  if (out.size() != bufs.size()) {
    throw std::invalid_argument("sum_squares_side_by_side: size mismatch");
  }
  // Four consecutive buffers at a time, longest first within the group: a
  // group drops a chain as the chain reaches its end. Everything lives on
  // the stack — the trainer calls this once per optimizer step.
  for (std::size_t g = 0; g < bufs.size(); g += 4) {
    const std::size_t m = std::min<std::size_t>(4, bufs.size() - g);
    std::size_t order[4];
    for (std::size_t c = 0; c < m; ++c) {
      order[c] = g + c;  // insertion sort, longest first
      for (std::size_t d = c;
           d > 0 && bufs[order[d]].size() > bufs[order[d - 1]].size(); --d) {
        std::swap(order[d], order[d - 1]);
      }
    }
    const float* p[4] = {};
    double s[4] = {};
    for (std::size_t c = 0; c < m; ++c) p[c] = bufs[order[c]].data();
    // While `live` chains remain, elements [lo, hi) advance chains
    // [0, live), hi being where the shortest of them (live - 1) ends.
    std::size_t lo = 0;
    for (std::size_t live = m; live > 0; --live) {
      const std::size_t hi = bufs[order[live - 1]].size();
      switch (live) {
        case 4: advance_chains<4>(p, s, lo, hi); break;
        case 3: advance_chains<3>(p, s, lo, hi); break;
        case 2: advance_chains<2>(p, s, lo, hi); break;
        default: advance_chains<1>(p, s, lo, hi); break;
      }
      lo = hi;
    }
    for (std::size_t c = 0; c < m; ++c) out[order[c]] = s[c];
  }
}

double Matrix::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  out.resize(a.rows(), b.cols());
  // i-k-j loop order: unit-stride inner loop over b's rows.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* out_row = out.data() + i * out.cols();
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      const float* b_row = b.data() + k * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
}

void matmul_transposed_b(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transposed_b: dim mismatch");
  }
  out.resize(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* a_row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* b_row = b.data() + j * b.cols();
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a_row[k] * b_row[k];
      out(i, j) = acc;
    }
  }
}

void matmul_transposed_a(const Matrix& a, const Matrix& b, Matrix& out) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_transposed_a: dim mismatch");
  }
  out.resize(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const float* a_row = a.data() + k * a.cols();
    const float* b_row = b.data() + k * b.cols();
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = a_row[i];
      if (aki == 0.0f) continue;
      float* out_row = out.data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out_row[j] += aki * b_row[j];
      }
    }
  }
}

void outer_add(std::span<const float> g, std::span<const float> x,
               Matrix& grad_w) {
  if (grad_w.rows() != g.size() || grad_w.cols() != x.size()) {
    throw std::invalid_argument("outer_add: dim mismatch");
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    float* row = grad_w.data() + i * grad_w.cols();
    for (std::size_t j = 0; j < x.size(); ++j) row[j] += gi * x[j];
  }
}

void gemv_transposed_add(const Matrix& w, std::span<const float> g,
                         std::span<float> y) {
  if (w.rows() != g.size() || w.cols() != y.size()) {
    throw std::invalid_argument("gemv_transposed_add: dim mismatch");
  }
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    const float* row = w.data() + i * w.cols();
    for (std::size_t j = 0; j < w.cols(); ++j) y[j] += gi * row[j];
  }
}

}  // namespace mlad::nn
