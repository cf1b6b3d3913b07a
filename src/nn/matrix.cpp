#include "nn/matrix.hpp"

#include <algorithm>
#include <stdexcept>

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

double Matrix::sum_squares() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
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
