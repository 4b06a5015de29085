#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace flexcs::la {

// ---------------------------------------------------------------------------
// Vector

double& Vector::at(std::size_t i) {
  FLEXCS_CHECK(i < data_.size(), "vector index out of range");
  return data_[i];
}

double Vector::at(std::size_t i) const {
  FLEXCS_CHECK(i < data_.size(), "vector index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& other) {
  FLEXCS_CHECK(size() == other.size(), "vector size mismatch in +=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  FLEXCS_CHECK(size() == other.size(), "vector size mismatch in -=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  FLEXCS_CHECK(s != 0.0, "vector division by zero");
  return *this *= (1.0 / s);
}

double Vector::norm2() const {
  // Scaled accumulation guards against overflow for extreme magnitudes.
  double scale = 0.0;
  double ssq = 1.0;
  for (double v : data_) {
    if (v == 0.0) continue;
    const double a = std::fabs(v);
    if (scale < a) {
      ssq = 1.0 + ssq * (scale / a) * (scale / a);
      scale = a;
    } else {
      ssq += (a / scale) * (a / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double Vector::norm1() const {
  double s = 0.0;
  for (double v : data_) s += std::fabs(v);
  return s;
}

double Vector::norm_inf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Vector::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Vector::mean() const {
  FLEXCS_CHECK(!data_.empty(), "mean of empty vector");
  return sum() / static_cast<double>(data_.size());
}

void Vector::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Vector operator+(Vector a, const Vector& b) { return a += b; }
Vector operator-(Vector a, const Vector& b) { return a -= b; }
Vector operator*(Vector a, double s) { return a *= s; }
Vector operator*(double s, Vector a) { return a *= s; }
Vector operator/(Vector a, double s) { return a /= s; }

double dot(const Vector& a, const Vector& b) {
  FLEXCS_CHECK(a.size() == b.size(), "vector size mismatch in dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// ---------------------------------------------------------------------------
// Matrix

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    FLEXCS_CHECK(row.size() == cols_, "ragged initializer list for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  FLEXCS_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  FLEXCS_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  FLEXCS_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  FLEXCS_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector Matrix::row(std::size_t r) const {
  FLEXCS_CHECK(r < rows_, "row index out of range");
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  FLEXCS_CHECK(c < cols_, "col index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  FLEXCS_CHECK(r < rows_ && v.size() == cols_, "set_row shape mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  FLEXCS_CHECK(c < cols_ && v.size() == rows_, "set_col shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

double Matrix::norm_fro() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::norm_max() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::select_rows(const std::vector<std::size_t>& row_idx) const {
  Matrix out(row_idx.size(), cols_);
  for (std::size_t i = 0; i < row_idx.size(); ++i) {
    FLEXCS_CHECK(row_idx[i] < rows_, "select_rows index out of range");
    const double* src = row_ptr(row_idx[i]);
    double* dst = out.row_ptr(i);
    std::copy(src, src + cols_, dst);
  }
  return out;
}

Vector Matrix::flatten() const { return Vector(data_); }

Matrix Matrix::from_flat(const Vector& v, std::size_t rows, std::size_t cols) {
  FLEXCS_CHECK(v.size() == rows * cols, "from_flat size mismatch");
  Matrix m(rows, cols);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  FLEXCS_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  const std::size_t n = a.rows(), k_dim = a.cols(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  FLEXCS_CHECK(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  Matrix c(a.cols(), b.cols(), 0.0);
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const double* arow = a.row_ptr(k);
    const double* brow = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  FLEXCS_CHECK(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  Matrix c(a.rows(), b.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_ptr(j);
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  FLEXCS_CHECK(a.cols() == x.size(), "matvec shape mismatch");
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  FLEXCS_CHECK(a.rows() == x.size(), "matvec_t shape mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += arow[j] * xi;
  }
  return y;
}

Matrix gram(const Matrix& a) { return matmul_at_b(a, a); }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  FLEXCS_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  FLEXCS_CHECK(a.size() == b.size(), "max_abs_diff size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool all_finite(const Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

bool all_finite(const Matrix& a) {
  const double* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

}  // namespace flexcs::la
