// Dense double-precision linear algebra: Vector, Matrix and the BLAS-like
// kernels the rest of flexcs builds on. Everything is hand-rolled — the
// library has no external numerical dependencies.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace flexcs::la {

class Matrix;

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access; throws CheckError when out of range.
  double& at(std::size_t i);
  double at(std::size_t i) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& raw() const { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  /// Euclidean norm.
  double norm2() const;
  /// Sum of absolute values.
  double norm1() const;
  /// Max absolute value (0 for empty vector).
  double norm_inf() const;
  double sum() const;
  double mean() const;

  void fill(double v);
  void resize(std::size_t n, double fill = 0.0) { data_.resize(n, fill); }

 private:
  std::vector<double> data_;
};

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(Vector a, double s);
Vector operator*(double s, Vector a);
Vector operator/(Vector a, double s);

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Construct from nested initializer list (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const Vector& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws CheckError when out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  Matrix transposed() const;

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);
  void set_col(std::size_t c, const Vector& v);

  /// Frobenius norm.
  double norm_fro() const;
  /// Largest absolute entry.
  double norm_max() const;
  double sum() const;

  void fill(double v);

  /// Returns the sub-matrix with the given rows (in order).
  Matrix select_rows(const std::vector<std::size_t>& row_idx) const;

  /// Flattens row-major into a vector (for image <-> vector plumbing).
  Vector flatten() const;
  /// Inverse of flatten: reshape a vector into rows x cols.
  static Matrix from_flat(const Vector& v, std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// Matrix-matrix product (ikj loop order, cache-friendly for row-major).
Matrix matmul(const Matrix& a, const Matrix& b);
/// a^T * b without materialising the transpose.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);
/// a * b^T without materialising the transpose.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);
/// Matrix-vector product.
Vector matvec(const Matrix& a, const Vector& x);
/// a^T * x without materialising the transpose.
Vector matvec_t(const Matrix& a, const Vector& x);

/// Gram matrix a^T a.
Matrix gram(const Matrix& a);

/// Largest singular value via power iteration on a^T a. Deterministic start:
/// la::operator_norm_estimate on the borrowed matrix (la/operator.hpp).
double spectral_norm(const Matrix& a, int iters = 60);

/// Max |a(i,j) - b(i,j)|; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);
double max_abs_diff(const Vector& a, const Vector& b);

/// True when every entry is finite (no NaN or ±Inf). Used by the solver and
/// codec entry points to reject poisoned inputs up front: a single NaN
/// measurement silently corrupts an entire L1 recovery otherwise.
bool all_finite(const Vector& v);
bool all_finite(const Matrix& a);

}  // namespace flexcs::la
