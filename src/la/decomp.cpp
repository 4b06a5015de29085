#include "la/decomp.hpp"

#include <cmath>

#include "common/check.hpp"

namespace flexcs::la {

Matrix cholesky(const Matrix& a) {
  FLEXCS_CHECK(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    FLEXCS_CHECK(d > 0.0, "matrix not positive definite in cholesky");
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  Vector y = solve_lower(l, b);
  return solve_upper(l.transposed(), y);
}

LuFactors lu_decompose(const Matrix& a) {
  FLEXCS_CHECK(a.rows() == a.cols(), "lu requires a square matrix");
  const std::size_t n = a.rows();
  LuFactors f;
  f.lu = a;
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at/below the diagonal.
    std::size_t piv = k;
    double maxval = std::fabs(f.lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(f.lu(i, k));
      if (v > maxval) {
        maxval = v;
        piv = i;
      }
    }
    FLEXCS_CHECK(maxval > 1e-300, "singular matrix in lu_decompose");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(f.lu(k, c), f.lu(piv, c));
      std::swap(f.perm[k], f.perm[piv]);
    }
    const double pivot = f.lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = f.lu(i, k) / pivot;
      f.lu(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) f.lu(i, c) -= m * f.lu(k, c);
    }
  }
  return f;
}

Vector lu_solve(const LuFactors& f, const Vector& b) {
  const std::size_t n = f.lu.rows();
  FLEXCS_CHECK(b.size() == n, "lu_solve size mismatch");
  // Apply permutation, then forward/back substitution on the packed factors.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[f.perm[i]];
  for (std::size_t i = 0; i < n; ++i) {
    double s = y[i];
    for (std::size_t k = 0; k < i; ++k) s -= f.lu(i, k) * y[k];
    y[i] = s;  // L has unit diagonal
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= f.lu(ii, k) * x[k];
    x[ii] = s / f.lu(ii, ii);
  }
  return x;
}

Vector solve(const Matrix& a, const Vector& b) {
  return lu_solve(lu_decompose(a), b);
}

Vector solve_upper(const Matrix& r, const Vector& b) {
  const std::size_t n = r.rows();
  FLEXCS_CHECK(r.cols() == n && b.size() == n, "solve_upper shape mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= r(ii, k) * x[k];
    FLEXCS_CHECK(std::fabs(r(ii, ii)) > 1e-300, "singular upper triangle");
    x[ii] = s / r(ii, ii);
  }
  return x;
}

Vector solve_lower(const Matrix& l, const Vector& b, bool unit_diagonal) {
  const std::size_t n = l.rows();
  FLEXCS_CHECK(l.cols() == n && b.size() == n, "solve_lower shape mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    if (unit_diagonal) {
      x[i] = s;
    } else {
      FLEXCS_CHECK(std::fabs(l(i, i)) > 1e-300, "singular lower triangle");
      x[i] = s / l(i, i);
    }
  }
  return x;
}

}  // namespace flexcs::la
