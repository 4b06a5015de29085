// Matrix factorisations and linear solvers: Cholesky, LU with partial
// pivoting, triangular solves and general solve.
#pragma once

#include "la/matrix.hpp"

namespace flexcs::la {

/// Cholesky factor L (lower triangular) with A = L L^T.
/// Throws CheckError if A is not symmetric positive definite (within a
/// pivot tolerance).
Matrix cholesky(const Matrix& a);

/// Solves A x = b given the Cholesky factor L of A.
Vector cholesky_solve(const Matrix& l, const Vector& b);

/// LU factorisation with partial pivoting: P A = L U.
/// `lu` stores L (unit diagonal, below) and U (on/above diagonal);
/// `perm[i]` is the source row of permuted row i.
struct LuFactors {
  Matrix lu;
  std::vector<std::size_t> perm;
};

/// Throws CheckError when the matrix is singular to working precision.
LuFactors lu_decompose(const Matrix& a);

/// Solves A x = b from an LU factorisation.
Vector lu_solve(const LuFactors& f, const Vector& b);

/// Convenience: solve a square system A x = b (LU under the hood).
Vector solve(const Matrix& a, const Vector& b);

/// Solves upper-triangular R x = b by back substitution.
Vector solve_upper(const Matrix& r, const Vector& b);

/// Solves lower-triangular L x = b by forward substitution.
/// When unit_diagonal is true the diagonal is assumed to be ones.
Vector solve_lower(const Matrix& l, const Vector& b, bool unit_diagonal = false);

}  // namespace flexcs::la
