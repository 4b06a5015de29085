#include "la/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace flexcs::la {
namespace {

// One-sided Jacobi on a tall matrix (m >= n): orthogonalise columns of `w`
// with plane rotations accumulated into `v`.
void jacobi_sweeps(Matrix& w, Matrix& v, double tol, int max_sweeps,
                   const SvdStopHook& should_stop) {
  const std::size_t m = w.rows(), n = w.cols();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Cooperative cut: a fired deadline/cancel stops between sweeps, leaving
    // the factors partially orthogonalised (callers treat the result like
    // any other max_sweeps truncation).
    if (should_stop && should_stop()) break;
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += w(i, p) * w(i, p);
          aqq += w(i, q) * w(i, q);
          apq += w(i, p) * w(i, q);
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0)
          continue;
        rotated = true;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = ((zeta >= 0.0) ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) break;
  }
}

SvdResult svd_tall(const Matrix& a, double tol, int max_sweeps,
                   const SvdStopHook& should_stop) {
  const std::size_t m = a.rows(), n = a.cols();
  Matrix w = a;
  Matrix v = Matrix::identity(n);
  jacobi_sweeps(w, v, tol, max_sweeps, should_stop);

  // Singular values are the column norms of the rotated matrix.
  Vector s(n);
  for (std::size_t j = 0; j < n; ++j) {
    double nn = 0.0;
    for (std::size_t i = 0; i < m; ++i) nn += w(i, j) * w(i, j);
    s[j] = std::sqrt(nn);
  }

  // Sort descending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&s](std::size_t i, std::size_t j) { return s[i] > s[j]; });

  SvdResult r;
  r.u = Matrix(m, n);
  r.s = Vector(n);
  r.v = Matrix(n, n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    const std::size_t src = order[jj];
    r.s[jj] = s[src];
    if (s[src] > 0.0) {
      for (std::size_t i = 0; i < m; ++i) r.u(i, jj) = w(i, src) / s[src];
    } else {
      // Null column: leave a zero vector (caller treats rank-deficiency via s).
      for (std::size_t i = 0; i < m; ++i) r.u(i, jj) = 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) r.v(i, jj) = v(i, src);
  }
  return r;
}

}  // namespace

SvdResult svd(const Matrix& a, double tol, int max_sweeps,
              const SvdStopHook& should_stop) {
  FLEXCS_CHECK(!a.empty(), "svd of empty matrix");
  if (a.rows() >= a.cols()) return svd_tall(a, tol, max_sweeps, should_stop);
  // Wide matrix: factor the transpose and swap factors.
  SvdResult rt = svd_tall(a.transposed(), tol, max_sweeps, should_stop);
  SvdResult r;
  r.u = std::move(rt.v);
  r.s = std::move(rt.s);
  r.v = std::move(rt.u);
  return r;
}

Matrix svd_reconstruct(const SvdResult& r) {
  Matrix us = r.u;
  for (std::size_t j = 0; j < r.s.size(); ++j)
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= r.s[j];
  return matmul_a_bt(us, r.v);
}

Matrix sv_shrink(const Matrix& a, double tau, std::size_t* rank_out,
                 const SvdStopHook& should_stop) {
  SvdResult r = svd(a, 1e-12, 60, should_stop);
  std::size_t rank = 0;
  for (std::size_t j = 0; j < r.s.size(); ++j) {
    r.s[j] = std::max(0.0, r.s[j] - tau);
    if (r.s[j] > 0.0) ++rank;
  }
  if (rank_out != nullptr) *rank_out = rank;
  return svd_reconstruct(r);
}

std::size_t effective_rank(const Matrix& a, double tol) {
  const SvdResult r = svd(a);
  if (r.s.empty() || r.s[0] == 0.0) return 0;
  std::size_t rank = 0;
  for (std::size_t i = 0; i < r.s.size(); ++i)
    if (r.s[i] > tol * r.s[0]) ++rank;
  return rank;
}

}  // namespace flexcs::la
