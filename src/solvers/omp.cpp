#include "solvers/omp.hpp"

#include <cmath>
#include <vector>

#include "la/decomp.hpp"

namespace flexcs::solvers {

SolveResult OmpSolver::solve_impl(const la::LinearOperator& aop,
                                  const la::Vector& b,
                                  const SolveOptions& ctrl) const {
  validate_solve_inputs(aop, b, "OMP");
  const std::size_t m = aop.rows(), n = aop.cols();
  const std::size_t kmax =
      opts_.max_sparsity > 0 ? std::min(opts_.max_sparsity, m) : m / 2;

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  const double bnorm = b.norm2();
  if (bnorm == 0.0 || kmax == 0) {
    result.converged = true;
    return result;
  }
  if (ctrl.should_stop()) {
    result.deadline_expired = true;
    result.residual_norm = bnorm;
    return result;
  }

  // OMP reads individual matrix entries (incremental support Gram): an
  // implicit operator is materialised once as its M x N matrix, under the
  // same deadline as the solve (an abandoned build comes back empty).
  la::Matrix materialised;
  if (aop.dense() == nullptr) {
    materialised = la::to_dense(aop, [&ctrl] { return ctrl.should_stop(); });
    if (materialised.empty()) {
      result.deadline_expired = true;
      result.residual_norm = bnorm;
      return result;
    }
  }
  const la::Matrix& a = aop.dense() != nullptr ? *aop.dense() : materialised;

  std::vector<std::size_t> support;
  support.reserve(kmax);
  std::vector<char> in_support(n, 0);

  // Incrementally grown Cholesky factor L of G = As^T As (k x k, lower),
  // stored dense in a kmax x kmax buffer. Adding column j appends a row to L
  // in O(k^2).
  la::Matrix l(kmax, kmax, 0.0);
  la::Vector atb_s(kmax);        // As^T b restricted to the support
  la::Vector coef;               // current solution on the support
  la::Vector residual = b;

  for (std::size_t k = 0; k < kmax; ++k) {
    if (ctrl.should_stop()) {
      // The partial support solution is already the least-squares best over
      // the columns selected so far; stop growing the support.
      result.deadline_expired = true;
      break;
    }
    // Select the column most correlated with the residual.
    la::Vector corr = matvec_t(a, residual);
    std::size_t best = n;
    double best_abs = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (in_support[j]) continue;
      const double c = std::fabs(corr[j]);
      if (c > best_abs) {
        best_abs = c;
        best = j;
      }
    }
    if (best == n || best_abs < 1e-14) break;  // no informative column left

    // Append to the Cholesky factor: new row v with L_k v = As^T a_best,
    // diagonal sqrt(a_best^T a_best - v^T v).
    la::Vector g(k);  // As^T a_best
    for (std::size_t i = 0; i < k; ++i) {
      double s = 0.0;
      for (std::size_t r = 0; r < m; ++r) s += a(r, support[i]) * a(r, best);
      g[i] = s;
    }
    double djj = 0.0;
    for (std::size_t r = 0; r < m; ++r) djj += a(r, best) * a(r, best);
    la::Vector v(k);
    for (std::size_t i = 0; i < k; ++i) {
      double s = g[i];
      for (std::size_t t = 0; t < i; ++t) s -= l(i, t) * v[t];
      v[i] = s / l(i, i);
    }
    double diag2 = djj;
    for (std::size_t i = 0; i < k; ++i) diag2 -= v[i] * v[i];
    if (diag2 <= 1e-12) break;  // new column (numerically) dependent: stop
    for (std::size_t i = 0; i < k; ++i) l(k, i) = v[i];
    l(k, k) = std::sqrt(diag2);

    support.push_back(best);
    in_support[best] = 1;
    double s = 0.0;
    for (std::size_t r = 0; r < m; ++r) s += a(r, best) * b[r];
    atb_s[k] = s;

    // Solve G coef = As^T b via the factor: L y = rhs, L^T coef = y.
    const std::size_t ks = k + 1;
    la::Vector y(ks);
    for (std::size_t i = 0; i < ks; ++i) {
      double acc = atb_s[i];
      for (std::size_t t = 0; t < i; ++t) acc -= l(i, t) * y[t];
      y[i] = acc / l(i, i);
    }
    coef = la::Vector(ks);
    for (std::size_t ii = ks; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t t = ii + 1; t < ks; ++t) acc -= l(t, ii) * coef[t];
      coef[ii] = acc / l(ii, ii);
    }

    // Residual r = b - As coef.
    residual = b;
    for (std::size_t i = 0; i < ks; ++i) {
      const double ci = coef[i];
      if (ci == 0.0) continue;
      for (std::size_t r = 0; r < m; ++r) residual[r] -= ci * a(r, support[i]);
    }
    result.iterations = static_cast<int>(ks);
    if (residual.norm2() / bnorm < opts_.residual_tol) {
      result.converged = true;
      break;
    }
  }

  for (std::size_t i = 0; i < support.size(); ++i)
    result.x[support[i]] = coef[i];
  result.residual_norm = residual.norm2();
  if (!result.converged)
    result.converged = result.residual_norm / bnorm < opts_.residual_tol;
  return result;
}

}  // namespace flexcs::solvers
