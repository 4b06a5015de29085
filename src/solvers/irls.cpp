#include "solvers/irls.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace flexcs::solvers {
namespace {

// Smoothing eps of W = diag(|x| + eps): starts at kEpsInitial and halves
// every iteration down to kEpsFloor.
constexpr double kEpsInitial = 1.0;
constexpr double kEpsFloor = 1e-8;
// Diagonal regulariser of A W A^T.
constexpr double kRidge = 1e-10;

}  // namespace

SolveResult IrlsSolver::solve_impl(const la::LinearOperator& a,
                                   const la::Vector& b,
                                   const SolveOptions& ctrl) const {
  validate_solve_inputs(a, b, "IRLS");
  const std::size_t m = a.rows(), n = a.cols();

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  if (b.norm2() == 0.0) {
    result.converged = true;
    return result;
  }
  if (ctrl.should_stop()) {
    result.deadline_expired = true;
    result.residual_norm = b.norm2();
    return result;
  }

  // Start from the minimum-l2-norm solution (W = I).
  la::Vector x(n, 0.0);
  double eps = kEpsInitial;
  la::Vector y_warm;  // warm start for the inner CG

  for (int it = 0; it < opts_.max_iterations; ++it) {
    if (ctrl.should_stop()) {
      result.deadline_expired = true;
      break;
    }
    // Solve (A W A^T + ridge I) y = b with W = diag(|x| + eps) by conjugate
    // gradient, warm-started from the previous outer iteration's y (W
    // changes slowly once the iterate stabilises), then x_new = W A^T y.
    // v -> A (W (A^T v)) + ridge v.
    const auto apply_k = [&a, &x, eps](const la::Vector& v,
                                       la::Vector& out) {
      la::Vector wv = a.apply_adjoint(v);
      for (std::size_t j = 0; j < wv.size(); ++j)
        wv[j] *= std::fabs(x[j]) + eps;
      out = a.apply(wv);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += kRidge * v[i];
    };
    la::CgOptions cg;
    cg.tol = 1e-10;
    cg.max_iterations = static_cast<int>(std::max<std::size_t>(200, m / 4));
    cg.should_stop = [&ctrl] { return ctrl.should_stop(); };
    const la::CgResult inner = la::cg_solve(apply_k, b, cg, y_warm);
    y_warm = inner.x;
    la::Vector x_new = a.apply_adjoint(inner.x);
    for (std::size_t j = 0; j < n; ++j) x_new[j] *= std::fabs(x[j]) + eps;

    const double dx = la::max_abs_diff(x_new, x);
    const double xmax = std::max(1e-12, x_new.norm_inf());
    x = x_new;
    result.iterations = it + 1;

    // Anneal the smoothing parameter as the iterate stabilises.
    eps = std::max(kEpsFloor, eps * 0.5);
    if (dx / xmax < opts_.tol && eps <= kEpsFloor * 2.0) {
      result.converged = true;
      break;
    }
  }

  result.x = x;
  result.residual_norm = (a.apply(x) - b).norm2();
  return result;
}

}  // namespace flexcs::solvers
