#include "solvers/admm.hpp"

#include <cmath>

#include "common/check.hpp"
#include "solvers/fista.hpp"

namespace flexcs::solvers {
namespace {

// Augmented Lagrangian parameter.
constexpr double kRho = 1.0;

}  // namespace

SolveResult AdmmLassoSolver::solve_impl(const la::LinearOperator& a,
                                        const la::Vector& b,
                                        const SolveOptions& ctrl) const {
  validate_solve_inputs(a, b, "ADMM");
  const std::size_t n = a.cols();

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  if (b.norm2() == 0.0) {
    result.converged = true;
    return result;
  }
  if (ctrl.should_stop()) {  // expired before the first A^T b
    result.deadline_expired = true;
    result.residual_norm = b.norm2();
    return result;
  }

  const la::Vector atb = a.apply_adjoint(b);
  const double lambda =
      opts_.lambda > 0.0 ? opts_.lambda : 1e-3 * atb.norm_inf();

  la::Vector x(n, 0.0), z(n, 0.0), u(n, 0.0);

  // x-update solve for (A^T A + rho I) x = q: conjugate gradient on the SPD
  // system, warm-started from the previous x-iterate. For the subsampled
  // orthonormal transforms sigma_max(A) <= 1, so the condition number is at
  // most (1 + rho)/rho and CG converges in a handful of iterations.
  const auto apply_inverse = [&a, &x, &ctrl](const la::Vector& q) {
    la::CgOptions cg;
    cg.tol = 1e-10;
    cg.should_stop = [&ctrl] { return ctrl.should_stop(); };
    const auto apply_spd = [&a](const la::Vector& v, la::Vector& out) {
      a.apply_normal(v, out);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += kRho * v[i];
    };
    return la::cg_solve(apply_spd, q, cg, x).x;
  };

  for (int it = 0; it < opts_.max_iterations; ++it) {
    if (ctrl.should_stop()) {
      result.deadline_expired = true;
      break;
    }
    // x-update: argmin 0.5||Ax-b||^2 + rho/2 ||x - z + u||^2.
    la::Vector q = atb;
    for (std::size_t i = 0; i < n; ++i) q[i] += kRho * (z[i] - u[i]);
    x = apply_inverse(q);

    // z-update: soft threshold.
    la::Vector z_old = z;
    for (std::size_t i = 0; i < n; ++i)
      z[i] = soft_threshold(x[i] + u[i], lambda / kRho);

    // Dual update.
    for (std::size_t i = 0; i < n; ++i) u[i] += x[i] - z[i];

    // Standard ADMM stopping criteria (Boyd et al. §3.3).
    double r_norm = 0.0, s_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ri = x[i] - z[i];
      const double si = kRho * (z[i] - z_old[i]);
      r_norm += ri * ri;
      s_norm += si * si;
    }
    r_norm = std::sqrt(r_norm);
    s_norm = std::sqrt(s_norm);
    const double sqrt_n = std::sqrt(static_cast<double>(n));
    const double eps_pri =
        sqrt_n * opts_.abs_tol +
        opts_.rel_tol * std::max(x.norm2(), z.norm2());
    const double eps_dual =
        sqrt_n * opts_.abs_tol + opts_.rel_tol * kRho * u.norm2();
    result.iterations = it + 1;
    if (r_norm < eps_pri && s_norm < eps_dual) {
      result.converged = true;
      break;
    }
  }

  result.x = z;  // z is the sparse iterate
  result.residual_norm = (a.apply(z) - b).norm2();
  return result;
}

}  // namespace flexcs::solvers
