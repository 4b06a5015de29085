#include "solvers/bp_lp.hpp"

#include "lp/simplex.hpp"

namespace flexcs::solvers {

SolveResult BpLpSolver::solve_impl(const la::LinearOperator& aop,
                                   const la::Vector& b,
                                   const SolveOptions& ctrl) const {
  validate_solve_inputs(aop, b, "BP-LP");
  const std::size_t m = aop.rows(), n = aop.cols();

  // Expired before (or while) building the 2N-column LP.
  const auto expired_early = [&] {
    SolveResult early;
    early.x = la::Vector(n, 0.0);
    early.deadline_expired = true;
    early.residual_norm = b.norm2();
    return early;
  };
  if (ctrl.should_stop()) return expired_early();

  // The LP tabulates A's entries into the simplex constraint matrix: an
  // implicit operator is materialised once as its M x N matrix, under the
  // same deadline as the solve (an abandoned build comes back empty).
  la::Matrix materialised;
  if (aop.dense() == nullptr) {
    materialised = la::to_dense(aop, [&ctrl] { return ctrl.should_stop(); });
    if (materialised.empty()) return expired_early();
  }
  const la::Matrix& a = aop.dense() != nullptr ? *aop.dense() : materialised;

  // Stack [A, -A] for the positive/negative parts.
  la::Matrix big(m, 2 * n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      big(r, c) = a(r, c);
      big(r, n + c) = -a(r, c);
    }
  }
  la::Vector cost(2 * n, 1.0);

  lp::LpOptions lp_opts;
  lp_opts.max_iterations = opts_.max_iterations;
  lp_opts.deadline = ctrl.deadline;
  lp_opts.cancel = ctrl.cancel;
  const lp::LpResult lp_res = lp::solve_standard_form(big, b, cost, lp_opts);

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  result.iterations = lp_res.iterations;
  result.converged = lp_res.status == lp::LpStatus::kOptimal;
  // An interrupted simplex has no usable partial primal; the zero vector is
  // the honest "no worse than not solving" fallback.
  result.deadline_expired = lp_res.status == lp::LpStatus::kDeadlineExpired;
  if (result.converged) {
    for (std::size_t c = 0; c < n; ++c)
      result.x[c] = lp_res.x[c] - lp_res.x[n + c];
  }
  result.residual_norm = (la::matvec(a, result.x) - b).norm2();
  return result;
}

}  // namespace flexcs::solvers
