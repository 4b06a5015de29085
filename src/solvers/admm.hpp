// ADMM solver for the lasso / basis-pursuit-denoising decoder problem:
//   min_x 0.5||Ax - b||^2 + lambda ||x||_1.
//
// The x-update solves (A^T A + rho I) x = A^T b + rho (z - u) by conjugate
// gradient through LinearOperator::apply_normal, warm-started from the
// previous x-iterate; no operator is factorised, dense or implicit.
#pragma once

#include "solvers/solver.hpp"

namespace flexcs::solvers {

struct AdmmOptions {
  double lambda = 0.0;      // 0 => scale-adaptive: 1e-3 * ||A^T b||_inf
  int max_iterations = 400;
  double abs_tol = 1e-7;
  double rel_tol = 1e-5;
};

class AdmmLassoSolver final : public SparseSolver {
 public:
  explicit AdmmLassoSolver(AdmmOptions opts = {}) : opts_(opts) {}
  std::string name() const override { return "admm"; }

 protected:
  SolveResult solve_impl(const la::LinearOperator& a, const la::Vector& b,
                         const SolveOptions& ctrl) const override;

 private:
  AdmmOptions opts_;
};

}  // namespace flexcs::solvers
