// Iteratively Reweighted Least Squares (FOCUSS-style) for basis pursuit:
// approximates min ||x||_1 s.t. Ax = b by solving a sequence of weighted
// minimum-norm problems x = W A^T (A W A^T)^{-1} b with W = diag(|x| + eps),
// each inner system solved by conjugate gradient through the operator's
// applies.
#pragma once

#include "solvers/solver.hpp"

namespace flexcs::solvers {

struct IrlsOptions {
  int max_iterations = 60;
  double tol = 1e-7;          // relative change in x
};

class IrlsSolver final : public SparseSolver {
 public:
  explicit IrlsSolver(IrlsOptions opts = {}) : opts_(opts) {}
  std::string name() const override { return "irls"; }

 protected:
  SolveResult solve_impl(const la::LinearOperator& a, const la::Vector& b,
                         const SolveOptions& ctrl) const override;

 private:
  IrlsOptions opts_;
};

}  // namespace flexcs::solvers
