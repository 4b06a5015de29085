// CoSaMP (Compressive Sampling Matching Pursuit, Needell & Tropp 2009):
// batch greedy recovery with support pruning at a target sparsity K = M / 4.
#pragma once

#include "solvers/solver.hpp"

namespace flexcs::solvers {

struct CosampOptions {
  int max_iterations = 50;
  double residual_tol = 1e-6;   // stop when ||r||/||b|| below this
};

class CosampSolver final : public SparseSolver {
 public:
  explicit CosampSolver(CosampOptions opts = {}) : opts_(opts) {}
  std::string name() const override { return "cosamp"; }

 protected:
  SolveResult solve_impl(const la::LinearOperator& a, const la::Vector& b,
                         const SolveOptions& ctrl) const override;

 private:
  CosampOptions opts_;
};

}  // namespace flexcs::solvers
