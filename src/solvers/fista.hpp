// ISTA / FISTA proximal-gradient solvers for the lasso (basis pursuit
// denoising) form of the decoder:  min_x 0.5||Ax - b||^2 + lambda ||x||_1.
// One loop runs a fixed λ-continuation schedule, 10λ → 2λ → λ, each stage
// warm-started from the last and sharing the max_iterations budget; only
// the final stage's relative change is tested against `tol`, so `converged`
// always refers to the target λ.
//
// When the caller re-fits on the returned support
// (SolveOptions::refit_on_support, set by the decoder whenever it
// de-biases), the final stage also stops, converged, once its relative
// change is below 1e-4 while its support |{i : x_i != 0}| is at most 0.6 of
// the measurements: the re-fit replaces the values, so only the support has
// to be right. A larger support runs on to `tol`, and tol = 0 still runs the
// whole budget. Unflagged solves are unchanged bit for bit.
//
// An iteration is one normal apply A^T·A·y into a buffer the solve owns,
// then two passes over the coefficients. A vector pass (GCC vector
// extensions, 2 doubles, no ISA flag) shrinks y - step·(grad - A^T b) into
// the gradient buffer and reduces the change and magnitude maxima and the
// support count; a scalar pass sums the adaptive-restart test in ascending
// order from +0.0 and writes x and y back. Every lane rounds as the scalar
// shrink does and the maxima are exact in any order, so the iterates are
// the bits of one fused scalar pass (tests/golden.hpp, golden::fista). An
// iteration allocates nothing.
#pragma once

#include "solvers/solver.hpp"

namespace flexcs::solvers {

struct FistaOptions {
  double lambda = 0.0;        // 0 => scale-adaptive: 1e-3 * ||A^T b||_inf
  int max_iterations = 500;
  double tol = 1e-7;          // relative change in x between iterations
  // FISTA momentum with gradient adaptive restart (O'Donoghue & Candes
  // 2015); false gives plain ISTA.
  bool accelerate = true;
};

class FistaSolver final : public SparseSolver {
 public:
  explicit FistaSolver(FistaOptions opts = {}) : opts_(opts) {}
  std::string name() const override { return opts_.accelerate ? "fista" : "ista"; }

 protected:
  SolveResult solve_impl(const la::LinearOperator& a, const la::Vector& b,
                         const SolveOptions& ctrl) const override;

 private:
  FistaOptions opts_;
};

/// Soft-thresholding shrink(v, t) = sign(v) * max(|v| - t, 0), the proximal
/// operator of t*||.||_1. Exposed for reuse (ADMM, RPCA).
double soft_threshold(double v, double t);
la::Vector soft_threshold(const la::Vector& v, double t);

}  // namespace flexcs::solvers
