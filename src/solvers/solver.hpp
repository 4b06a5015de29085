// Common interface for sparse-recovery solvers: given measurements b = A x0
// (+ noise) with x0 sparse, estimate x0. A is M x N with M <= N.
//
// The paper's decoder solves the L1 problem of Eq. 9; this module provides
// that solver in several interchangeable forms (greedy, first-order convex,
// reweighted least squares, and the LP reformulation of [23]).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/operator.hpp"
#include "runtime/deadline.hpp"

namespace flexcs::solvers {

/// Per-call cooperative control of a solve: a wall-clock deadline plus a
/// cancellation token, polled at every iteration of every solver's main
/// loop. Defaults are inert (no deadline, never cancelled), so existing
/// call sites pay nothing. A solve stopped by either returns its best
/// partial iterate with SolveResult::deadline_expired set — guaranteed
/// finite and no worse than the zero vector in residual.
struct SolveOptions {
  runtime::Deadline deadline;
  runtime::CancelToken cancel;
  // Known upper bound on sigma_max(A), e.g. the exact sigma_max = 1 the
  // decoder passes for its tight-frame operators. When > 0, solvers that
  // need a Lipschitz / step-size estimate (FISTA/ISTA) use it directly and
  // skip their own spectral setup. 0 means unknown: each solve computes its
  // own estimate. Passing a bound for the wrong operator slows convergence
  // (too large) or breaks it (too small) — only reuse across identical A.
  double operator_norm_hint = 0.0;
  // The caller re-fits the values on the returned support by least squares
  // (the decoder sets this exactly when it de-biases). Like the norm hint it
  // states a fact about the call, not a tuning knob: a solver may then stop
  // once its support is found instead of polishing values the re-fit
  // overwrites. FISTA uses it (see fista.hpp); the other solvers ignore it.
  // A caller that does not re-fit must leave it false.
  bool refit_on_support = false;

  bool should_stop() const { return deadline.expired() || cancel.cancelled(); }
};

struct SolveResult {
  la::Vector x;             // recovered coefficient vector (size N)
  int iterations = 0;       // iterations actually used
  bool converged = false;   // tolerance met before the iteration cap
  bool deadline_expired = false;  // stopped early by deadline/cancellation
  double residual_norm = 0; // ||A x - b||_2 at the solution
  double solve_seconds = 0; // wall time of the solve() call
};

/// Abstract sparse solver. Implementations are stateless w.r.t. problem data
/// (options fixed at construction), so one instance can be reused across
/// frames and threads.
class SparseSolver {
 public:
  virtual ~SparseSolver() = default;

  /// Short identifier, e.g. "fista" or "omp".
  virtual std::string name() const = 0;

  /// Solves for sparse x from b ≈ A x. Requires a.rows() == b.size(), a
  /// non-empty A, and finite entries in both A and b; violations throw
  /// CheckError (every implementation calls validate_solve_inputs first).
  /// Thin wrapper over the operator overload (A wrapped without copying by
  /// la::DenseOperator::borrowed), so results match solve(DenseOperator)
  /// bit for bit.
  SolveResult solve(const la::Matrix& a, const la::Vector& b) const;

  /// Same solve under cooperative control: the deadline / cancellation token
  /// in `ctrl` is polled every iteration. If it fires (even before the first
  /// iteration), the result carries deadline_expired = true, converged =
  /// false, and the best partial iterate — finite, with residual_norm no
  /// larger than ||b||_2 (the zero vector's residual). Wall time and the
  /// iteration count are always recorded.
  SolveResult solve(const la::Matrix& a, const la::Vector& b,
                    const SolveOptions& ctrl) const;

  /// Matrix-free solve: A given only through apply/apply_adjoint. Gradient
  /// based solvers (FISTA/ISTA, ADMM, IRLS, CoSaMP) run on the applies alone,
  /// with one body for every operator, dense or implicit; entry-hungry
  /// solvers (OMP, BP-LP) read a dense operator's matrix and materialise an
  /// implicit one once as its M x N matrix (la::to_dense). Deadline/cancel
  /// semantics and the partial-iterate guarantee match the dense overload.
  SolveResult solve(const la::LinearOperator& a, const la::Vector& b) const;
  SolveResult solve(const la::LinearOperator& a, const la::Vector& b,
                    const SolveOptions& ctrl) const;

  /// Batched solve: every b in `bs` shares the operator A. Solves
  /// frame-by-frame (no library solver overrides solve_batch_impl), so
  /// results match one-by-one solve() calls bit for bit. Per-result deadline
  /// semantics and the partial-iterate guarantee match solve();
  /// solve_seconds carries each frame's share of the batch wall time.
  /// Requires a non-empty batch.
  std::vector<SolveResult> solve_batch(const la::LinearOperator& a,
                                       const std::vector<la::Vector>& bs,
                                       const SolveOptions& ctrl = {}) const;

 protected:
  /// Per-solver algorithm body. Must call validate_solve_inputs first
  /// (enforced by tools/flexcs_lint.py, rule entry-check), honour `ctrl`
  /// once per iteration, and set deadline_expired when stopping early.
  /// Timing and the partial-iterate guarantee are applied by solve().
  /// Entry-hungry algorithms read a.dense() and materialise implicit
  /// operators with la::to_dense, passing ctrl.should_stop() as its stop
  /// hook. The others run on the applies alone and never branch on
  /// a.dense() (tools/flexcs_lint.py, rule dense-branch).
  virtual SolveResult solve_impl(const la::LinearOperator& a,
                                 const la::Vector& b,
                                 const SolveOptions& ctrl) const = 0;

  /// Batched algorithm body: frame-by-frame solve_impl calls. Overrides
  /// must keep per-frame results identical to sequential solves (same
  /// contract as solve_impl, applied elementwise).
  virtual std::vector<SolveResult> solve_batch_impl(
      const la::LinearOperator& a, const std::vector<la::Vector>& bs,
      const SolveOptions& ctrl) const;
};

/// Shared entry-point contract for SparseSolver::solve_impl implementations:
/// throws CheckError (via FLEXCS_CHECK) unless the operator is non-empty, b
/// matches its row count and b is finite — and when the operator is dense,
/// its entries finite too (implicit operators are validated structurally at
/// construction; their applies cannot manufacture NaN from finite inputs).
/// `who` names the solver in the failure message. Every solve_impl() must
/// call this before touching data — enforced by tools/flexcs_lint.py (rule
/// entry-check).
void validate_solve_inputs(const la::LinearOperator& a, const la::Vector& b,
                           const char* who);

/// Least-squares re-fit restricted to the support {i : |x[i]| > threshold}.
/// Standard de-biasing step after L1 solvers (removes the shrinkage bias).
/// If the support is larger than the number of measurements, the largest
/// a.rows() entries are kept. Solves the ridge-regularised normal equations
/// on the support by conjugate gradient through apply_normal, never touching
/// matrix entries, for dense and implicit operators alike. CG starts from
/// x's support values and stops at a 1e-9 relative residual; on the
/// decoder's transform operators that is ~1e-9 of ||fit||_inf from a
/// Cholesky re-fit of the gathered Gram matrix. `should_stop` (same style as
/// la::to_dense) is polled before the re-fit and once per CG iteration; once
/// it fires the re-fit is abandoned and an empty vector comes back, so a
/// deadline-bound caller overruns by at most one CG iteration.
la::Vector debias_on_support(const la::LinearOperator& a, const la::Vector& b,
                             const la::Vector& x, double threshold = 1e-8,
                             const std::function<bool()>& should_stop = {});

/// Names accepted by make_solver.
std::vector<std::string> solver_names();

/// Factory with library-default options per solver: "omp", "cosamp", "ista",
/// "fista", "admm", "irls", "bp-lp". Throws CheckError for unknown names.
std::unique_ptr<SparseSolver> make_solver(const std::string& name);

}  // namespace flexcs::solvers
