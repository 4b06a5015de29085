// Matrix-free linear operators: the abstract LinearOperator interface
// (apply / apply_adjoint / shape), a DenseOperator adapter over la::Matrix,
// deterministic operator-norm power iteration, a dense materialiser, and a
// conjugate-gradient solver for SPD systems given only a matvec callback.
//
// The sparse solvers only ever need y = A·x and x = Aᵀ·y — never the matrix
// entries — so an implicit operator (e.g. the decoder's Φ_M·Ψ computed via
// the fast 2-D DCT) can replace the dense M x N matrix wholesale, and a
// DenseOperator runs the same solver code through its matvecs. Operators
// that *are* dense expose their matrix through dense(); only the
// entry-hungry solvers (OMP, BP-LP) read it, and they materialise an
// implicit operator once as its M x N matrix via to_dense, never the N x N
// basis.
#pragma once

#include <functional>
#include <memory>

#include "la/matrix.hpp"

namespace flexcs::la {

/// Abstract real linear operator A of shape rows() x cols().
/// Implementations must be immutable after construction so one instance can
/// be shared across solves and threads (the solver layer relies on this the
/// same way it relies on Matrix being read-only during a solve).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// y = A x. Requires x.size() == cols(); implementations throw CheckError
  /// on shape mismatch.
  virtual Vector apply(const Vector& x) const = 0;

  /// x = Aᵀ y. Requires y.size() == rows().
  virtual Vector apply_adjoint(const Vector& y) const = 0;

  /// out = Aᵀ·A·x, the normal apply of a gradient step or a least-squares
  /// CG, into a caller-owned buffer (resized to cols()). The default is
  /// apply_adjoint(apply(x)), which allocates both results; an override may
  /// compute in place but must return exactly those bits, so a solve takes
  /// the same iterates whether or not a wrapping operator forwards it.
  virtual void apply_normal(const Vector& x, Vector& out) const;

  /// Batched y_i = A x_i over frames sharing this operator: loops apply()
  /// (no library operator overrides it). Results are index-aligned with the
  /// input.
  virtual std::vector<Vector> apply_batch(const std::vector<Vector>& xs) const;

  /// Batched x_i = Aᵀ y_i (same contract as apply_batch).
  virtual std::vector<Vector> apply_adjoint_batch(
      const std::vector<Vector>& ys) const;

  /// Non-null when the operator is (or caches) an explicit dense matrix.
  /// Entry-hungry solvers (OMP, BP-LP) read it and materialise the matrix
  /// via to_dense when null; input validation checks its entries are
  /// finite. No other solver branches on it.
  virtual const Matrix* dense() const { return nullptr; }

  /// A cheap, always-valid upper bound on sigma_max(A); 0 means unknown.
  /// Deadline-bounded Lipschitz setups fall back to it when the power
  /// iteration cannot run to convergence (a too-large bound only shrinks
  /// the step, it never breaks convergence).
  virtual double norm_upper_bound() const { return 0.0; }

  bool empty() const { return rows() == 0 || cols() == 0; }
};

/// Dense adapter: wraps an explicit matrix as a LinearOperator. apply /
/// apply_adjoint are exactly la::matvec / la::matvec_t, and the solvers run
/// the same code on it as on an implicit operator of the same entries.
/// norm_upper_bound() is the Frobenius norm (>= sigma_max).
class DenseOperator final : public LinearOperator {
 public:
  /// Owning: moves the matrix in.
  explicit DenseOperator(Matrix a);
  /// Shared ownership (e.g. the decoder's cached measurement operator).
  explicit DenseOperator(std::shared_ptr<const Matrix> a);
  /// Non-owning view; `a` must outlive the operator. Used by the dense
  /// solve() wrappers so wrapping never copies a large A.
  static DenseOperator borrowed(const Matrix& a);

  std::size_t rows() const override { return a_->rows(); }
  std::size_t cols() const override { return a_->cols(); }
  Vector apply(const Vector& x) const override;
  Vector apply_adjoint(const Vector& y) const override;
  const Matrix* dense() const override { return a_; }
  double norm_upper_bound() const override { return frobenius_; }

 private:
  DenseOperator(std::shared_ptr<const Matrix> owned, const Matrix* borrowed);

  std::shared_ptr<const Matrix> owned_;  // null in borrowed mode
  const Matrix* a_;                      // never null
  double frobenius_ = 0.0;
};

/// Largest singular value estimate via power iteration on AᵀA from a
/// deterministic start vector. la::spectral_norm(m) is this loop on
/// DenseOperator::borrowed(m).
double operator_norm_estimate(const LinearOperator& a, int iters = 60);

/// Materialises the operator as a dense matrix, one apply per column
/// (O(cols) applies — the cost the implicit operators exist to avoid; paid
/// only by entry-hungry solvers and golden-reference tests). `should_stop`
/// (same style as la::SvdStopHook) is polled before every apply; once it
/// fires the build is abandoned and an empty 0 x 0 matrix comes back, so a
/// deadline-bound caller overruns by at most one apply.
Matrix to_dense(const LinearOperator& a,
                const std::function<bool()>& should_stop = {});

/// Conjugate gradient for S x = b where S is symmetric positive definite and
/// available only as a matvec callback. Used by the matrix-free solver paths
/// for their inner least-squares systems (normal equations + ridge), where
/// S = AᵀA + c·I is SPD by construction.
struct CgOptions {
  int max_iterations = 200;
  double tol = 1e-10;  // relative residual ||S x - b|| / ||b||
  // Polled once per iteration; a fired stop returns the current iterate
  // (finite, converged = false). Defaults to never stopping.
  std::function<bool()> should_stop;
};

struct CgResult {
  Vector x;
  int iterations = 0;
  bool converged = false;
};

/// The matvec out = S·in. `out` arrives sized like `b`, and the callback
/// overwrites every entry; cg_solve owns that one buffer for the whole
/// solve, so an in-place callback allocates nothing per iteration.
using SpdApply = std::function<void(const Vector& in, Vector& out)>;

/// `x0` seeds the iteration (warm start); pass an empty vector for zero.
CgResult cg_solve(const SpdApply& apply_spd, const Vector& b,
                  const CgOptions& opts = {}, const Vector& x0 = {});

}  // namespace flexcs::la
