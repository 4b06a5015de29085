#include "solvers/fista.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace flexcs::solvers {
namespace {

// λ continuation (Hale, Yin & Zhang 2008): the loop solves a short
// geometric schedule of lasso problems, 10λ → 2λ → λ, each warm-started from
// the last. A large λ has a small support and converges in few iterations,
// and its solution is close to the next stage's, so the schedule reaches the
// target optimum in fewer iterations than a cold solve at λ. A non-final
// stage ends once the iterate is stable to kStageTol; only the final stage
// tests opts_.tol and may set `converged`.
constexpr double kContinuationStart = 10.0;  // first stage at 10λ
constexpr double kContinuationShrink = 5.0;  // each switch divides λ by 5
constexpr double kStageTol = 1e-2;           // relative change ending a stage

// Stop for a solve whose caller re-fits on its support
// (SolveOptions::refit_on_support), after GPSR's debiasing (Figueiredo,
// Nowak & Wright 2007) and FPC_AS (Wen, Yin, Goldfarb & Zhang 2010): the
// lasso only has to find the support, and least squares on it replaces the
// values. The final stage may then end at kRefitStopTol instead of
// opts_.tol, but only while the support |{i : x_i != 0}| is at most
// kRefitMaxSupport of the measurements, well inside what the re-fit can
// determine (and below the ladder's 0.8 acceptance cap). A larger support
// keeps spurious entries that the re-fit would fit, so the solve then runs
// to opts_.tol as it would unflagged. A looser bound is a cliff: at 1e-3
// the thermal tiles' re-fit RMSE grows 15-25x.
constexpr double kRefitStopTol = 1e-4;
constexpr double kRefitMaxSupport = 0.6;

// Lipschitz setup, sigma_max(A). The fixed-budget power iteration of
// la::operator_norm_estimate costs more than a tight frame deadline can
// afford, so a bounded solve estimates sigma with an early-exit power
// iteration that polls the deadline, falling back to the operator's cheap
// norm bound — always >= sigma_max, hence a smaller, still-convergent step —
// if it fires mid-setup. Unbounded solves keep the full iteration, which
// for dense operators matches la::spectral_norm bit-for-bit.
double lipschitz_sigma(const la::LinearOperator& a, const SolveOptions& ctrl) {
  // A caller-supplied bound (the decoder passes the exact sigma_max = 1 of
  // its tight-frame operators) wins outright: it is the number this
  // function would compute, minus the cost.
  if (ctrl.operator_norm_hint > 0.0) return ctrl.operator_norm_hint;
  if (ctrl.deadline.unlimited() && !ctrl.cancel.cancelled())
    return la::operator_norm_estimate(a);

  // Cheap always-valid bound: the Frobenius norm for dense operators (the
  // historical fallback, bit-for-bit), sigma_max(Psi) = 1 for the subsampled
  // orthonormal transforms. 0 means the operator offers none.
  const double bound = a.norm_upper_bound();
  if (a.dense() != nullptr && bound == 0.0) return 0.0;  // zero matrix

  la::Vector v(a.cols());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.001 * static_cast<double>(i % 17);
  v /= v.norm2();
  double sigma = 0.0;
  constexpr int kMaxIters = 60;
  constexpr double kTol = 1e-3;
  for (int it = 0; it < kMaxIters; ++it) {
    if (ctrl.should_stop())  // safe bound, main loop exits next
      return bound > 0.0 ? bound : (sigma > 0.0 ? 1.05 * sigma : 1.0);
    la::Vector w = a.apply_adjoint(a.apply(v));
    const double n = w.norm2();
    if (n == 0.0) return bound;
    v = w / n;
    const double next = std::sqrt(n);
    if (it > 0 && std::abs(next - sigma) <= kTol * next) {
      sigma = next;
      break;
    }
    sigma = next;
  }
  // Power iteration approaches sigma_max from below; pad the estimate so the
  // step 1/sigma^2 stays on the convergent side.
  return bound > 0.0 ? std::min(1.05 * sigma, bound) : 1.05 * sigma;
}

}  // namespace

double soft_threshold(double v, double t) {
  if (v > t) return v - t;
  if (v < -t) return v + t;
  return 0.0;
}

la::Vector soft_threshold(const la::Vector& v, double t) {
  la::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = soft_threshold(v[i], t);
  return out;
}

SolveResult FistaSolver::solve_impl(const la::LinearOperator& a,
                                    const la::Vector& b,
                                    const SolveOptions& ctrl) const {
  validate_solve_inputs(a, b, "FISTA");
  const std::size_t n = a.cols();

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  const double bnorm = b.norm2();
  if (bnorm == 0.0) {
    result.converged = true;
    return result;
  }
  if (ctrl.should_stop()) {  // expired before the operator setup
    result.deadline_expired = true;
    result.residual_norm = bnorm;
    return result;
  }

  // The regularisation weight scales with b through A^T b.
  const la::Vector atb = a.apply_adjoint(b);
  const double lambda =
      opts_.lambda > 0.0 ? opts_.lambda : 1e-3 * atb.norm_inf();
  la::Vector& x = result.x;
  la::Vector y = x;
  la::Vector grad(n);
  double t = 1.0;
  // tol = 0 asks for the whole iteration budget; a re-fit does not cut it.
  const bool refit_stop = ctrl.refit_on_support && opts_.tol > 0.0;
  const double refit_max_support =
      kRefitMaxSupport * static_cast<double>(a.rows());

  const double sigma = lipschitz_sigma(a, ctrl);
  FLEXCS_CHECK(sigma > 0.0, "FISTA: zero operator");
  const double step = 1.0 / (sigma * sigma);
  double stage_lambda = kContinuationStart * lambda;
  double thresh = step * stage_lambda;

  for (int it = 0; it < opts_.max_iterations; ++it) {
    if (ctrl.should_stop()) {
      result.deadline_expired = true;
      break;
    }
    // Proximal-gradient update from grad = A^T A y, fused into one pass over
    // the coefficients: gradient offset, shrink, the change and magnitude
    // maxima, momentum, the in-place x/y write-back, and the gradient
    // adaptive-restart test g = <y_old - x_new, x_new - x_old> (O'Donoghue &
    // Candes 2015), and the support count of the re-fit stop. g > 0 means the
    // momentum step points uphill on the composite objective, so the solve
    // drops its momentum (t = 1, y = x) and continues from x_new as a plain
    // proximal step.
    a.apply_normal(y, grad);
    FLEXCS_CHECK(grad.size() == n, "FISTA: adjoint result size mismatch");
    double beta = 0.0;
    if (opts_.accelerate) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    double dx = 0.0, xmax = 0.0, g = 0.0;
    std::size_t support = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x_new = soft_threshold(y[i] - step * (grad[i] - atb[i]),
                                          thresh);
      const double x_old = x[i];
      dx = std::max(dx, std::fabs(x_new - x_old));
      xmax = std::max(xmax, std::fabs(x_new));
      g += (y[i] - x_new) * (x_new - x_old);
      support += x_new != 0.0 ? 1u : 0u;
      y[i] = opts_.accelerate ? x_new + beta * (x_new - x_old) : x_new;
      x[i] = x_new;
    }
    if (opts_.accelerate && g > 0.0) {
      t = 1.0;
      y = x;
    }
    result.iterations = it + 1;
    const double change = dx / std::max(1e-12, xmax);
    if (stage_lambda > lambda) {
      // Stage switch: lower λ and drop the momentum, which points along the
      // previous stage's path.
      if (change < kStageTol) {
        stage_lambda = std::max(lambda, stage_lambda / kContinuationShrink);
        thresh = step * stage_lambda;
        t = 1.0;
        y = x;
      }
      continue;
    }
    result.converged =
        change < opts_.tol ||
        (refit_stop && change < kRefitStopTol &&
         static_cast<double>(support) <= refit_max_support);
    if (result.converged) break;
  }

  result.residual_norm = (a.apply(x) - b).norm2();
  return result;
}

}  // namespace flexcs::solvers
