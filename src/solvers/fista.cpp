#include "solvers/fista.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

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

  la::Vector v(a.cols()), w(a.cols());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.001 * static_cast<double>(i % 17);
  v /= v.norm2();
  double sigma = 0.0;
  constexpr int kMaxIters = 60;
  constexpr double kTol = 1e-3;
  for (int it = 0; it < kMaxIters; ++it) {
    if (ctrl.should_stop())  // safe bound, main loop exits next
      return bound > 0.0 ? bound : (sigma > 0.0 ? 1.05 * sigma : 1.0);
    a.apply_normal(v, w);
    const double n = w.norm2();
    if (n == 0.0) return bound;
    std::swap(v, w);
    v /= n;
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

// Two doubles: the SSE2 width of every x86-64 host, and NEON's. The library
// builds without ISA flags (flexcs_lint's build-flags rule), so this is the
// widest vector every host runs; a wider type would be split into scalars.
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
// A lane-wise comparison's type: all-ones or all-zero 64-bit lanes.
using Mask2 = decltype(Vec2{} < Vec2{});
constexpr std::size_t kLanes = 2;

struct ShrinkStats {
  double dx = 0.0;          // max_i |x_new_i - x_i|
  double xmax = 0.0;        // max_i |x_new_i|
  std::size_t support = 0;  // |{i : x_new_i != 0}|
};

// The vector pass of one proximal-gradient step: x_new = soft_threshold(
// y - step·(grad - atb), thresh), written over `grad`, and its maxima and
// support. Each lane rounds as the scalar soft_threshold does: v, then
// v - t or v + t, picked by bitmask; a shrunk lane is all-zero bits, +0.0.
// The maxima are lane-wise and reduce in any order to the same bits, since
// every operand is finite and non-negative. An odd N's last coefficient
// takes the scalar path. Vectors stay in this function (GCC's -Wpsabi).
ShrinkStats shrink_into_gradient(const double* y, const double* atb,
                                 const double* x, double* grad, std::size_t n,
                                 double step, double thresh) {
  const Vec2 vstep = {step, step};
  const Vec2 vthresh = {thresh, thresh};
  const Mask2 abs_bits = {0x7fffffffffffffff, 0x7fffffffffffffff};
  Vec2 dx{}, xmax{};
  Mask2 support{};  // minus the support lanes: a true lane is -1
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Vec2 yv, gv, av, xv;
    std::memcpy(&yv, y + i, sizeof(Vec2));
    std::memcpy(&gv, grad + i, sizeof(Vec2));
    std::memcpy(&av, atb + i, sizeof(Vec2));
    std::memcpy(&xv, x + i, sizeof(Vec2));
    const Vec2 v = yv - vstep * (gv - av);
    const Mask2 shrunk =
        ((v > vthresh) & std::bit_cast<Mask2>(v - vthresh)) |
        ((v < -vthresh) & std::bit_cast<Mask2>(v + vthresh));
    const Vec2 x_new = std::bit_cast<Vec2>(shrunk);
    const Vec2 d = std::bit_cast<Vec2>(std::bit_cast<Mask2>(x_new - xv) &
                                       abs_bits);
    const Vec2 mag = std::bit_cast<Vec2>(shrunk & abs_bits);
    dx = d > dx ? d : dx;
    xmax = mag > xmax ? mag : xmax;
    support += x_new != Vec2{};
    std::memcpy(grad + i, &x_new, sizeof(Vec2));
  }
  ShrinkStats out;
  out.dx = std::max(dx[0], dx[1]);
  out.xmax = std::max(xmax[0], xmax[1]);
  out.support = static_cast<std::size_t>(-(support[0] + support[1]));
  for (; i < n; ++i) {
    const double x_new = soft_threshold(y[i] - step * (grad[i] - atb[i]),
                                        thresh);
    out.dx = std::max(out.dx, std::fabs(x_new - x[i]));
    out.xmax = std::max(out.xmax, std::fabs(x_new));
    out.support += x_new != 0.0 ? 1u : 0u;
    grad[i] = x_new;
  }
  return out;
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
    // Proximal-gradient update from grad = A^T A y, in two passes over the
    // coefficients. The vector pass (shrink_into_gradient) offsets the
    // gradient, shrinks, and writes x_new over grad, which is dead once read;
    // it also reduces the change and magnitude maxima and counts the re-fit
    // stop's support. The scalar pass sums the gradient adaptive-restart test
    // g = <y_old - x_new, x_new - x_old> (O'Donoghue & Candes 2015) in
    // ascending i from +0.0, then takes the momentum step and writes x and y
    // back in place. g > 0 means the momentum step points uphill on the
    // composite objective, so the solve drops its momentum (t = 1, y = x) and
    // continues from x_new as a plain proximal step.
    a.apply_normal(y, grad);
    FLEXCS_CHECK(grad.size() == n, "FISTA: adjoint result size mismatch");
    double beta = 0.0;
    if (opts_.accelerate) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    const ShrinkStats shrunk = shrink_into_gradient(
        y.data(), atb.data(), x.data(), grad.data(), n, step, thresh);
    double g = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x_new = grad[i];
      const double x_old = x[i];
      g += (y[i] - x_new) * (x_new - x_old);
      y[i] = opts_.accelerate ? x_new + beta * (x_new - x_old) : x_new;
      x[i] = x_new;
    }
    if (opts_.accelerate && g > 0.0) {
      t = 1.0;
      y = x;
    }
    result.iterations = it + 1;
    const double change = shrunk.dx / std::max(1e-12, shrunk.xmax);
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
         static_cast<double>(shrunk.support) <= refit_max_support);
    if (result.converged) break;
  }

  result.residual_norm = (a.apply(x) - b).norm2();
  return result;
}

}  // namespace flexcs::solvers
