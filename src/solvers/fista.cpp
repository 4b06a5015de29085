#include "solvers/fista.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace flexcs::solvers {
namespace {

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
  // A single solve is a batch of one: one update loop serves both paths.
  return std::move(solve_batch_impl(a, {b}, ctrl).front());
}

std::vector<SolveResult> FistaSolver::solve_batch_impl(
    const la::LinearOperator& a, const std::vector<la::Vector>& bs,
    const SolveOptions& ctrl) const {
  for (const la::Vector& b : bs) validate_solve_inputs(a, b, "FISTA");
  const std::size_t n = a.cols();
  const std::size_t frames = bs.size();

  std::vector<SolveResult> results(frames);
  std::vector<std::size_t> active;
  active.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    results[f].x = la::Vector(n, 0.0);
    const double bnorm = bs[f].norm2();
    if (bnorm == 0.0) {
      results[f].converged = true;
    } else if (ctrl.should_stop()) {  // expired before the operator setup
      results[f].deadline_expired = true;
      results[f].residual_norm = bnorm;
    } else {
      active.push_back(f);
    }
  }
  if (active.empty()) return results;

  // A^T b for every live frame through one batched adjoint pass. The
  // regularisation weight stays per-frame: each b scales its own lambda
  // exactly as in a single solve.
  std::vector<la::Vector> bsel;
  bsel.reserve(active.size());
  for (std::size_t f : active) bsel.push_back(bs[f]);
  std::vector<la::Vector> atbsel = a.apply_adjoint_batch(bsel);

  std::vector<la::Vector> atbs(frames), xs(frames), ys(frames);
  std::vector<double> lambdas(frames, 0.0), ts(frames, 1.0);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const std::size_t f = active[k];
    atbs[f] = std::move(atbsel[k]);
    lambdas[f] =
        opts_.lambda > 0.0 ? opts_.lambda : 1e-3 * atbs[f].norm_inf();
    xs[f] = la::Vector(n, 0.0);
    ys[f] = xs[f];
  }

  // One Lipschitz setup for the whole batch: sigma depends only on A and
  // ctrl, so every frame would compute the identical value on its own.
  const double sigma = lipschitz_sigma(a, ctrl);
  FLEXCS_CHECK(sigma > 0.0, "FISTA: zero operator");
  const double step = 1.0 / (sigma * sigma);

  // Proximal-gradient update of frame f from grad = A^T A y_f, fused into
  // one pass over the coefficients: gradient offset, shrink, the change and
  // magnitude maxima, momentum, the in-place x/y write-back, and the
  // gradient adaptive-restart test g = <y_old - x_new, x_new - x_old>
  // (O'Donoghue & Candes 2015). g > 0 means the momentum step points uphill
  // on the composite objective, so frame f drops its momentum (t = 1,
  // y = x) and continues from x_new as a plain proximal step. True once
  // the relative change in x falls below tol.
  const auto update = [&](std::size_t f, const la::Vector& grad, int it) {
    FLEXCS_CHECK(grad.size() == n, "FISTA: adjoint result size mismatch");
    const la::Vector& atb = atbs[f];
    la::Vector& x = xs[f];
    la::Vector& y = ys[f];
    const double thresh = step * lambdas[f];
    double beta = 0.0;
    if (opts_.accelerate) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * ts[f] * ts[f]));
      beta = (ts[f] - 1.0) / t_new;
      ts[f] = t_new;
    }
    double dx = 0.0, xmax = 0.0, g = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x_new = soft_threshold(y[i] - step * (grad[i] - atb[i]),
                                          thresh);
      const double x_old = x[i];
      dx = std::max(dx, std::fabs(x_new - x_old));
      xmax = std::max(xmax, std::fabs(x_new));
      g += (y[i] - x_new) * (x_new - x_old);
      y[i] = opts_.accelerate ? x_new + beta * (x_new - x_old) : x_new;
      x[i] = x_new;
    }
    if (opts_.accelerate && g > 0.0) {
      ts[f] = 1.0;
      y = x;
    }
    results[f].iterations = it + 1;
    results[f].converged = dx / std::max(1e-12, xmax) < opts_.tol;
    return results[f].converged;
  };

  const std::vector<std::size_t> started = active;
  std::vector<std::size_t> still;
  still.reserve(active.size());
  std::vector<la::Vector> yin;
  for (int it = 0; it < opts_.max_iterations && !active.empty(); ++it) {
    if (ctrl.should_stop()) {
      for (std::size_t f : active) results[f].deadline_expired = true;
      break;
    }
    still.clear();
    if (active.size() == 1) {
      // A lone frame (every single solve) applies A directly, so it pays no
      // batch containers per iteration.
      const std::size_t f = active.front();
      if (!update(f, a.apply_adjoint(a.apply(ys[f])), it)) still.push_back(f);
    } else {
      // Batched gradient step at every live frame's extrapolation point:
      // grad_f = A^T (A y_f - b_f), with both operator passes batch-major.
      yin.clear();
      for (std::size_t f : active) yin.push_back(ys[f]);
      std::vector<la::Vector> grads =
          a.apply_adjoint_batch(a.apply_batch(yin));
      for (std::size_t k = 0; k < active.size(); ++k)
        if (!update(active[k], grads[k], it)) still.push_back(active[k]);
    }
    active.swap(still);
  }

  // Final residuals for every frame that entered the loop, again batch-major.
  std::vector<la::Vector> xsel;
  xsel.reserve(started.size());
  for (std::size_t f : started) xsel.push_back(std::move(xs[f]));
  const std::vector<la::Vector> axs = a.apply_batch(xsel);
  for (std::size_t k = 0; k < started.size(); ++k) {
    const std::size_t f = started[k];
    results[f].residual_norm = (axs[k] - bs[f]).norm2();
    results[f].x = std::move(xsel[k]);
  }
  return results;
}

}  // namespace flexcs::solvers
