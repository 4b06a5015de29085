// Golden references for the matrix-free decoder: the explicit measurement
// matrix A = Φ_M·Ψ (N x N Ψ built, then row-selected), a Cholesky de-bias
// re-fit on its support columns, a decode through it that mirrors
// cs::Decoder step for step, and FISTA with its fused scalar coefficient
// pass. The library never runs any of them; tests and benches compare it
// against these.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "cs/decoder.hpp"
#include "cs/sampling.hpp"
#include "dsp/basis.hpp"
#include "la/decomp.hpp"
#include "la/matrix.hpp"
#include "la/operator.hpp"
#include "solvers/fista.hpp"
#include "solvers/solver.hpp"

namespace flexcs::golden {

/// The M x N measurement matrix of `pattern` in `basis`.
inline la::Matrix measurement_matrix(dsp::BasisKind basis,
                                     const cs::SamplingPattern& pattern) {
  return dsp::synthesis_matrix(basis, pattern.rows, pattern.cols)
      .select_rows(pattern.indices);
}

/// The least-squares re-fit of solvers::debias_on_support, solved exactly:
/// the same support (entries of x above `threshold`, the strongest a.rows()
/// kept) and the ridge-regularised normal equations, built from the gathered
/// support columns and factorised by Cholesky. The ridge is 1e-10 times the
/// mean support-column energy, where the library's CG re-fit, which reads no
/// entries, uses sigma_max(A)^2 bounded by the operator.
inline la::Vector debias(const la::Matrix& a, const la::Vector& b,
                         const la::Vector& x, double threshold = 1e-8) {
  FLEXCS_CHECK(a.cols() == x.size() && a.rows() == b.size(),
               "debias: shape mismatch");
  std::vector<std::size_t> support;
  for (std::size_t j = 0; j < x.size(); ++j)
    if (std::fabs(x[j]) > threshold) support.push_back(j);
  if (support.size() > a.rows()) {
    std::sort(support.begin(), support.end(),
              [&x](std::size_t i, std::size_t j) {
                return std::fabs(x[i]) > std::fabs(x[j]);
              });
    support.resize(a.rows());
    std::sort(support.begin(), support.end());
  }
  if (support.empty()) return la::Vector(x.size(), 0.0);

  la::Matrix as(a.rows(), support.size());
  for (std::size_t j = 0; j < support.size(); ++j)
    for (std::size_t r = 0; r < a.rows(); ++r) as(r, j) = a(r, support[j]);
  // The support columns can be linearly dependent (e.g. Haar atoms whose
  // footprint was never sampled produce all-zero columns), hence the ridge.
  la::Matrix g = la::gram(as);
  double trace = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) trace += g(i, i);
  const double ridge =
      1e-10 * std::max(1.0, trace / static_cast<double>(g.rows()));
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += ridge;
  const la::Vector coef =
      la::cholesky_solve(la::cholesky(g), la::matvec_t(as, b));

  la::Vector out(x.size(), 0.0);
  for (std::size_t j = 0; j < support.size(); ++j) out[support[j]] = coef[j];
  return out;
}

/// cs::Decoder::decode_with through the dense matrix `a` of `pattern`:
/// solver.solve(Matrix), told that a re-fit follows exactly when the decoder
/// would tell it, then the exact re-fit on the support (debias above),
/// synthesis and clamp.
inline cs::DecodeResult decode(const la::Matrix& a,
                               const cs::SamplingPattern& pattern,
                               const la::Vector& y,
                               const solvers::SparseSolver& solver,
                               const cs::DecoderOptions& opts) {
  solvers::SolveOptions ctrl = opts.solve;
  ctrl.refit_on_support = opts.debias;
  solvers::SolveResult sr = solver.solve(a, y, ctrl);
  if (opts.debias && !sr.deadline_expired)
    sr.x = debias(a, y, sr.x, opts.support_threshold);

  cs::DecodeResult out;
  out.solver_iterations = sr.iterations;
  out.converged = sr.converged;
  out.deadline_expired = sr.deadline_expired;
  out.residual_norm = sr.residual_norm;
  out.frame = dsp::synthesize(
      opts.basis, la::Matrix::from_flat(sr.x, pattern.rows, pattern.cols));
  out.coefficients = std::move(sr.x);
  if (opts.clamp01) {
    for (std::size_t i = 0; i < out.frame.size(); ++i)
      out.frame.data()[i] = std::clamp(out.frame.data()[i], 0.0, 1.0);
  }
  return out;
}

/// Same, building the matrix from opts.basis.
inline cs::DecodeResult decode(const cs::SamplingPattern& pattern,
                               const la::Vector& y,
                               const solvers::SparseSolver& solver,
                               const cs::DecoderOptions& opts) {
  return decode(measurement_matrix(opts.basis, pattern), pattern, y, solver,
                opts);
}

/// FistaSolver's solve as it ran before its coefficient pass was split into
/// a vector shrink and a scalar restart sum: one fused scalar pass per
/// iteration, copied verbatim (λ continuation 10λ → 2λ → λ, gradient
/// adaptive restart, the re-fit stop). It counts the restarts and stage
/// switches it takes, so a test can show that it covered both branches.
/// Unbounded solves only: without an operator norm hint it estimates sigma
/// by la::operator_norm_estimate, as FISTA's unbounded setup does.
struct FistaTrace {
  solvers::SolveResult result;
  int restarts = 0;
  int stage_switches = 0;
};

inline FistaTrace fista(const la::LinearOperator& a, const la::Vector& b,
                        const solvers::FistaOptions& opts,
                        const solvers::SolveOptions& ctrl) {
  FLEXCS_CHECK(ctrl.deadline.unlimited() && !ctrl.cancel.cancelled(),
               "golden::fista: unbounded solves only");
  constexpr double kContinuationStart = 10.0;
  constexpr double kContinuationShrink = 5.0;
  constexpr double kStageTol = 1e-2;
  constexpr double kRefitStopTol = 1e-4;
  constexpr double kRefitMaxSupport = 0.6;
  const std::size_t n = a.cols();

  FistaTrace trace;
  solvers::SolveResult& result = trace.result;
  result.x = la::Vector(n, 0.0);
  const double bnorm = b.norm2();
  if (bnorm == 0.0) {
    result.converged = true;
    return trace;
  }

  const la::Vector atb = a.apply_adjoint(b);
  const double lambda =
      opts.lambda > 0.0 ? opts.lambda : 1e-3 * atb.norm_inf();
  la::Vector& x = result.x;
  la::Vector y = x;
  la::Vector grad(n);
  double t = 1.0;
  const bool refit_stop = ctrl.refit_on_support && opts.tol > 0.0;
  const double refit_max_support =
      kRefitMaxSupport * static_cast<double>(a.rows());

  const double sigma = ctrl.operator_norm_hint > 0.0
                           ? ctrl.operator_norm_hint
                           : la::operator_norm_estimate(a);
  FLEXCS_CHECK(sigma > 0.0, "golden::fista: zero operator");
  const double step = 1.0 / (sigma * sigma);
  double stage_lambda = kContinuationStart * lambda;
  double thresh = step * stage_lambda;

  for (int it = 0; it < opts.max_iterations; ++it) {
    a.apply_normal(y, grad);
    double beta = 0.0;
    if (opts.accelerate) {
      const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
      beta = (t - 1.0) / t_new;
      t = t_new;
    }
    double dx = 0.0, xmax = 0.0, g = 0.0;
    std::size_t support = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x_new = solvers::soft_threshold(
          y[i] - step * (grad[i] - atb[i]), thresh);
      const double x_old = x[i];
      dx = std::max(dx, std::fabs(x_new - x_old));
      xmax = std::max(xmax, std::fabs(x_new));
      g += (y[i] - x_new) * (x_new - x_old);
      support += x_new != 0.0 ? 1u : 0u;
      y[i] = opts.accelerate ? x_new + beta * (x_new - x_old) : x_new;
      x[i] = x_new;
    }
    if (opts.accelerate && g > 0.0) {
      t = 1.0;
      y = x;
      ++trace.restarts;
    }
    result.iterations = it + 1;
    const double change = dx / std::max(1e-12, xmax);
    if (stage_lambda > lambda) {
      if (change < kStageTol) {
        stage_lambda = std::max(lambda, stage_lambda / kContinuationShrink);
        thresh = step * stage_lambda;
        t = 1.0;
        y = x;
        ++trace.stage_switches;
      }
      continue;
    }
    result.converged =
        change < opts.tol ||
        (refit_stop && change < kRefitStopTol &&
         static_cast<double>(support) <= refit_max_support);
    if (result.converged) break;
  }

  result.residual_norm = (a.apply(x) - b).norm2();
  return trace;
}

}  // namespace flexcs::golden
