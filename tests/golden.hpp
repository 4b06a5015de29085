// Dense golden references for the matrix-free decoder: the explicit
// measurement matrix A = Φ_M·Ψ (N x N Ψ built, then row-selected), a
// Cholesky de-bias re-fit on its support columns, and a decode through it
// that mirrors cs::Decoder step for step. cs::Decoder never builds any of
// them; tests and benches compare it against these.
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

}  // namespace flexcs::golden
