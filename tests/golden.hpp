// Dense golden references for the matrix-free decoder: the explicit
// measurement matrix A = Φ_M·Ψ (N x N Ψ built, then row-selected), and a
// decode through it that mirrors cs::Decoder step for step. cs::Decoder never
// builds either; tests and benches compare it against these.
#pragma once

#include <algorithm>
#include <utility>

#include "cs/decoder.hpp"
#include "cs/sampling.hpp"
#include "dsp/basis.hpp"
#include "la/matrix.hpp"
#include "solvers/solver.hpp"

namespace flexcs::golden {

/// The M x N measurement matrix of `pattern` in `basis`.
inline la::Matrix measurement_matrix(dsp::BasisKind basis,
                                     const cs::SamplingPattern& pattern) {
  return dsp::synthesis_matrix(basis, pattern.rows, pattern.cols)
      .select_rows(pattern.indices);
}

/// cs::Decoder::decode_with through the dense matrix `a` of `pattern`:
/// solver.solve(Matrix), told that a re-fit follows exactly when the decoder
/// would tell it, then the same de-bias on the support, synthesis and clamp.
inline cs::DecodeResult decode(const la::Matrix& a,
                               const cs::SamplingPattern& pattern,
                               const la::Vector& y,
                               const solvers::SparseSolver& solver,
                               const cs::DecoderOptions& opts) {
  solvers::SolveOptions ctrl = opts.solve;
  ctrl.refit_on_support = opts.debias;
  solvers::SolveResult sr = solver.solve(a, y, ctrl);
  if (opts.debias && !sr.deadline_expired)
    sr.x = solvers::debias_on_support(a, y, sr.x, opts.support_threshold);

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
