#include "cs/decoder.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "solvers/fista.hpp"

namespace flexcs::cs {
namespace {

// `opts.solve` with the two facts the decoder knows about its solve. The
// operator's exact sigma_max is the step-size hint: the tight frame's 1 is
// the value FISTA's own power iteration would approach, minus its 120
// applies (a hint the caller already set wins; it knows something we
// don't). And a de-biasing decode re-fits on the returned support, so the
// solver may stop once the support is found; a decode without the re-fit
// never says so.
solvers::SolveOptions solve_options(const SubsampledTransformOperator& a,
                                    const DecoderOptions& opts) {
  solvers::SolveOptions solve = opts.solve;
  if (solve.operator_norm_hint <= 0.0)
    solve.operator_norm_hint = a.norm_upper_bound();
  solve.refit_on_support = opts.debias;
  return solve;
}

}  // namespace

Decoder::Decoder(std::size_t rows, std::size_t cols, DecoderOptions opts,
                 std::shared_ptr<const solvers::SparseSolver> solver)
    : rows_(rows), cols_(cols), opts_(opts), solver_(std::move(solver)) {
  FLEXCS_CHECK(rows_ > 0 && cols_ > 0, "decoder over empty array");
  // The transform surfaces the geometry constraints (Haar needs even dims)
  // here, not at the first decode.
  transform_ =
      std::make_shared<const dsp::BasisTransform>(opts_.basis, rows_, cols_);
  if (!solver_) solver_ = std::make_shared<solvers::FistaSolver>();
}

std::shared_ptr<const SubsampledTransformOperator>
Decoder::measurement_operator(const SamplingPattern& pattern) const {
  FLEXCS_CHECK(pattern.rows == rows_ && pattern.cols == cols_,
               "decoder: pattern shape mismatch");
  return std::make_shared<const SubsampledTransformOperator>(transform_,
                                                             pattern);
}

DecodeResult Decoder::decode(const SamplingPattern& pattern,
                             const la::Vector& measurements) const {
  return decode_with(pattern, measurements, *solver_, opts_);
}

DecodeResult Decoder::decode_with(const SamplingPattern& pattern,
                                  const la::Vector& measurements,
                                  const solvers::SparseSolver& solver,
                                  const DecoderOptions& opts) const {
  FLEXCS_CHECK(measurements.size() == pattern.m(),
               "decoder: measurement count mismatch");
  FLEXCS_CHECK(measurements.size() > 0, "decoder: no measurements");
  FLEXCS_CHECK(la::all_finite(measurements),
               "decoder: non-finite measurement (reject defective reads "
               "before decoding)");
  FLEXCS_CHECK(opts.basis == opts_.basis,
               "decode_with cannot change the basis (the transform is built "
               "once)");
  FLEXCS_CHECK(pattern.rows == rows_ && pattern.cols == cols_,
               "decoder: pattern shape mismatch");
  const SubsampledTransformOperator a(transform_, pattern);
  solvers::SolveResult sr =
      solver.solve(a, measurements, solve_options(a, opts));

  // Skip de-biasing on an interrupted solve: the caller's budget is spent,
  // and a least-squares re-fit of a partial support isn't worth paying for.
  // The re-fit polls the same deadline and cancel token; when they fire
  // mid-fit the lasso iterate stands and the decode is flagged expired.
  if (opts.debias && !sr.deadline_expired) {
    la::Vector fit = solvers::debias_on_support(
        a, measurements, sr.x, opts.support_threshold,
        [&opts] { return opts.solve.should_stop(); });
    if (fit.empty())
      sr.deadline_expired = true;
    else
      sr.x = std::move(fit);
  }

  DecodeResult out;
  out.solver_iterations = sr.iterations;
  out.converged = sr.converged;
  out.deadline_expired = sr.deadline_expired;
  out.residual_norm = sr.residual_norm;
  out.solve_seconds = sr.solve_seconds;

  // Synthesise the frame from the recovered coefficients (y = Ψ x) through
  // the decoder's transform.
  out.frame = a.synthesize(sr.x);
  out.coefficients = std::move(sr.x);
  if (opts.clamp01) {
    for (std::size_t i = 0; i < out.frame.size(); ++i)
      out.frame.data()[i] = std::clamp(out.frame.data()[i], 0.0, 1.0);
  }
  return out;
}

}  // namespace flexcs::cs
