// The CS decoder (the "silicon side" of Eq. 8/9): recovers the full frame
// from the sampled measurements by L1-minimising the coefficients in the
// sparsifying basis Ψ and re-synthesising the frame.
#pragma once

#include <memory>
#include <vector>

#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "dsp/basis.hpp"
#include "la/matrix.hpp"
#include "solvers/solver.hpp"

namespace flexcs::cs {

struct DecoderOptions {
  dsp::BasisKind basis = dsp::BasisKind::kDct2D;
  // Least-squares re-fit on the recovered support: CG on the masked normal
  // equations (matrix-free), seeded with the solver's support values and
  // stopped at a 1e-9 relative residual. The decoder sets the solve's
  // SolveOptions::refit_on_support exactly when this is on (whatever
  // `solve` says), so FISTA may stop once its support is found and leave the
  // values to the re-fit (fista.hpp); a decode without the re-fit keeps the
  // solver's full stopping rule.
  bool debias = true;
  bool clamp01 = true;       // clamp the reconstruction into [0, 1]
  // Strictly |coef| > support_threshold counts as support for the debias
  // re-fit.
  double support_threshold = 1e-6;
  // Per-decode cooperative control (deadline / cancellation), forwarded to
  // the sparse solver and polled by the debias re-fit. Streaming callers
  // thread a per-frame deadline here via decode_with; the default is inert.
  // When the solve is interrupted, de-biasing is skipped so the decode
  // returns as soon as possible; when the re-fit is, the solver's iterate is
  // returned as if debias were off.
  solvers::SolveOptions solve;
};

struct DecodeResult {
  la::Matrix frame;         // reconstructed rows x cols frame
  la::Vector coefficients;  // recovered sparse coefficient vector (size N)
  int solver_iterations = 0;
  bool converged = false;
  // Solver or debias re-fit stopped by deadline/cancellation.
  bool deadline_expired = false;
  // ||A x - y||_2 at the solver's solution, before de-biasing. Plumbed from
  // solvers::SolveResult so runtime sanity checks can judge decode quality
  // without ground truth (a de-biased least-squares re-fit can interpolate
  // corrupted measurements, so the pre-debias residual is the honest one).
  double residual_norm = 0.0;
  double solve_seconds = 0.0;  // wall time inside the sparse solver
};

/// Decoder for a fixed array geometry. Decodes matrix-free: the measurement
/// operator A = Φ_M·Ψ of each pattern is a SubsampledTransformOperator (fast
/// 2-D transform plus row gather), so neither the N x N Ψ nor the M x N A is
/// ever built; the configured sparse solver runs on that operator. Ψ is fixed
/// by the geometry, so its dsp::BasisTransform is built once, at
/// construction; only Φ_M changes per decode. Immutable after construction:
/// one instance may serve any number of threads.
class Decoder {
 public:
  /// `solver` may be null, which selects the library default (FISTA).
  Decoder(std::size_t rows, std::size_t cols, DecoderOptions opts = {},
          std::shared_ptr<const solvers::SparseSolver> solver = nullptr);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const DecoderOptions& options() const { return opts_; }
  const solvers::SparseSolver& solver() const { return *solver_; }

  /// Recovers a frame from measurements taken with `pattern`.
  DecodeResult decode(const SamplingPattern& pattern,
                      const la::Vector& measurements) const;

  /// Same decode, but with an explicit solver and options. Used by robust
  /// pipelines that need a screening pass with different shrinkage than the
  /// production decode.
  DecodeResult decode_with(const SamplingPattern& pattern,
                           const la::Vector& measurements,
                           const solvers::SparseSolver& solver,
                           const DecoderOptions& opts) const;

  /// The measurement operator of a pattern, over the decoder's shared
  /// transform (building it costs one pass over the pattern's indices).
  std::shared_ptr<const SubsampledTransformOperator> measurement_operator(
      const SamplingPattern& pattern) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  DecoderOptions opts_;
  std::shared_ptr<const solvers::SparseSolver> solver_;
  std::shared_ptr<const dsp::BasisTransform> transform_;
};

}  // namespace flexcs::cs
