// The CS decoder (the "silicon side" of Eq. 8/9): recovers the full frame
// from the sampled measurements by L1-minimising the coefficients in the
// sparsifying basis Ψ and re-synthesising the frame.
#pragma once

#include <memory>
#include <vector>

#include "common/annotations.hpp"
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
  // stopped at a 1e-9 relative residual.
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
/// ever built; the configured sparse solver runs on that operator.
class Decoder {
 public:
  /// `solver` may be null, which selects the library default (ADMM-BPDN).
  Decoder(std::size_t rows, std::size_t cols, DecoderOptions opts = {},
          std::shared_ptr<const solvers::SparseSolver> solver = nullptr);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const DecoderOptions& options() const { return opts_; }
  const solvers::SparseSolver& solver() const { return *solver_; }

  /// Recovers a frame from measurements taken with `pattern`.
  DecodeResult decode(const SamplingPattern& pattern,
                      const la::Vector& measurements) const;

  /// Same decode, but with an explicit solver and options (reusing the
  /// cached operator). Used by robust pipelines that need a screening pass
  /// with different shrinkage than the production decode.
  DecodeResult decode_with(const SamplingPattern& pattern,
                           const la::Vector& measurements,
                           const solvers::SparseSolver& solver,
                           const DecoderOptions& opts) const;

  /// Cached measurement operator for a pattern, keyed on the pattern's index
  /// vector (small MRU cache). Repeated decodes with the same pattern — the
  /// plain decode and the trimmed rung's screen — reuse the operator and
  /// its DCT plans.
  std::shared_ptr<const SubsampledTransformOperator> measurement_operator(
      const SamplingPattern& pattern) const;

  /// sigma_max of the pattern's measurement operator: exactly 1, because
  /// A = Φ_M·Ψ is a tight frame (A·Aᵀ = I_M), so no power iteration runs.
  /// Every decode passes it to the solver as the Lipschitz/step-size bound
  /// (SolveOptions::operator_norm_hint) unless the caller set one.
  double operator_norm(const SamplingPattern& pattern) const;

  /// Cumulative MRU-cache telemetry. The cache is keyed on the pattern's
  /// full index vector, so patterns of different sampling fractions (the
  /// event-driven dense/sparse tile schedules) can never collide — the
  /// counters make that observable: a re-used pattern is a hit, a new or
  /// evicted one a miss.
  struct OperatorCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;     // entry built (or rebuilt after eviction)
    std::size_t evictions = 0;  // entries pushed out by capacity
  };
  OperatorCacheStats cache_stats() const;

 private:
  struct CachedOperator {
    std::vector<std::size_t> indices;  // cache key (pattern row selection)
    std::shared_ptr<const SubsampledTransformOperator> op;
  };

  /// Cache lookup/build; returns the entry by value (shared pointer, cheap)
  /// so callers never hold references into the MRU vector.
  CachedOperator entry_for(const SamplingPattern& pattern) const
      FLEXCS_EXCLUDES(cache_mu_);

  std::size_t rows_;
  std::size_t cols_;
  DecoderOptions opts_;
  std::shared_ptr<const solvers::SparseSolver> solver_;
  // cache_mu_ guards the MRU operator cache: decode paths are const and a
  // Decoder may be shared across worker threads, so the cache must tolerate
  // concurrent use (contract checked by Clang TSA under `analyze`).
  mutable common::Mutex cache_mu_;
  mutable std::vector<CachedOperator> operator_cache_  // MRU order, bounded
      FLEXCS_GUARDED_BY(cache_mu_);
  mutable OperatorCacheStats cache_stats_ FLEXCS_GUARDED_BY(cache_mu_);
};

}  // namespace flexcs::cs
