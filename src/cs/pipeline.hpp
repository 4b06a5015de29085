// End-to-end robust-sensing pipelines from Sec. 4 of the paper:
//
//   * no-CS baseline        — use the (defective) raw frame directly;
//   * oracle exclusion      — defects known from testing, sample good pixels
//                             only, reconstruct (Sec. 4.2);
//   * resampling            — defects unknown: R independent sample/
//                             reconstruct rounds, aggregate per pixel with
//                             the mean or median (Sec. 4.3);
//   * RPCA outlier filter   — defects unknown: detect outliers with robust
//                             PCA over a frame batch, exclude, reconstruct
//                             (Sec. 4.3).
//
// Their two unknown-defect tools are also the runtime ladder's
// (runtime/pipeline.hpp), which calls them rather than keeping copies: the
// per-pixel aggregate (aggregate_frames), the residual screen
// (screen_residuals) and the residual-trimmed decode built on it
// (decode_trimmed).
#pragma once

#include <vector>

#include "cs/decoder.hpp"
#include "cs/defects.hpp"
#include "cs/encoder.hpp"
#include "rpca/rpca.hpp"

namespace flexcs::cs {

/// Oracle-exclusion reconstruction of one corrupted frame. `fraction` is the
/// sampling percentage relative to the full array (the paper's 45-60 %).
la::Matrix reconstruct_oracle(const CorruptedFrame& corrupted,
                              double fraction, const Encoder& encoder,
                              const Decoder& decoder, Rng& rng);

enum class Aggregate { kMean, kMedian };

/// Per-pixel mean or median over the frames of several sample/reconstruct
/// rounds (Sec. 4.3); the mean sums in round order, and the median of an
/// even count averages its two central order statistics. Every frame must
/// share one shape.
la::Matrix aggregate_frames(const std::vector<la::Matrix>& frames,
                            Aggregate aggregate);

struct ResampleOptions {
  int rounds = 10;       // the paper uses ten rounds of resampling
  Aggregate aggregate = Aggregate::kMedian;
  // Residual-trim each round's decode (see decode_trimmed). The paper's
  // plain method is trim = false; trimming is this library's refinement and
  // is what reaches the paper's reported ~50 % RMSE reduction band on the
  // synthetic data.
  bool trim = true;
};

/// Resampling reconstruction: defects unknown, sample uniformly (possibly
/// hitting defective pixels), reconstruct per round, aggregate per pixel.
la::Matrix reconstruct_resample(const la::Matrix& corrupted_frame,
                                double fraction, const ResampleOptions& opts,
                                const Encoder& encoder, const Decoder& decoder,
                                Rng& rng);

struct RpcaFilterOptions {
  rpca::RpcaOptions rpca;        // PCP solver options
};

/// RPCA-prefiltered reconstruction of a batch of corrupted frames. Outliers
/// are detected per frame by principal component pursuit on the frame
/// matrix itself (smooth frames are low rank as images), excluded from the
/// sampling pool, and each frame is reconstructed from surviving pixels
/// with a residual-trimmed decode.
std::vector<la::Matrix> reconstruct_rpca_batch(
    const std::vector<la::Matrix>& corrupted_frames, double fraction,
    const RpcaFilterOptions& opts, const Encoder& encoder,
    const Decoder& decoder, Rng& rng);

/// Per-pixel outlier mask over a batch via RPCA (exposed for evaluation of
/// detection quality). Element [f][i] refers to pixel i of frame f.
std::vector<std::vector<bool>> rpca_outlier_masks(
    const std::vector<la::Matrix>& frames, const RpcaFilterOptions& opts);

/// The residual screen: |y_i - fit[p_i]| for every read, their median, and
/// the reads beyond the cutoff max(0.2, 4 * median), which a fit of the
/// clean majority cannot explain. The trimmed decode discards those reads,
/// the runtime ladder names their pixels suspected defects, and its
/// resampling rung is judged by the median (which ignores up to half the
/// reads, so defective ones cannot veto a fit of the clean majority).
struct ResidualScreen {
  double median = 0.0;       // median |residual|: the (m/2)-th order statistic
  std::vector<bool> outlier;  // per read: |residual| beyond the cutoff
};

ResidualScreen screen_residuals(const SamplingPattern& p, const la::Vector& y,
                                const la::Matrix& fit);

/// Everything decode_trimmed learned: the final decode (with residual and
/// convergence plumbed through), how many measurements the screen trimmed,
/// and which pixels they were (suspected defects, for runtime bookkeeping).
struct TrimmedDecodeResult {
  DecodeResult result;        // decode over the surviving measurements
  std::size_t trimmed_count = 0;
  std::vector<std::size_t> trimmed_pixels;  // pixel indices trimmed away
};

/// Residual-trimmed decode: screens once with a strongly regularised FISTA
/// solve (no de-biasing), drops the measurements screen_residuals flags
/// against it and decodes again with the decoder's own solver. Robustifies
/// the L1 decode against the few corrupted measurements that upstream
/// outlier detection missed. `solve` carries the per-frame
/// deadline/cancellation shared by the screen and final decodes; when it
/// fires the result comes back flagged deadline_expired with no trim applied.
TrimmedDecodeResult decode_trimmed(const Decoder& decoder,
                                   const SamplingPattern& p,
                                   const la::Vector& y,
                                   const solvers::SolveOptions& solve = {});

}  // namespace flexcs::cs
