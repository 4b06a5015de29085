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

struct ResampleOptions {
  int rounds = 10;       // the paper uses ten rounds of resampling
  Aggregate aggregate = Aggregate::kMedian;
  // Residual-trim each round's decode (see decode_trimmed). The paper's
  // plain method is trim = false; trimming is this library's refinement and
  // is what reaches the paper's reported ~50 % RMSE reduction band on the
  // synthetic data.
  bool trim = true;
  // Per-call deadline/cancellation shared across all rounds. Once it fires,
  // no further rounds start; pixels aggregate over the rounds that finished
  // (at least the first round always runs).
  solvers::SolveOptions solve;
};

/// What a resampling reconstruction produced: the aggregated frame and the
/// sparse-solver iterations of its rounds' production decodes, summed.
struct ResampleResult {
  la::Matrix frame;
  int solver_iterations = 0;
};

/// Resampling reconstruction: defects unknown, sample uniformly (possibly
/// hitting defective pixels), reconstruct per round, aggregate per pixel.
ResampleResult reconstruct_resample_ex(const la::Matrix& corrupted_frame,
                                       double fraction,
                                       const ResampleOptions& opts,
                                       const Encoder& encoder,
                                       const Decoder& decoder, Rng& rng);

/// Frame-only convenience wrapper over reconstruct_resample_ex.
la::Matrix reconstruct_resample(const la::Matrix& corrupted_frame,
                                double fraction, const ResampleOptions& opts,
                                const Encoder& encoder, const Decoder& decoder,
                                Rng& rng);

struct RpcaFilterOptions {
  rpca::RpcaOptions rpca;        // PCP solver options
  // Relative |S| threshold for flagging outliers. Erring low is cheap here:
  // a false positive just removes one candidate pixel from the sampling
  // pool, while a false negative lets a stuck pixel poison the decode.
  double outlier_rel_threshold = 0.1;
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

/// Everything decode_trimmed learned: the final decode (with residual and
/// convergence plumbed through), how many measurements the screen trimmed,
/// and which pixels they were (suspected defects, for runtime bookkeeping).
struct TrimmedDecodeResult {
  DecodeResult result;        // decode over the surviving measurements
  std::size_t trimmed_count = 0;
  std::vector<std::size_t> trimmed_pixels;  // pixel indices trimmed away
  bool trim_applied = false;  // false = screen trimmed too much, kept all
};

/// Residual-trimmed decode: screens once with a strongly regularised FISTA
/// solve (no de-biasing), flags measurements whose residual against the
/// screen is an outlier (beyond `mad_multiplier` times the median absolute
/// residual, with an absolute floor), removes them and decodes again with
/// the decoder's own solver. Robustifies the L1 decode against the few
/// corrupted measurements that upstream outlier detection missed.
/// `solve` carries the per-frame deadline/cancellation shared by the screen
/// and final decodes; when it fires the result comes back flagged
/// deadline_expired with no trim applied.
TrimmedDecodeResult decode_trimmed_ex(const Decoder& decoder,
                                      const SamplingPattern& p,
                                      const la::Vector& y,
                                      double mad_multiplier = 4.0,
                                      double abs_floor = 0.2,
                                      const solvers::SolveOptions& solve = {});

/// Frame-only convenience wrapper over decode_trimmed_ex.
la::Matrix decode_trimmed(const Decoder& decoder, const SamplingPattern& p,
                          const la::Vector& y, double mad_multiplier = 4.0,
                          double abs_floor = 0.2,
                          const solvers::SolveOptions& solve = {});

}  // namespace flexcs::cs
