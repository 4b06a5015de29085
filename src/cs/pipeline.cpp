#include "cs/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "solvers/fista.hpp"

namespace flexcs::cs {

la::Matrix reconstruct_oracle(const CorruptedFrame& corrupted,
                              double fraction, const Encoder& encoder,
                              const Decoder& decoder, Rng& rng) {
  const SamplingPattern pattern = random_pattern_excluding(
      corrupted.values.rows(), corrupted.values.cols(), fraction,
      corrupted.mask, rng);
  const la::Vector y = encoder.encode(corrupted.values, pattern, rng);
  return decoder.decode(pattern, y).frame;
}

ResidualScreen screen_residuals(const SamplingPattern& p, const la::Vector& y,
                                const la::Matrix& fit) {
  FLEXCS_CHECK(p.m() > 0 && y.size() == p.m() && fit.size() == p.n(),
               "residual screen: one read per sampled pixel of the fit");
  // A read is an outlier beyond max(kScreenAbsFloor, kScreenMadMultiplier *
  // median |residual|): far enough above the typical misfit that a fit of
  // the clean majority cannot explain it.
  constexpr double kScreenMadMultiplier = 4.0;
  constexpr double kScreenAbsFloor = 0.2;
  ResidualScreen screen;
  std::vector<double> absres(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    absres[i] = std::fabs(y[i] - fit.data()[p.indices[i]]);
  std::vector<double> sorted = absres;
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(p.m() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  screen.median = *mid;
  const double cutoff =
      std::max(kScreenAbsFloor, kScreenMadMultiplier * screen.median);
  screen.outlier.resize(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    screen.outlier[i] = absres[i] > cutoff;
  return screen;
}

TrimmedDecodeResult decode_trimmed(const Decoder& decoder,
                                   const SamplingPattern& p,
                                   const la::Vector& y,
                                   const solvers::SolveOptions& solve) {
  FLEXCS_CHECK(y.size() == p.m(),
               "decode_trimmed: one measurement per sampled pixel");

  DecoderOptions final_opts = decoder.options();
  final_opts.solve = solve;

  // Screening pass with strong shrinkage and no de-biasing: a heavily
  // regularised lasso cannot interpolate corrupted measurements, so their
  // residuals stand far above the clean ones (a low-shrinkage or de-biased
  // decode would fit the outliers and hide them). The screen is a FISTA
  // solve, the loop every other decode of the ladder runs: at this λ it
  // trims the same reads as an ADMM solve (test_pipeline pins that per fault
  // kind) without ADMM's conjugate-gradient solve per iteration.
  // The shrinkage is 0.2, capped at 8 % of lambda_max = ||Aᵀy||_inf (the
  // weight at which the lasso returns zero), so it follows the tile's signal
  // scale: lambda_max grows with M and the mean level (32x32 thermal frames
  // 4.3-6.8, 8x8 tiles at M = 16 0.3-1.2). Uncapped, 0.2 shrinks the screen
  // of a small or dark tile to its DC term and the trim discards legitimate
  // features (EXPERIMENTS.md E19).
  solvers::FistaOptions screen_solver_opts;
  screen_solver_opts.lambda = std::min(
      0.2,
      0.08 * decoder.measurement_operator(p)->apply_adjoint(y).norm_inf());
  const solvers::FistaSolver screen_solver(screen_solver_opts);
  DecoderOptions screen_opts = decoder.options();
  screen_opts.debias = false;
  screen_opts.clamp01 = false;
  screen_opts.solve = solve;
  const DecodeResult screen_dec =
      decoder.decode_with(p, y, screen_solver, screen_opts);
  if (screen_dec.deadline_expired) {
    // Budget spent during screening: a MAD trim over a truncated screen
    // would flag arbitrary measurements, so skip trimming entirely. The
    // final decode's own entry check returns immediately, flagged.
    TrimmedDecodeResult out;
    out.result = decoder.decode_with(p, y, decoder.solver(), final_opts);
    return out;
  }
  const ResidualScreen screen = screen_residuals(p, y, screen_dec.frame);

  SamplingPattern trimmed;
  trimmed.rows = p.rows;
  trimmed.cols = p.cols;
  std::vector<double> kept_vals;
  std::vector<std::size_t> trimmed_pixels;
  for (std::size_t i = 0; i < p.m(); ++i) {
    if (screen.outlier[i]) {
      trimmed_pixels.push_back(p.indices[i]);
      continue;
    }
    trimmed.indices.push_back(p.indices[i]);
    kept_vals.push_back(y[i]);
  }

  TrimmedDecodeResult out;
  // Keep the production decode of the full data if trimming would remove
  // more than half of the measurements (screening gone wrong).
  if (kept_vals.size() < p.m() / 2) {
    out.result = decoder.decode_with(p, y, decoder.solver(), final_opts);
    return out;
  }
  out.result = decoder.decode_with(trimmed, la::Vector(kept_vals),
                                   decoder.solver(), final_opts);
  out.trimmed_count = trimmed_pixels.size();
  out.trimmed_pixels = std::move(trimmed_pixels);
  return out;
}

la::Matrix aggregate_frames(const std::vector<la::Matrix>& frames,
                            Aggregate aggregate) {
  FLEXCS_CHECK(!frames.empty(), "aggregate needs at least one frame");
  la::Matrix out(frames.front().rows(), frames.front().cols(), 0.0);
  for (const la::Matrix& f : frames)
    FLEXCS_CHECK(f.size() == out.size(),
                 "aggregated frames must share a shape");
  std::vector<double> vals(frames.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t r = 0; r < frames.size(); ++r)
      vals[r] = frames[r].data()[i];
    if (aggregate == Aggregate::kMean) {
      double s = 0.0;
      for (double v : vals) s += v;
      out.data()[i] = s / static_cast<double>(vals.size());
      continue;
    }
    const std::size_t mid = vals.size() / 2;
    std::nth_element(vals.begin(),
                     vals.begin() + static_cast<std::ptrdiff_t>(mid),
                     vals.end());
    double med = vals[mid];
    if (vals.size() % 2 == 0) {
      // Median of an even count: average the two central order statistics.
      const double lower = *std::max_element(
          vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid));
      med = 0.5 * (med + lower);
    }
    out.data()[i] = med;
  }
  return out;
}

la::Matrix reconstruct_resample(const la::Matrix& corrupted_frame,
                                double fraction, const ResampleOptions& opts,
                                const Encoder& encoder, const Decoder& decoder,
                                Rng& rng) {
  FLEXCS_CHECK(opts.rounds >= 1, "resampling needs at least one round");
  std::vector<la::Matrix> frames;
  frames.reserve(static_cast<std::size_t>(opts.rounds));
  for (int round = 0; round < opts.rounds; ++round) {
    const SamplingPattern pattern = random_pattern(
        corrupted_frame.rows(), corrupted_frame.cols(), fraction, rng);
    const la::Vector y = encoder.encode(corrupted_frame, pattern, rng);
    frames.push_back(opts.trim
                         ? decode_trimmed(decoder, pattern, y).result.frame
                         : decoder.decode(pattern, y).frame);
  }
  return aggregate_frames(frames, opts.aggregate);
}

std::vector<std::vector<bool>> rpca_outlier_masks(
    const std::vector<la::Matrix>& frames, const RpcaFilterOptions& opts) {
  FLEXCS_CHECK(!frames.empty(), "RPCA filter needs at least one frame");
  const std::size_t n = frames.front().size();
  // Relative |S| threshold for flagging outliers. Erring low is cheap here:
  // a false positive just removes one candidate pixel from the sampling
  // pool, while a false negative lets a stuck pixel poison the decode.
  constexpr double kOutlierRelThreshold = 0.1;

  // RPCA runs on each frame's rows x cols matrix: a smooth sensor frame is
  // approximately low rank as an image, so a stuck pixel is a sparse outlier
  // in S. (Stacking frames as columns would NOT work for persistent device
  // defects: a pixel stuck at the same value in every frame forms a constant
  // row, which is itself rank-1 and gets absorbed into L.)
  std::vector<std::vector<bool>> masks;
  masks.reserve(frames.size());
  for (const auto& f : frames) {
    FLEXCS_CHECK(f.size() == n, "frames must share a shape");
    masks.push_back(rpca::detect_outliers(f, opts.rpca, kOutlierRelThreshold));
  }
  return masks;
}

std::vector<la::Matrix> reconstruct_rpca_batch(
    const std::vector<la::Matrix>& corrupted_frames, double fraction,
    const RpcaFilterOptions& opts, const Encoder& encoder,
    const Decoder& decoder, Rng& rng) {
  const auto masks = rpca_outlier_masks(corrupted_frames, opts);
  std::vector<la::Matrix> out;
  out.reserve(corrupted_frames.size());
  for (std::size_t f = 0; f < corrupted_frames.size(); ++f) {
    const auto& frame = corrupted_frames[f];
    const SamplingPattern pattern = random_pattern_excluding(
        frame.rows(), frame.cols(), fraction, masks[f], rng);
    const la::Vector y = encoder.encode(frame, pattern, rng);
    out.push_back(decode_trimmed(decoder, pattern, y).result.frame);
  }
  return out;
}

}  // namespace flexcs::cs
