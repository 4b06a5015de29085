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

ResampleResult reconstruct_resample_ex(const la::Matrix& corrupted_frame,
                                       double fraction,
                                       const ResampleOptions& opts,
                                       const Encoder& encoder,
                                       const Decoder& decoder, Rng& rng) {
  FLEXCS_CHECK(opts.rounds >= 1, "resampling needs at least one round");
  ResampleResult out;
  const std::size_t n = corrupted_frame.size();
  std::vector<std::vector<double>> per_pixel(
      n, std::vector<double>());
  for (auto& v : per_pixel) v.reserve(static_cast<std::size_t>(opts.rounds));

  DecoderOptions plain_opts = decoder.options();
  plain_opts.solve = opts.solve;
  for (int round = 0; round < opts.rounds; ++round) {
    // The shared deadline bounds the whole resample call: once it fires no
    // further rounds start. The first round always runs so every pixel has
    // at least one vote (its decode returns immediately, flagged, if the
    // deadline was already spent on entry).
    if (round > 0 && opts.solve.should_stop()) break;
    const SamplingPattern pattern = random_pattern(
        corrupted_frame.rows(), corrupted_frame.cols(), fraction, rng);
    const la::Vector y = encoder.encode(corrupted_frame, pattern, rng);
    const DecodeResult rec =
        opts.trim
            ? decode_trimmed_ex(decoder, pattern, y, 4.0, 0.2, opts.solve)
                  .result
            : decoder.decode_with(pattern, y, decoder.solver(), plain_opts);
    out.solver_iterations += rec.solver_iterations;
    for (std::size_t i = 0; i < n; ++i)
      per_pixel[i].push_back(rec.frame.data()[i]);
  }

  out.frame = la::Matrix(corrupted_frame.rows(), corrupted_frame.cols(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto& vals = per_pixel[i];
    if (opts.aggregate == Aggregate::kMean) {
      double s = 0.0;
      for (double v : vals) s += v;
      out.frame.data()[i] = s / static_cast<double>(vals.size());
    } else {
      const std::size_t mid = vals.size() / 2;
      std::nth_element(vals.begin(),
                       vals.begin() + static_cast<std::ptrdiff_t>(mid),
                       vals.end());
      double med = vals[mid];
      if (vals.size() % 2 == 0) {
        // Median of an even count: average the two central order statistics.
        const double lower =
            *std::max_element(vals.begin(),
                              vals.begin() + static_cast<std::ptrdiff_t>(mid));
        med = 0.5 * (med + lower);
      }
      out.frame.data()[i] = med;
    }
  }
  return out;
}

la::Matrix reconstruct_resample(const la::Matrix& corrupted_frame,
                                double fraction, const ResampleOptions& opts,
                                const Encoder& encoder, const Decoder& decoder,
                                Rng& rng) {
  return reconstruct_resample_ex(corrupted_frame, fraction, opts, encoder,
                                 decoder, rng)
      .frame;
}

std::vector<std::vector<bool>> rpca_outlier_masks(
    const std::vector<la::Matrix>& frames, const RpcaFilterOptions& opts) {
  FLEXCS_CHECK(!frames.empty(), "RPCA filter needs at least one frame");
  const std::size_t n = frames.front().size();

  // RPCA runs on each frame's rows x cols matrix: a smooth sensor frame is
  // approximately low rank as an image, so a stuck pixel is a sparse outlier
  // in S. (Stacking frames as columns would NOT work for persistent device
  // defects: a pixel stuck at the same value in every frame forms a constant
  // row, which is itself rank-1 and gets absorbed into L.)
  std::vector<std::vector<bool>> masks;
  masks.reserve(frames.size());
  for (const auto& f : frames) {
    FLEXCS_CHECK(f.size() == n, "frames must share a shape");
    masks.push_back(
        rpca::detect_outliers(f, opts.rpca, opts.outlier_rel_threshold));
  }
  return masks;
}

TrimmedDecodeResult decode_trimmed_ex(const Decoder& decoder,
                                      const SamplingPattern& p,
                                      const la::Vector& y,
                                      double mad_multiplier, double abs_floor,
                                      const solvers::SolveOptions& solve) {
  FLEXCS_CHECK(mad_multiplier > 0.0 && abs_floor >= 0.0,
               "invalid trim parameters");

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
  const la::Matrix& screen = screen_dec.frame;

  std::vector<double> absres(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    absres[i] = std::fabs(y[i] - screen.data()[p.indices[i]]);
  std::vector<double> sorted = absres;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double cutoff = std::max(abs_floor, mad_multiplier * median);

  SamplingPattern trimmed;
  trimmed.rows = p.rows;
  trimmed.cols = p.cols;
  std::vector<double> kept_vals;
  std::vector<std::size_t> trimmed_pixels;
  for (std::size_t i = 0; i < p.m(); ++i) {
    if (absres[i] > cutoff) {
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
  out.trim_applied = true;
  return out;
}

la::Matrix decode_trimmed(const Decoder& decoder, const SamplingPattern& p,
                          const la::Vector& y, double mad_multiplier,
                          double abs_floor, const solvers::SolveOptions& solve) {
  return decode_trimmed_ex(decoder, p, y, mad_multiplier, abs_floor, solve)
      .result.frame;
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
    out.push_back(decode_trimmed(decoder, pattern, y));
  }
  return out;
}

}  // namespace flexcs::cs
