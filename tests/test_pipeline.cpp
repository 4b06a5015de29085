// Robust-sensing pipelines (Sec. 4 of the paper): oracle exclusion,
// resampling, and RPCA outlier filtering under injected sparse errors.
#include "cs/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "cs/faults.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "golden.hpp"
#include "solvers/admm.hpp"
#include "solvers/fista.hpp"

namespace flexcs::cs {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : decoder_(32, 32) {}

  la::Matrix make_frame(Rng& rng) {
    data::ThermalHandGenerator gen;
    return gen.sample(rng).values;
  }

  Encoder encoder_;
  Decoder decoder_;
};

TEST_F(PipelineTest, OracleExclusionBeatsNoCs) {
  Rng rng(1);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.10;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);

  const double rmse_no_cs = rmse(cf.values, frame);
  const la::Matrix rec =
      reconstruct_oracle(cf, 0.5, encoder_, decoder_, rng);
  const double rmse_cs = rmse(rec, frame);

  // Headline result of the paper: 0.20 -> 0.05 at 10 % sparse errors.
  EXPECT_GT(rmse_no_cs, 0.12);
  EXPECT_LT(rmse_cs, 0.07);
  EXPECT_LT(rmse_cs, 0.5 * rmse_no_cs);
}

TEST_F(PipelineTest, OracleToleratesTwentyPercentErrors) {
  Rng rng(2);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.20;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);
  const la::Matrix rec =
      reconstruct_oracle(cf, 0.5, encoder_, decoder_, rng);
  EXPECT_LT(rmse(rec, frame), 0.09);
}

TEST_F(PipelineTest, ResampleMedianSuppressesUnknownDefects) {
  Rng rng(3);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.05;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);

  ResampleOptions ropts;
  ropts.rounds = 10;
  ropts.aggregate = Aggregate::kMedian;
  const la::Matrix rec = reconstruct_resample(cf.values, 0.5, ropts,
                                              encoder_, decoder_, rng);
  // Must improve on using the corrupted frame directly.
  EXPECT_LT(rmse(rec, frame), rmse(cf.values, frame));
}

TEST_F(PipelineTest, MedianBeatsMeanUnderOutliers) {
  Rng rng(4);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.08;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);

  ResampleOptions median_opts;
  median_opts.rounds = 8;
  median_opts.aggregate = Aggregate::kMedian;
  ResampleOptions mean_opts = median_opts;
  mean_opts.aggregate = Aggregate::kMean;

  Rng r1(99), r2(99);
  const la::Matrix rec_med = reconstruct_resample(cf.values, 0.5, median_opts,
                                                  encoder_, decoder_, r1);
  const la::Matrix rec_mean = reconstruct_resample(cf.values, 0.5, mean_opts,
                                                   encoder_, decoder_, r2);
  // The paper picks the median as "more robust to outliers"; allow a small
  // slack since both are stochastic.
  EXPECT_LT(rmse(rec_med, frame), rmse(rec_mean, frame) + 0.01);
}

TEST_F(PipelineTest, ResampleValidatesRounds) {
  Rng rng(5);
  const la::Matrix frame = make_frame(rng);
  ResampleOptions ropts;
  ropts.rounds = 0;
  EXPECT_THROW(reconstruct_resample(frame, 0.5, ropts, encoder_, decoder_,
                                    rng),
               CheckError);
}

TEST(AggregateFrames, MeanAndMedianPerPixel) {
  const std::vector<la::Matrix> frames = {
      la::Matrix{{1.0, 4.0}}, la::Matrix{{3.0, 0.0}}, la::Matrix{{2.0, 9.0}},
      la::Matrix{{10.0, 1.0}}};
  const la::Matrix mean = aggregate_frames(frames, Aggregate::kMean);
  EXPECT_DOUBLE_EQ(mean(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(mean(0, 1), 3.5);
  // An even count averages the two central order statistics.
  const la::Matrix median = aggregate_frames(frames, Aggregate::kMedian);
  EXPECT_DOUBLE_EQ(median(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(median(0, 1), 2.5);
  const std::vector<la::Matrix> odd(frames.begin(), frames.end() - 1);
  EXPECT_DOUBLE_EQ(aggregate_frames(odd, Aggregate::kMedian)(0, 1), 4.0);
  EXPECT_THROW(aggregate_frames({}, Aggregate::kMean), CheckError);
}

TEST(ResidualScreen, FlagsReadsBeyondTheMadCutoff) {
  // Five reads of a 1x5 array against a zero fit.
  SamplingPattern p;
  p.rows = 1;
  p.cols = 5;
  p.indices = {0, 1, 2, 3, 4};
  const la::Matrix fit(1, 5, 0.0);
  // Small residuals: the 0.2 floor sets the cutoff.
  const ResidualScreen low =
      screen_residuals(p, la::Vector{0.01, -0.02, 0.03, 0.5, 0.02}, fit);
  EXPECT_DOUBLE_EQ(low.median, 0.02);
  EXPECT_EQ(low.outlier,
            (std::vector<bool>{false, false, false, true, false}));
  // Large residuals: the cutoff is 4 x the median, 0.4.
  const ResidualScreen high =
      screen_residuals(p, la::Vector{0.1, 0.41, -0.1, 0.39, 0.1}, fit);
  EXPECT_DOUBLE_EQ(high.median, 0.1);
  EXPECT_EQ(high.outlier,
            (std::vector<bool>{false, true, false, false, false}));
  EXPECT_THROW(screen_residuals(p, la::Vector{0.1}, fit), CheckError);
}

TEST_F(PipelineTest, RpcaBatchDetectsAndReconstructs) {
  Rng rng(6);
  data::ThermalHandGenerator gen;
  // A batch of frames with persistent array defects (same pixels each frame).
  const std::size_t batch = 12;
  const auto mask = random_defect_mask(32, 32, 0.06, rng);
  std::vector<la::Matrix> clean, corrupted;
  for (std::size_t i = 0; i < batch; ++i) {
    clean.push_back(gen.sample(rng).values);
    corrupted.push_back(
        apply_defect_mask(clean.back(), mask, DefectPolarity::kRandom, rng));
  }

  RpcaFilterOptions opts;
  const auto recs = reconstruct_rpca_batch(corrupted, 0.5, opts, encoder_,
                                           decoder_, rng);
  ASSERT_EQ(recs.size(), batch);
  double rmse_cs = 0.0, rmse_no = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    rmse_cs += rmse(recs[i], clean[i]);
    rmse_no += rmse(corrupted[i], clean[i]);
  }
  EXPECT_LT(rmse_cs, rmse_no);
  EXPECT_LT(rmse_cs / static_cast<double>(batch), 0.09);
}

TEST_F(PipelineTest, RpcaMaskShapeMatchesBatch) {
  Rng rng(7);
  data::ThermalHandGenerator gen;
  std::vector<la::Matrix> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(gen.sample(rng).values);
  const auto masks = rpca_outlier_masks(frames, RpcaFilterOptions{});
  ASSERT_EQ(masks.size(), 5u);
  for (const auto& m : masks) EXPECT_EQ(m.size(), 1024u);
}

TEST_F(PipelineTest, RpcaRejectsEmptyBatch) {
  EXPECT_THROW(rpca_outlier_masks({}, RpcaFilterOptions{}), CheckError);
}


TEST_F(PipelineTest, DecodeTrimmedRemovesContamination) {
  // Blind sampling at 8 % defects: the trimmed decode must beat the plain
  // decode substantially.
  Rng rng(8);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.08;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder_.encode(cf.values, p, rng);
  const double plain = rmse(decoder_.decode(p, y).frame, frame);
  const double trimmed =
      rmse(decode_trimmed(decoder_, p, y).result.frame, frame);
  EXPECT_LT(trimmed, 0.5 * plain);
  EXPECT_LT(trimmed, 0.05);
}

TEST_F(PipelineTest, DecodeTrimmedIsHarmlessOnCleanData) {
  Rng rng(9);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder_.encode(frame, p, rng);
  const double plain = rmse(decoder_.decode(p, y).frame, frame);
  const double trimmed =
      rmse(decode_trimmed(decoder_, p, y).result.frame, frame);
  EXPECT_LT(trimmed, plain + 0.01);
}

TEST_F(PipelineTest, DecodeTrimmedReportsTrimBookkeeping) {
  Rng rng(14);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.08;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder_.encode(cf.values, p, rng);

  const TrimmedDecodeResult tr = decode_trimmed(decoder_, p, y);
  EXPECT_GT(tr.trimmed_count, 0u);
  EXPECT_LT(tr.trimmed_count, p.m() / 2);  // the guard that keeps the decode
  EXPECT_EQ(tr.trimmed_pixels.size(), tr.trimmed_count);
  // Every reported trimmed pixel really was sampled by the pattern.
  for (std::size_t px : tr.trimmed_pixels) {
    EXPECT_NE(std::find(p.indices.begin(), p.indices.end(), px),
              p.indices.end());
  }
  // One measurement per sampled pixel, or nothing to screen.
  EXPECT_THROW(decode_trimmed(decoder_, p, la::Vector(p.m() - 1, 0.5)),
               CheckError);
}

// The residual screen as decode_trimmed ran it on ADMM: the same λ, no
// de-biasing, no clamp, the same MAD cutoff and the same keep-half guard.
// Returns the pixels it trims (none when the guard keeps every read).
std::vector<std::size_t> admm_screen_trim(const Decoder& decoder,
                                          const SamplingPattern& p,
                                          const la::Vector& y) {
  solvers::AdmmOptions admm_opts;
  admm_opts.lambda = std::min(
      0.2,
      0.08 * decoder.measurement_operator(p)->apply_adjoint(y).norm_inf());
  DecoderOptions screen_opts = decoder.options();
  screen_opts.debias = false;
  screen_opts.clamp01 = false;
  const la::Matrix screen =
      decoder
          .decode_with(p, y, solvers::AdmmLassoSolver(admm_opts), screen_opts)
          .frame;
  std::vector<double> absres(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    absres[i] = std::fabs(y[i] - screen.data()[p.indices[i]]);
  std::vector<double> sorted = absres;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double cutoff = std::max(0.2, 4.0 * sorted[sorted.size() / 2]);
  std::vector<std::size_t> trimmed;
  for (std::size_t i = 0; i < p.m(); ++i)
    if (absres[i] > cutoff) trimmed.push_back(p.indices[i]);
  if (p.m() - trimmed.size() < p.m() / 2) trimmed.clear();
  return trimmed;
}

TEST(DecodeTrimmedScreen, FistaScreenTrimsTheSameReadsAsAdmm) {
  // The screen's only output is the set of reads it trims, so moving its
  // solve from ADMM to FISTA at the same λ must keep that set: checked on
  // the runtime's 20×20 halo tiles and on 32×32 frames, per fault kind.
  const auto fista = std::make_shared<solvers::FistaSolver>();
  const std::vector<Fault> faults = {
      StuckPixelFault{0.05, DefectPolarity::kRandom, 3},
      LineFault{LineOrientation::kRow, 4, LineFailureMode::kStuckHigh, 1},
      FlickerFault{0.03, DefectPolarity::kRandom, 5},
      ReadoutNoiseFault{0.02, 7},
      AdcSaturationFault{0.2, 0.8},
  };
  std::size_t cases = 0, trimming = 0;
  for (const std::size_t dim : {20u, 32u}) {
    data::ThermalOptions topts;
    topts.rows = topts.cols = dim;
    const data::ThermalHandGenerator gen(topts);
    const Decoder decoder(dim, dim, {}, fista);
    const Encoder encoder;
    for (const Fault& fault : faults) {
      const FaultScenario scenario({fault});
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(1000 * dim + 10 * static_cast<std::uint64_t>(
                                     fault_kind(fault)) + seed);
        const la::Matrix frame = gen.sample(rng).values;
        const SamplingPattern p0 = random_pattern(dim, dim, 0.5, rng);
        const la::Vector y0 =
            encoder.encode(scenario.corrupt_frame(frame, seed).values, p0, rng);
        const FaultedMeasurements fm =
            scenario.corrupt_measurements(y0, p0, seed);
        const std::vector<std::size_t> want =
            admm_screen_trim(decoder, fm.pattern, fm.values);
        const TrimmedDecodeResult got =
            decode_trimmed(decoder, fm.pattern, fm.values);
        EXPECT_EQ(got.trimmed_pixels, want)
            << dim << "x" << dim << " " << fault_kind_name(fault_kind(fault))
            << " seed " << seed;
        ++cases;
        if (!want.empty()) ++trimming;
      }
    }
  }
  EXPECT_EQ(cases, 2u * 5u * 3u);
  // Not vacuous: most faulted cases trim something.
  EXPECT_GE(trimming, cases / 2);
}

TEST_F(PipelineTest, DecodeResultCarriesSolverResidual) {
  Rng rng(15);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder_.encode(frame, p, rng);
  const DecodeResult res = decoder_.decode(p, y);
  // residual_norm is the solver's ||Ax - y||: positive, finite, and small
  // relative to ||y|| on a clean frame.
  EXPECT_GT(res.residual_norm, 0.0);
  EXPECT_TRUE(std::isfinite(res.residual_norm));
  EXPECT_LT(res.residual_norm, 0.2 * y.norm2());

  // Corrupting measurements must push the reported residual up — this is the
  // signal the runtime ladder escalates on.
  la::Vector bad = y;
  for (std::size_t i = 0; i < bad.size(); i += 7) bad[i] = 1.0;
  const DecodeResult worse = decoder_.decode(p, bad);
  EXPECT_GT(worse.residual_norm, res.residual_norm);
}

TEST_F(PipelineTest, DecodeWithAlternativeSolverMatchesDecoder) {
  Rng rng(11);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder_.encode(frame, p, rng);
  // decode() must be exactly decode_with(default solver, default options).
  const la::Matrix a = decoder_.decode(p, y).frame;
  const la::Matrix b =
      decoder_.decode_with(p, y, decoder_.solver(), decoder_.options()).frame;
  EXPECT_EQ(la::max_abs_diff(a, b), 0.0);
}

TEST_F(PipelineTest, DecodeWithRejectsBasisChange) {
  Rng rng(12);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y(p.m(), 0.5);
  DecoderOptions wrong = decoder_.options();
  wrong.basis = dsp::BasisKind::kHaar2D;
  EXPECT_THROW(decoder_.decode_with(p, y, decoder_.solver(), wrong),
               CheckError);
}

TEST_F(PipelineTest, ImplicitPsiDecodeMatchesDensePath) {
  // The matrix-free decoder must match the dense golden: same frame, same
  // pattern, same solver — reconstructions agree to solver precision
  // without the decoder ever building Ψ.
  Rng rng(21), rng2(21);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng2);
  const la::Vector y = encoder_.encode(frame, p, rng);

  const DecodeResult dense =
      golden::decode(p, y, decoder_.solver(), decoder_.options());
  const DecodeResult matrix_free = decoder_.decode(p, y);
  EXPECT_EQ(dense.converged, matrix_free.converged);
  EXPECT_LT(la::max_abs_diff(dense.frame, matrix_free.frame), 1e-4);
  EXPECT_NEAR(dense.residual_norm, matrix_free.residual_norm, 1e-6);
  // The operator's norm bound is the exact sigma of the tight frame
  // A = Φ_M·Ψ (no power iteration); it must agree with the dense matrix's
  // spectral norm.
  EXPECT_NEAR(decoder_.measurement_operator(p)->norm_upper_bound(),
              la::spectral_norm(golden::measurement_matrix(
                  dsp::BasisKind::kDct2D, p)),
              1e-10);
}

TEST_F(PipelineTest, FistaImplicitRmseMatchesDenseWithinTightTolerance) {
  // Regression pinning the fast-kernel operator to the dense reference: the
  // folded DCT applies round differently from dense matvecs at ~1e-15
  // per pass, but through a full FISTA decode the recovered RMSE must stay
  // within 1e-12 of the dense golden (observed drift is ~1e-15).
  Rng rng(25), rng2(25);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng2);
  const la::Vector y = apply_pattern(p, frame.flatten());

  solvers::FistaOptions fopts;
  fopts.max_iterations = 2000;
  fopts.tol = 1e-9;
  const auto fista = std::make_shared<solvers::FistaSolver>(fopts);

  DecoderOptions opts;
  opts.debias = false;
  opts.clamp01 = false;
  const Decoder implicit_decoder(32, 32, opts, fista);

  const DecodeResult dense = golden::decode(p, y, *fista, opts);
  const DecodeResult implicit = implicit_decoder.decode(p, y);
  EXPECT_EQ(dense.solver_iterations, implicit.solver_iterations);
  EXPECT_NEAR(rmse(dense.frame, frame), rmse(implicit.frame, frame), 1e-12);
}

TEST_F(PipelineTest, ImplicitPsiDebiasHonoursSupportThreshold) {
  // Regression for the support_threshold contract on the implicit path:
  // debias-on-support must run matrix-free (no cached dense A exists), and
  // a threshold high enough to empty the support must zero the coefficients
  // rather than fall back to the biased estimate or throw.
  Rng rng(23), rng2(23);
  const la::Matrix frame = make_frame(rng);
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng2);
  const la::Vector y = encoder_.encode(frame, p, rng);

  DecoderOptions opts;
  opts.debias = true;
  opts.clamp01 = false;
  const Decoder decoder(32, 32, opts);

  const DecodeResult debiased = decoder.decode(p, y);
  DecoderOptions no_debias = opts;
  no_debias.debias = false;
  const Decoder plain_decoder(32, 32, no_debias);
  const DecodeResult biased = plain_decoder.decode(p, y);
  // De-biasing must actually change the coefficients (it re-fits the
  // support), proving the implicit path did not silently skip it.
  EXPECT_GT(la::max_abs_diff(debiased.coefficients, biased.coefficients),
            1e-12);
  // Every coefficient below the threshold must be zeroed by the re-fit.
  DecoderOptions huge_threshold = opts;
  huge_threshold.support_threshold = 1e9;
  const Decoder zeroing_decoder(32, 32, huge_threshold);
  const DecodeResult zeroed = zeroing_decoder.decode(p, y);
  EXPECT_EQ(zeroed.coefficients.norm_inf(), 0.0);
}

TEST_F(PipelineTest, ResampleTrimOptionImprovesResult) {
  Rng rng(13);
  const la::Matrix frame = make_frame(rng);
  DefectOptions dopts;
  dopts.rate = 0.08;
  const CorruptedFrame cf = inject_defects(frame, dopts, rng);
  ResampleOptions with_trim;
  with_trim.rounds = 6;
  with_trim.trim = true;
  ResampleOptions no_trim = with_trim;
  no_trim.trim = false;
  Rng r1(5), r2(5);
  const double e_trim = rmse(
      reconstruct_resample(cf.values, 0.5, with_trim, encoder_, decoder_, r1),
      frame);
  const double e_plain = rmse(
      reconstruct_resample(cf.values, 0.5, no_trim, encoder_, decoder_, r2),
      frame);
  EXPECT_LT(e_trim, e_plain);
}

}  // namespace
}  // namespace flexcs::cs
