// Encoder/decoder integration: the core CS loop on synthetic frames.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "cs/decoder.hpp"
#include "data/shapes.hpp"
#include "cs/encoder.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "dsp/sparsity.hpp"
#include "golden.hpp"
#include "solvers/solver.hpp"

namespace flexcs::cs {
namespace {

la::Matrix smooth_test_frame(std::size_t rows, std::size_t cols) {
  // Band-limited frame: exactly sparse in the DCT basis, so CS recovery from
  // ~50 % samples should be near-exact.
  la::Matrix coeffs(rows, cols, 0.0);
  coeffs(0, 0) = 8.0;
  coeffs(0, 1) = 2.0;
  coeffs(1, 0) = -1.5;
  coeffs(2, 1) = 1.0;
  coeffs(1, 2) = 0.7;
  coeffs(3, 0) = -0.4;
  la::Matrix frame = dsp::synthesize(dsp::BasisKind::kDct2D, coeffs);
  // Shift/scale into [0,1].
  data::normalize01(frame);
  return frame;
}

TEST(Codec, EncoderMatchesDirectSampling) {
  Rng rng(1), rng2(1);
  la::Matrix frame(6, 7);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame.data()[i] = 0.01 * static_cast<double>(i);
  const SamplingPattern p = random_pattern(6, 7, 0.5, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);
  const la::Vector direct = apply_pattern(p, frame.flatten());
  EXPECT_EQ(la::max_abs_diff(y, direct), 0.0);
  (void)rng2;
}

TEST(Codec, ScannedEncodeAgreesWithDirectEncode) {
  Rng rng(2);
  la::Matrix frame(8, 8);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame.data()[i] = 0.013 * static_cast<double>(i % 31);
  const SamplingPattern p = random_pattern(8, 8, 0.6, rng);
  const ScanSchedule sched = make_scan_schedule(p);
  Rng noise_a(3), noise_b(3);
  const Encoder enc;
  const la::Vector ya = enc.encode(frame, p, noise_a);
  const la::Vector yb = enc.encode_scanned(frame, sched, noise_b);
  EXPECT_EQ(la::max_abs_diff(ya, yb), 0.0);
}

TEST(Codec, EncoderNoiseHasRequestedScale) {
  Rng rng(4);
  la::Matrix frame(16, 16, 0.5);
  const SamplingPattern p = random_pattern(16, 16, 1.0, rng);
  EncoderOptions opts;
  opts.measurement_noise = 0.05;
  const la::Vector y = Encoder(opts).encode(frame, p, rng);
  double var = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    var += (y[i] - 0.5) * (y[i] - 0.5);
  var /= static_cast<double>(y.size());
  EXPECT_NEAR(std::sqrt(var), 0.05, 0.02);
}

TEST(Codec, DecoderRecoversExactlySparseFrame) {
  Rng rng(5);
  const la::Matrix frame = smooth_test_frame(12, 12);
  const SamplingPattern p = random_pattern(12, 12, 0.5, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);

  const Decoder decoder(12, 12);
  const DecodeResult res = decoder.decode(p, y);
  EXPECT_LT(rmse(res.frame, frame), 0.02);
}

TEST(Codec, MeasurementOperatorIsSelectedPsiRows) {
  Rng rng(6);
  for (const dsp::BasisKind basis :
       {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
    DecoderOptions opts;
    opts.basis = basis;
    const Decoder decoder(6, 6, opts);
    const SamplingPattern p = random_pattern(6, 6, 0.5, rng);
    const la::Matrix a = la::to_dense(*decoder.measurement_operator(p));
    const la::Matrix golden = golden::measurement_matrix(basis, p);
    ASSERT_EQ(a.rows(), p.m());
    ASSERT_EQ(a.cols(), 36u);
    EXPECT_LE(la::max_abs_diff(a, golden), 1e-12);
  }
}

TEST(Codec, DecodeRejectsWrongMeasurementCount) {
  Rng rng(7);
  const Decoder decoder(6, 6);
  const SamplingPattern p = random_pattern(6, 6, 0.5, rng);
  EXPECT_THROW(decoder.decode(p, la::Vector(p.m() + 1)), CheckError);
}

TEST(Codec, ClampKeepsReconstructionInRange) {
  Rng rng(8);
  data::ThermalHandGenerator gen;
  const la::Matrix frame = gen.sample(rng).values;
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);
  const Decoder decoder(32, 32);
  const DecodeResult res = decoder.decode(p, y);
  for (std::size_t i = 0; i < res.frame.size(); ++i) {
    EXPECT_GE(res.frame.data()[i], 0.0);
    EXPECT_LE(res.frame.data()[i], 1.0);
  }
}

TEST(Codec, RealisticFrameRecoversWell) {
  // End-to-end on a realistic thermal frame at the paper's 50 % sampling:
  // reconstruction should beat 0.05 RMSE (the paper's Fig. 6a level).
  Rng rng(9);
  data::ThermalHandGenerator gen;
  const la::Matrix frame = gen.sample(rng).values;
  const SamplingPattern p = random_pattern(32, 32, 0.5, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);
  const Decoder decoder(32, 32);
  EXPECT_LT(rmse(decoder.decode(p, y).frame, frame), 0.05);
}

TEST(Codec, MoreSamplesGiveBetterReconstruction) {
  Rng rng(10);
  data::ThermalHandGenerator gen;
  const la::Matrix frame = gen.sample(rng).values;
  const Decoder decoder(32, 32);
  const Encoder enc;
  double prev = 1e9;
  for (double frac : {0.3, 0.5, 0.7}) {
    Rng trial(100);
    const SamplingPattern p = random_pattern(32, 32, frac, trial);
    const la::Vector y = enc.encode(frame, p, trial);
    const double err = rmse(decoder.decode(p, y).frame, frame);
    EXPECT_LT(err, prev * 1.5);  // allow mild non-monotonicity
    prev = err;
  }
  EXPECT_LT(prev, 0.05);
}

TEST(Codec, HaarBasisDecoderAlsoWorks) {
  Rng rng(11);
  data::ThermalHandGenerator gen;
  const la::Matrix frame = gen.sample(rng).values;
  DecoderOptions opts;
  opts.basis = dsp::BasisKind::kHaar2D;
  const Decoder decoder(32, 32, opts);
  const SamplingPattern p = random_pattern(32, 32, 0.6, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);
  EXPECT_LT(rmse(decoder.decode(p, y).frame, frame), 0.12);
}

TEST(Codec, AlternativeSolversDecode) {
  Rng rng(12);
  const la::Matrix frame = smooth_test_frame(10, 10);
  const SamplingPattern p = random_pattern(10, 10, 0.6, rng);
  const la::Vector y = Encoder().encode(frame, p, rng);
  for (const std::string name : {"omp", "fista", "irls"}) {
    std::shared_ptr<const solvers::SparseSolver> solver =
        solvers::make_solver(name);
    const Decoder decoder(10, 10, DecoderOptions{}, solver);
    EXPECT_LT(rmse(decoder.decode(p, y).frame, frame), 0.05) << name;
  }
}

}  // namespace
}  // namespace flexcs::cs
