#include "runtime/pipeline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "solvers/fista.hpp"

namespace flexcs::runtime {
namespace {

// FISTA is used throughout, as in the runtime: the acceptance fit test is
// calibrated on its lasso solutions (EXPERIMENTS.md E19).
std::shared_ptr<const solvers::SparseSolver> fista() {
  static auto solver = std::make_shared<solvers::FistaSolver>();
  return solver;
}

la::Matrix thermal_frame(std::size_t dim, std::uint64_t seed) {
  data::ThermalOptions opts;
  opts.rows = opts.cols = dim;
  Rng rng(seed);
  return data::ThermalHandGenerator(opts).sample(rng).values;
}

la::Matrix stuck_frame(const la::Matrix& truth, double rate,
                       std::uint64_t seed) {
  return cs::FaultScenario(
             {cs::StuckPixelFault{rate, cs::DefectPolarity::kRandom, seed}})
      .corrupt_frame(truth, 0)
      .values;
}

TEST(RobustPipeline, CleanFrameStaysOnRungZeroIdenticalToPlainDecode) {
  const la::Matrix truth = thermal_frame(16, 7);
  RobustPipeline pipe(16, 16, {}, fista());

  Rng rng(11);
  const auto res = pipe.process(truth, 0, rng);

  EXPECT_TRUE(res.report.accepted);
  EXPECT_EQ(res.report.strategy, Strategy::kPlainDecode);
  EXPECT_EQ(res.report.escalation_depth, 0);
  EXPECT_EQ(res.report.decode_calls, 1);
  EXPECT_FALSE(res.report.budget_exhausted);
  EXPECT_EQ(res.report.suspected_defect_count, 0u);
  EXPECT_EQ(res.report.estimated_defect_rate, 0.0);

  // Bit-identical to a hand-rolled plain decode from the same RNG state:
  // the runtime adds no hidden randomness and no hidden post-processing.
  Rng replay(11);
  const cs::SamplingPattern pattern = cs::random_pattern(16, 16, 0.5, replay);
  const cs::Encoder encoder;
  const la::Vector y = encoder.encode(truth, pattern, replay);
  const cs::DecodeResult plain = pipe.decoder().decode(pattern, y);
  EXPECT_EQ(la::max_abs_diff(res.frame, plain.frame), 0.0);

  EXPECT_EQ(pipe.health().frames_processed, 1u);
  EXPECT_EQ(pipe.health().frames_accepted, 1u);
  EXPECT_EQ(pipe.health().recovered_per_rung[0], 1u);
  EXPECT_FALSE(pipe.health().drift_detected);
}

TEST(RobustPipeline, LadderBeatsPlainDecodeAtTenPercentDefects) {
  // The paper's Fig. 6c band: robust strategies pull RMSE from the ~0.20
  // plain-decode level toward ~0.05. The acceptance bar here is 0.5x.
  const std::size_t dim = 32;
  const la::Matrix truth = thermal_frame(dim, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 99);

  RobustPipeline pipe(dim, dim, {}, fista());
  Rng rng(11);
  const auto res = pipe.process(corrupted, 0, rng);

  // Plain-decode baseline from the identical RNG state.
  Rng replay(11);
  const cs::SamplingPattern pattern =
      cs::random_pattern(dim, dim, 0.5, replay);
  const cs::Encoder encoder;
  const la::Vector y = encoder.encode(corrupted, pattern, replay);
  const double plain_rmse =
      cs::rmse(pipe.decoder().decode(pattern, y).frame, truth);
  const double ladder_rmse = cs::rmse(res.frame, truth);

  EXPECT_GE(res.report.escalation_depth, 1);
  EXPECT_NE(res.report.strategy, Strategy::kPlainDecode);
  EXPECT_TRUE(res.report.accepted);
  EXPECT_LE(ladder_rmse, 0.5 * plain_rmse);
  EXPECT_GT(res.report.first_rel_residual, 0.0);
  EXPECT_GT(res.report.estimated_defect_rate, 0.02);
}

TEST(RobustPipeline, FitTestAcceptsCleanTilesAndEscalatesSparseFaults) {
  // Discrimination regression for the decode-rung fit test (E19): clean
  // thermal tiles at the runtime's padded tile sizes accept their plain
  // decode, and tiles with 2 % stuck or flickering pixels escalate. Pinned
  // seeds: 11 of the 12 flicker tiles escalate. The twelfth (20x20, seed 5)
  // draws a sampling pattern that misses every flickered pixel, so its
  // measurements, and hence its plain decode, equal the clean tile's.
  int flicker_escalations = 0;
  for (const std::size_t dim : {20u, 36u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const la::Matrix truth = thermal_frame(dim, seed);
      RobustPipeline clean(dim, dim, {}, fista());
      Rng rng(seed);
      const auto res = clean.process(truth, 0, rng);
      EXPECT_TRUE(res.report.accepted) << dim << " seed " << seed;
      EXPECT_EQ(res.report.strategy, Strategy::kPlainDecode)
          << dim << " seed " << seed;
      EXPECT_EQ(res.report.decode_calls, 1) << dim << " seed " << seed;

      const cs::FaultScenario stuck({cs::StuckPixelFault{
          0.02, cs::DefectPolarity::kRandom, seed}});
      const cs::FaultScenario flicker({cs::FlickerFault{
          0.02, cs::DefectPolarity::kRandom, seed}});
      RobustPipeline stuck_pipe(dim, dim, {}, fista());
      Rng srng(seed);
      EXPECT_GE(
          stuck_pipe.process(stuck.corrupt_frame(truth, 0).values, 0, srng)
              .report.escalation_depth,
          1)
          << dim << " seed " << seed;
      RobustPipeline flicker_pipe(dim, dim, {}, fista());
      Rng frng(seed);
      const auto fres = flicker_pipe.process(
          flicker.corrupt_frame(truth, 0).values, 0, frng);
      if (fres.report.escalation_depth >= 1) {
        ++flicker_escalations;
      } else {
        EXPECT_EQ(cs::rmse(fres.frame, res.frame), 0.0)
            << dim << " seed " << seed;
      }
    }
  }
  EXPECT_GE(flicker_escalations, 11);
}

TEST(RobustPipeline, ReachesTrimmedFreshAndResampleRungs) {
  // Pinned seeds (fully specified RNG, portable): each lands on a distinct
  // rung, covering the middle of the ladder with accepted recoveries.
  struct Case {
    double rate;
    std::uint64_t seed;
    Strategy expected;
  };
  const Case cases[] = {
      {0.05, 8, Strategy::kTrimmedDecode},
      {0.03, 9, Strategy::kFreshPatternRetry},
      {0.05, 7, Strategy::kResample},
  };
  for (const Case& c : cases) {
    const la::Matrix truth = thermal_frame(16, c.seed);
    const la::Matrix corrupted = stuck_frame(truth, c.rate, c.seed);
    RobustPipeline pipe(16, 16, {}, fista());
    Rng rng(11);
    const auto res = pipe.process(corrupted, 0, rng);
    EXPECT_TRUE(res.report.accepted) << "seed " << c.seed;
    EXPECT_EQ(res.report.strategy, c.expected) << "seed " << c.seed;
    EXPECT_EQ(res.report.escalation_depth,
              static_cast<int>(c.expected) -
                  static_cast<int>(Strategy::kPlainDecode))
        << "seed " << c.seed;
    EXPECT_EQ(pipe.health().recovered_per_rung[static_cast<std::size_t>(
                  c.expected)],
              1u);
  }
}

TEST(RobustPipeline, ResampleIsSkippedWhenItDoesNotFitTheBudget) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);

  RobustPipelineOptions opts;
  // 1 (plain) + 2 (trimmed) + 2 (fresh) spent; resample needs 12 — skipped,
  // flagging budget exhaustion, never attempted.
  opts.budget.max_decode_calls = 9;
  RobustPipeline pipe(16, 16, opts, fista());
  Rng rng(11);
  for (std::size_t f = 0; f < 3; ++f) {
    const auto res = pipe.process(corrupted, f, rng);
    EXPECT_TRUE(res.report.budget_exhausted);
    EXPECT_EQ(res.report.escalation_depth, 2);  // trimmed and fresh ran
    EXPECT_NE(res.report.strategy, Strategy::kResample);
    EXPECT_LE(res.report.decode_calls, 9);
  }
  EXPECT_EQ(pipe.health().budget_exhaustions, 3u);
}

// Headline regression for the returned-candidate selection: when NO rung is
// accepted, the ladder must return the argmin-score candidate — not whatever
// the last rung produced. Impossible thresholds force a full climb where the
// trimmed decode beats the plain decode and the resample aggregate (judged
// against a sub-nano median threshold) is by far the worst AND the last
// attempt; the buggy ladder returned resample's frame labelled "resample".
TEST(RobustPipeline, LadderReturnsBestCandidateWhenNoRungAccepted) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);

  RobustPipelineOptions opts;
  opts.accept.max_rel_residual = 1e-6;         // rejects every decode rung
  opts.accept.max_median_abs_residual = 1e-9;  // rejects resample even harder
  opts.max_rung = Strategy::kResample;
  opts.budget.fresh_pattern_retries = 0;  // ladder: plain, trimmed, resample
  RobustPipeline pipe(16, 16, opts, fista());
  Rng rng(11);
  const auto res = pipe.process(corrupted, 0, rng);

  EXPECT_FALSE(res.report.accepted);
  EXPECT_EQ(res.report.escalation_depth, 2);  // trimmed and resample both ran
  EXPECT_EQ(res.report.decode_calls, 15);     // 1 + 2 + 2*6
  // The returned frame is the trimmed attempt (best normalised score), and
  // strategy + trim stats describe THAT attempt, not the resample tried last.
  EXPECT_EQ(res.report.strategy, Strategy::kTrimmedDecode);
  EXPECT_GT(res.report.trimmed_measurements, 0u);
  EXPECT_LT(res.report.rel_residual, res.report.first_rel_residual);
  EXPECT_EQ(pipe.health().frames_accepted, 0u);

  // Bit-exact replay of the trimmed attempt from the same RNG state: rung 1
  // reuses rung 0's acquisition, so the trimmed decode consumes no RNG draws
  // and can be reproduced directly.
  Rng replay(11);
  const cs::SamplingPattern pattern = cs::random_pattern(16, 16, 0.5, replay);
  const cs::Encoder encoder;
  const la::Vector y = encoder.encode(corrupted, pattern, replay);
  const cs::TrimmedDecodeResult trimmed =
      cs::decode_trimmed_ex(pipe.decoder(), pattern, y, 4.0, 0.2, {});
  EXPECT_EQ(la::max_abs_diff(res.frame, trimmed.result.frame), 0.0);
  EXPECT_EQ(res.report.trimmed_measurements, trimmed.trimmed_count);
}

// With the ladder capped at the plain decode, the same configuration returns
// the plain frame labelled plain with zero trim stats — the trim count of a
// discarded attempt must never leak into the report (it used to).
TEST(RobustPipeline, RejectedPlainOnlyLadderReportsPlainAttempt) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);

  RobustPipelineOptions opts;
  opts.accept.max_rel_residual = 1e-6;
  opts.max_rung = Strategy::kPlainDecode;
  RobustPipeline pipe(16, 16, opts, fista());
  Rng rng(11);
  const auto res = pipe.process(corrupted, 0, rng);

  EXPECT_FALSE(res.report.accepted);
  EXPECT_EQ(res.report.strategy, Strategy::kPlainDecode);
  EXPECT_EQ(res.report.escalation_depth, 0);
  EXPECT_EQ(res.report.trimmed_measurements, 0u);
  EXPECT_EQ(res.report.rel_residual, res.report.first_rel_residual);
}

TEST(RobustPipeline, BudgetExhaustionStopsTheLadder) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);

  RobustPipelineOptions opts;
  opts.budget.max_decode_calls = 1;  // plain decode only, nothing to climb
  RobustPipeline pipe(16, 16, opts, fista());
  Rng rng(11);
  const auto res = pipe.process(corrupted, 0, rng);

  EXPECT_FALSE(res.report.accepted);
  EXPECT_TRUE(res.report.budget_exhausted);
  EXPECT_EQ(res.report.strategy, Strategy::kPlainDecode);
  EXPECT_EQ(res.report.escalation_depth, 0);
  EXPECT_EQ(res.report.decode_calls, 1);
  EXPECT_EQ(pipe.health().budget_exhaustions, 1u);
  EXPECT_EQ(pipe.health().frames_accepted, 0u);
  // No rung recovered the frame, so no rung counter moved.
  for (std::size_t r = 0; r < kStrategyCount; ++r)
    EXPECT_EQ(pipe.health().recovered_per_rung[r], 0u);
}

TEST(RobustPipeline, DefectRateEwmaDetectsDrift) {
  RobustPipelineOptions opts;
  opts.max_rung = Strategy::kTrimmedDecode;  // cheap, still estimates defects
  opts.ewma_alpha = 0.5;
  opts.drift_threshold = 0.05;
  RobustPipeline pipe(16, 16, opts, fista());

  // Healthy stream first: no drift.
  const la::Matrix truth = thermal_frame(16, 7);
  Rng rng(11);
  (void)pipe.process(truth, 0, rng);
  EXPECT_FALSE(pipe.health().drift_detected);
  EXPECT_EQ(pipe.health().drift_events, 0u);

  // Then the array degrades to 10 % stuck pixels: the per-frame defect-rate
  // estimate pushes the EWMA over the drift threshold within a few frames.
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 99);
  for (std::size_t f = 1; f <= 3; ++f) {
    const auto res = pipe.process(corrupted, f, rng);
    EXPECT_GT(res.report.suspected_defect_count, 0u);
  }
  EXPECT_TRUE(pipe.health().drift_detected);
  EXPECT_EQ(pipe.health().drift_events, 1u);
  EXPECT_GT(pipe.health().defect_rate_ewma, opts.drift_threshold);

}

TEST(RobustPipeline, MeasurementFaultChannelIsAppliedAndReported) {
  const la::Matrix truth = thermal_frame(16, 7);

  RobustPipelineOptions opts;
  cs::AdcSaturationFault sat;
  sat.lo = 0.2;
  sat.hi = 0.8;
  opts.measurement_faults.add(sat);
  opts.measurement_faults.add(cs::DroppedMeasurementFault{0.1, 5});
  RobustPipeline pipe(16, 16, opts, fista());

  Rng rng(11);
  const auto res = pipe.process(truth, 0, rng);
  EXPECT_GT(res.report.dropped_measurements, 0u);
  EXPECT_GT(res.report.saturated_measurements, 0u);
  // The decode ran on the surviving measurements and produced a full frame.
  EXPECT_EQ(res.frame.rows(), 16u);
  EXPECT_TRUE(la::all_finite(res.frame));
}

// A frame's pixels depend on the frame, its index, the RNG and the control,
// not on what the pipeline decoded before: a pipeline that has already
// decoded another frame returns the same pixels as a fresh one, even
// through the frame-indexed measurement-fault channel.
TEST(RobustPipeline, PixelsDoNotDependOnEarlierFrames) {
  const la::Matrix truth = thermal_frame(16, 7);
  RobustPipelineOptions opts;
  opts.measurement_faults.add(cs::DroppedMeasurementFault{0.1, 5});
  RobustPipeline fresh(16, 16, opts, fista());
  RobustPipeline warmed(16, 16, opts, fista());
  Rng warm_rng(3);
  (void)warmed.process(thermal_frame(16, 8), 0, warm_rng);

  Rng a(11), b(11);
  const auto ra = fresh.process(truth, 4, a);
  const auto rb = warmed.process(truth, 4, b);
  EXPECT_EQ(ra.report.frame_index, 4u);
  EXPECT_EQ(rb.report.frame_index, 4u);
  EXPECT_GT(ra.report.dropped_measurements, 0u);
  EXPECT_EQ(ra.report.dropped_measurements, rb.report.dropped_measurements);
  EXPECT_EQ(la::max_abs_diff(ra.frame, rb.frame), 0.0);
}

TEST(RobustPipeline, SuspectedDefectMaskOverlapsTrueDefects) {
  const std::size_t dim = 16;
  const la::Matrix truth = thermal_frame(dim, 7);
  const cs::FaultedFrame ff =
      cs::FaultScenario(
          {cs::StuckPixelFault{0.10, cs::DefectPolarity::kRandom, 99}})
          .corrupt_frame(truth, 0);

  RobustPipelineOptions opts;
  opts.max_rung = Strategy::kTrimmedDecode;
  RobustPipeline pipe(dim, dim, opts, fista());
  Rng rng(11);
  const auto res = pipe.process(ff.values, 0, rng);

  ASSERT_EQ(res.report.suspected_defects.size(), dim * dim);
  EXPECT_GT(res.report.suspected_defect_count, 0u);
  // Every suspect the runtime names really is a corrupted pixel (the MAD
  // cutoff is conservative; it may miss defects but should not slander).
  std::size_t true_positives = 0;
  for (std::size_t i = 0; i < ff.mask.size(); ++i)
    if (res.report.suspected_defects[i] && ff.mask[i]) ++true_positives;
  EXPECT_GE(true_positives * 10, res.report.suspected_defect_count * 8)
      << "more than 20% of suspects are false accusations";
}

TEST(RobustPipeline, ValidatesInputs) {
  RobustPipeline pipe(8, 8, {}, fista());
  Rng rng(1);
  EXPECT_THROW(pipe.process(la::Matrix(4, 4, 0.5), 0, rng), CheckError);

  RobustPipelineOptions bad;
  bad.sampling_fraction = 0.0;
  EXPECT_THROW(RobustPipeline(8, 8, bad, fista()), CheckError);
  RobustPipelineOptions bad2;
  bad2.budget.max_decode_calls = 0;
  EXPECT_THROW(RobustPipeline(8, 8, bad2, fista()), CheckError);
}

TEST(RobustPipeline, StrategyNamesAreStable) {
  EXPECT_STREQ(strategy_name(Strategy::kPlainDecode), "plain");
  EXPECT_STREQ(strategy_name(Strategy::kTrimmedDecode), "trimmed");
  EXPECT_STREQ(strategy_name(Strategy::kFreshPatternRetry), "fresh-pattern");
  EXPECT_STREQ(strategy_name(Strategy::kResample), "resample");
}

// The fault-matrix: every fault kind is pushed through every ladder ceiling.
// Assertions are invariants (ladder never exceeds its ceiling or budget,
// reports are internally consistent) rather than pinned outcomes, since
// acceptance depends on kind x severity.
TEST(RobustPipeline, FaultMatrixEveryKindTimesEveryRung) {
  const std::size_t dim = 16;
  const la::Matrix truth = thermal_frame(dim, 7);

  struct KindCase {
    cs::FaultKind kind;
    cs::FaultScenario frame_faults;    // applied to ground truth
    cs::FaultScenario measurement_faults;  // routed through the runtime
  };
  std::vector<KindCase> kinds;
  kinds.push_back({cs::FaultKind::kStuckPixel,
                   cs::FaultScenario({cs::StuckPixelFault{
                       0.08, cs::DefectPolarity::kRandom, 21}}),
                   {}});
  {
    cs::LineFault lf;
    lf.line = 5;
    lf.mode = cs::LineFailureMode::kStuckHigh;
    kinds.push_back({cs::FaultKind::kLine, cs::FaultScenario({lf}), {}});
  }
  kinds.push_back({cs::FaultKind::kFlicker,
                   cs::FaultScenario({cs::FlickerFault{
                       0.06, cs::DefectPolarity::kRandom, 22}}),
                   {}});
  kinds.push_back({cs::FaultKind::kReadoutNoise,
                   cs::FaultScenario({cs::ReadoutNoiseFault{0.05, 23}}),
                   {}});
  {
    cs::GainDriftFault gd;
    gd.drift_per_frame = 0.04;
    gd.seed = 24;
    kinds.push_back({cs::FaultKind::kGainDrift, cs::FaultScenario({gd}), {}});
  }
  {
    cs::AdcSaturationFault sat;
    sat.lo = 0.25;
    sat.hi = 0.75;
    kinds.push_back(
        {cs::FaultKind::kAdcSaturation, {}, cs::FaultScenario({sat})});
  }
  kinds.push_back({cs::FaultKind::kDroppedMeasurements,
                   {},
                   cs::FaultScenario(
                       {cs::DroppedMeasurementFault{0.15, 25}})});

  const Strategy rungs[] = {Strategy::kPlainDecode, Strategy::kTrimmedDecode,
                            Strategy::kFreshPatternRetry, Strategy::kResample};

  for (const KindCase& kc : kinds) {
    for (Strategy ceiling : rungs) {
      RobustPipelineOptions opts;
      opts.max_rung = ceiling;
      opts.budget.resample_rounds = 3;  // keep the matrix affordable
      opts.measurement_faults = kc.measurement_faults;
      RobustPipeline pipe(dim, dim, opts, fista());

      // Frame 3 rather than 0 so frame-indexed kinds (drift, flicker) bite.
      const la::Matrix corrupted =
          kc.frame_faults.faults().empty()
              ? truth
              : kc.frame_faults.corrupt_frame(truth, 3).values;
      Rng rng(31);
      const auto res = pipe.process(corrupted, 0, rng);
      const auto& rep = res.report;
      const char* ctx = cs::fault_kind_name(kc.kind);

      EXPECT_LE(static_cast<int>(rep.strategy), static_cast<int>(ceiling))
          << ctx;
      EXPECT_LE(rep.decode_calls, opts.budget.max_decode_calls) << ctx;
      EXPECT_GE(rep.escalation_depth, 0) << ctx;
      EXPECT_TRUE(la::all_finite(res.frame)) << ctx;
      EXPECT_EQ(res.frame.rows(), dim) << ctx;
      EXPECT_GE(rep.estimated_defect_rate, 0.0) << ctx;
      EXPECT_LE(rep.estimated_defect_rate, 1.0) << ctx;
      if (rep.accepted) {
        EXPECT_EQ(pipe.health().recovered_per_rung[static_cast<std::size_t>(
                      rep.strategy)],
                  1u)
            << ctx;
      }
      if (cs::fault_is_measurement_level(kc.kind) &&
          kc.kind == cs::FaultKind::kDroppedMeasurements) {
        EXPECT_GT(rep.dropped_measurements, 0u) << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace flexcs::runtime
