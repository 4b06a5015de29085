#include "runtime/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/deadline.hpp"
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

  // Bit-exact replay of the trimmed attempt from the same RNG state: rung 1
  // reuses rung 0's acquisition, so the trimmed decode consumes no RNG draws
  // and can be reproduced directly.
  Rng replay(11);
  const cs::SamplingPattern pattern = cs::random_pattern(16, 16, 0.5, replay);
  const cs::Encoder encoder;
  const la::Vector y = encoder.encode(corrupted, pattern, replay);
  const cs::TrimmedDecodeResult trimmed =
      cs::decode_trimmed(pipe.decoder(), pattern, y);
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

// process() is const: threads sharing one pipeline, as ShardedDecoder's pool
// does, get exactly the pixels and reports of a serial run. Half the jobs
// carry stuck pixels so the ladder climbs past the plain decode, and the
// measurement-fault channel runs on every acquisition, rung 3's rounds
// included.
TEST(RobustPipeline, ConstPipelineSharedAcrossThreadsIsBitExact) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kJobs = 8;
  constexpr std::size_t kThreads = 4;
  RobustPipelineOptions opts;
  opts.measurement_faults.add(cs::DroppedMeasurementFault{0.05, 9});
  const RobustPipeline pipe(kDim, kDim, opts, fista());

  std::vector<la::Matrix> tiles;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const la::Matrix truth = thermal_frame(kDim, 100 + j);
    tiles.push_back(j % 2 == 0 ? truth : stuck_frame(truth, 0.08, 200 + j));
  }
  const auto run = [&](std::size_t j) {
    Rng rng(1000 + j);
    return pipe.process(tiles[j], j, rng);
  };

  std::vector<RobustPipeline::FrameResult> serial;
  for (std::size_t j = 0; j < kJobs; ++j) serial.push_back(run(j));

  std::vector<RobustPipeline::FrameResult> shared(kJobs);
  std::vector<std::thread> threads;  // flexcs-lint: allow(threading)
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t j = t; j < kJobs; j += kThreads) shared[j] = run(j);
    });
  for (auto& th : threads) th.join();

  bool escalated = false;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const RobustPipeline::FrameResult& a = serial[j];
    const RobustPipeline::FrameResult& b = shared[j];
    ASSERT_EQ(a.frame.size(), b.frame.size());
    EXPECT_EQ(std::memcmp(a.frame.data(), b.frame.data(),
                          a.frame.size() * sizeof(double)),
              0)
        << "job " << j;
    EXPECT_EQ(a.report.strategy, b.report.strategy) << "job " << j;
    EXPECT_EQ(a.report.decode_calls, b.report.decode_calls) << "job " << j;
    EXPECT_EQ(a.report.solver_iterations, b.report.solver_iterations)
        << "job " << j;
    EXPECT_EQ(a.report.rel_residual, b.report.rel_residual) << "job " << j;
    EXPECT_EQ(a.report.dropped_measurements, b.report.dropped_measurements)
        << "job " << j;
    EXPECT_EQ(a.report.suspected_defects, b.report.suspected_defects)
        << "job " << j;
    escalated |= a.report.escalation_depth > 0;
  }
  EXPECT_TRUE(escalated) << "no job climbed the ladder";
}

// Rung 3's rounds are fresh acquisitions like rung 2's retry, so each of
// them meets the measurement-fault channel: capped at resample, a frame that
// climbs there loses more reads than the same frame capped at fresh-pattern.
TEST(RobustPipeline, ResampleRoundsRunTheMeasurementChannel) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);
  const auto run = [&](Strategy cap) {
    RobustPipelineOptions opts;
    opts.max_rung = cap;
    opts.measurement_faults.add(cs::DroppedMeasurementFault{0.1, 5});
    const RobustPipeline pipe(16, 16, opts, fista());
    Rng rng(11);
    return pipe.process(corrupted, 0, rng).report;
  };
  const RecoveryReport fresh = run(Strategy::kFreshPatternRetry);
  const RecoveryReport resample = run(Strategy::kResample);
  ASSERT_EQ(fresh.escalation_depth, 2);
  ASSERT_EQ(resample.escalation_depth, 3) << "the frame never reached rung 3";
  EXPECT_GT(fresh.dropped_measurements, 0u);
  EXPECT_GT(resample.dropped_measurements, fresh.dropped_measurements);
}

// Counts the solves it runs and fires a cancel source after solve number
// `fire_on`: a deterministic stand-in for a deadline that expires inside one
// chosen decode of the ladder.
class CancelOnSolve final : public solvers::SparseSolver {
 public:
  CancelOnSolve(int fire_on, CancelSource source)
      : fire_on_(fire_on), source_(std::move(source)) {}
  std::string name() const override { return "cancel-on-solve"; }
  int solves() const { return solves_.load(); }

 protected:
  solvers::SolveResult solve_impl(
      const la::LinearOperator& a, const la::Vector& b,
      const solvers::SolveOptions& ctrl) const override {
    solvers::validate_solve_inputs(a, b, "cancel-on-solve");
    solvers::SolveResult r = inner_.solve(a, b, ctrl);
    if (++solves_ == fire_on_) source_.cancel();
    return r;
  }

 private:
  solvers::FistaSolver inner_;
  int fire_on_;
  mutable CancelSource source_;
  mutable std::atomic<int> solves_{0};
};

// Rung 3 runs its rounds under the frame's control: the first round always
// runs, and no round starts after the control has fired.
TEST(RobustPipeline, ResampleStartsNoRoundAfterTheControlFires) {
  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted = stuck_frame(truth, 0.10, 3);
  RobustPipelineOptions opts;
  opts.accept.max_rel_residual = 1e-6;         // every rung escalates
  opts.accept.max_median_abs_residual = 1e-9;
  opts.budget.fresh_pattern_retries = 0;  // ladder: plain, trimmed, resample
  // The screen runs its own FISTA, so the pipeline's solver sees one solve
  // per decode: rung 0, rung 1's final decode, then one per rung-3 round.
  constexpr int kFirstRoundSolve = 3;
  CancelSource source;
  const auto solver =
      std::make_shared<CancelOnSolve>(kFirstRoundSolve, source);
  const RobustPipeline pipe(16, 16, opts, solver);
  FrameControl ctrl;
  ctrl.solve.cancel = source.token();
  Rng rng(11);
  const auto res = pipe.process(corrupted, 0, rng, ctrl);

  EXPECT_EQ(res.report.escalation_depth, 2);  // trimmed and resample ran
  EXPECT_EQ(solver->solves(), kFirstRoundSolve)
      << "a round started after the control fired";
  EXPECT_TRUE(res.report.deadline_expired);
  EXPECT_TRUE(la::all_finite(res.frame));
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
      if (cs::fault_is_measurement_level(kc.kind) &&
          kc.kind == cs::FaultKind::kDroppedMeasurements) {
        EXPECT_GT(rep.dropped_measurements, 0u) << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace flexcs::runtime
