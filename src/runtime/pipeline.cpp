#include "runtime/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "runtime/deadline.hpp"

namespace flexcs::runtime {
namespace {

// Median of |y_i - frame[pattern_i]| — the resampling rung's acceptance
// statistic. The median ignores up to half the measurements, so defective
// reads cannot veto a reconstruction that fits the clean majority.
double median_abs_residual(const cs::SamplingPattern& p, const la::Vector& y,
                           const la::Matrix& frame) {
  std::vector<double> absres(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    absres[i] = std::fabs(y[i] - frame.data()[p.indices[i]]);
  std::nth_element(absres.begin(),
                   absres.begin() + static_cast<std::ptrdiff_t>(absres.size() / 2),
                   absres.end());
  return absres[absres.size() / 2];
}

// Fixed bounds of the decode-rung fit test (EXPERIMENTS.md E19):
//  - support ratio: |{i : |x_i| > DecoderOptions::support_threshold}| over
//    the measurements the decode fitted. A support near M means the decode
//    interpolates every measurement, outliers included. Clean 20x20 thermal
//    tiles sit at a median of 0.58; 2 %-stuck tiles at 0.97.
//  - spectral tail: coefficient energy with either frequency index in the
//    upper half of its axis, over all non-DC energy. Smooth frames keep it
//    below 1 % (20x20 thermal tiles: 90th percentile 0.0085); a stuck-high
//    row spreads energy over every frequency of one axis (0.04-0.14).
//  - trimmed share: a trimmed decode whose screen discarded more than this
//    share of its reads is facing dense defects, where resampling (Sec. 4.3)
//    beats a single trim (32x32 frames at 5 % stuck: 0.018 vs 0.025 RMSE).
//    Its discarded share then counts against the support budget, so only a
//    decode with that much headroom below kMaxSupportRatio is accepted.
constexpr double kMaxSupportRatio = 0.8;
constexpr double kMaxTailEnergy = 0.05;
constexpr double kFreeTrimmedShare = 0.05;

struct FitShape {
  double support_ratio = 0.0;
  double tail_energy = 0.0;
};

// Support ratio and spectral tail of a rows x cols coefficient grid (row-
// major, frequency rising along both axes; for the Haar basis the upper half
// of either axis holds the finest-scale details). `fitted` is the number of
// measurements the solve fitted.
FitShape fit_shape(const la::Vector& coefs, std::size_t rows,
                   std::size_t cols, double support_threshold,
                   std::size_t fitted) {
  std::size_t support = 0;
  double total = 0.0, tail = 0.0;
  for (std::size_t k = 0; k < rows; ++k) {
    for (std::size_t l = 0; l < cols; ++l) {
      const double v = coefs[k * cols + l];
      if (std::fabs(v) > support_threshold) ++support;
      if (k == 0 && l == 0) continue;
      total += v * v;
      if (2 * k >= rows || 2 * l >= cols) tail += v * v;
    }
  }
  FitShape fit;
  fit.support_ratio = static_cast<double>(support) /
                      static_cast<double>(std::max<std::size_t>(fitted, 1));
  fit.tail_energy = total > 0.0 ? tail / total : 0.0;
  return fit;
}

// The residual screen, shared by the trimmed rungs (cs::decode_trimmed_ex)
// and the suspected-defect flags on the returned reconstruction: a
// measurement is an outlier when its |residual| exceeds
// max(kScreenAbsFloor, kScreenMadMultiplier * median |residual|).
constexpr double kScreenMadMultiplier = 4.0;
constexpr double kScreenAbsFloor = 0.2;

double seconds_between(Deadline::Clock::time_point t0,
                       Deadline::Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kPlainDecode: return "plain";
    case Strategy::kTrimmedDecode: return "trimmed";
    case Strategy::kFreshPatternRetry: return "fresh-pattern";
    case Strategy::kResample: return "resample";
  }
  return "unknown";
}

RobustPipeline::RobustPipeline(
    std::size_t rows, std::size_t cols, RobustPipelineOptions opts,
    std::shared_ptr<const solvers::SparseSolver> solver)
    : rows_(rows),
      cols_(cols),
      opts_(std::move(opts)),
      encoder_(),
      decoder_(rows, cols, opts_.decoder, std::move(solver)) {
  FLEXCS_CHECK(rows_ > 0 && cols_ > 0, "runtime over an empty array");
  FLEXCS_CHECK(opts_.sampling_fraction > 0.0 && opts_.sampling_fraction <= 1.0,
               "sampling fraction must be in (0,1]");
  FLEXCS_CHECK(opts_.budget.max_decode_calls >= 1,
               "ladder budget needs at least one decode call");
  FLEXCS_CHECK(opts_.budget.resample_rounds >= 1,
               "resample rung needs at least one round");
  FLEXCS_CHECK(opts_.ewma_alpha > 0.0 && opts_.ewma_alpha <= 1.0,
               "EWMA alpha must be in (0,1]");
  FLEXCS_CHECK(opts_.accept.max_rel_residual > 0.0 &&
                   opts_.accept.max_median_abs_residual > 0.0,
               "acceptance thresholds must be positive");
}

RobustPipeline::Candidate RobustPipeline::evaluate_decode(
    const cs::DecodeResult& result, const la::Vector& y,
    std::size_t fitted) const {
  Candidate c;
  c.frame = result.frame;
  c.converged = result.converged;
  c.deadline_expired = result.deadline_expired;
  c.solver_iterations = result.solver_iterations;
  // Relative pre-debias solver residual. For trimmed decodes the residual
  // norm covers only the kept measurements while ||y|| covers all of them —
  // a mild (few percent) optimistic bias that the thresholds absorb.
  const double denom = std::max(y.norm2(), 1e-12);
  c.score = result.residual_norm / denom;
  c.badness = c.score / opts_.accept.max_rel_residual;
  const FitShape fit =
      fit_shape(result.coefficients, rows_, cols_,
                decoder_.options().support_threshold, fitted);
  const double trimmed_share = static_cast<double>(y.size() - fitted) /
                               static_cast<double>(y.size());
  const double budget_spent =
      fit.support_ratio +
      (trimmed_share > kFreeTrimmedShare ? trimmed_share : 0.0);
  c.accepted = c.score <= opts_.accept.max_rel_residual &&
               budget_spent <= kMaxSupportRatio &&
               fit.tail_energy <= kMaxTailEnergy;
  return c;
}

RobustPipeline::Candidate RobustPipeline::evaluate_aggregate(
    la::Matrix frame, const cs::SamplingPattern& p, const la::Vector& y) const {
  Candidate c;
  c.score = median_abs_residual(p, y, frame);
  c.badness = c.score / opts_.accept.max_median_abs_residual;
  c.frame = std::move(frame);
  c.converged = true;  // aggregate strategies have no single solver state
  c.accepted = c.score <= opts_.accept.max_median_abs_residual;
  return c;
}

void RobustPipeline::finish_frame(const cs::SamplingPattern& p,
                                  const la::Vector& y, const Candidate& chosen,
                                  RecoveryReport& report) {
  // Suspected defects: measurements far from the accepted reconstruction,
  // by the same screen as the trimmed decode's.
  std::vector<double> absres(p.m());
  for (std::size_t i = 0; i < p.m(); ++i)
    absres[i] = std::fabs(y[i] - chosen.frame.data()[p.indices[i]]);
  std::vector<double> sorted = absres;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2),
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double cutoff =
      std::max(kScreenAbsFloor, kScreenMadMultiplier * median);

  report.suspected_defects.assign(rows_ * cols_, false);
  for (std::size_t i = 0; i < p.m(); ++i) {
    if (absres[i] <= cutoff) continue;
    report.suspected_defects[p.indices[i]] = true;
    ++report.suspected_defect_count;
  }
  report.estimated_defect_rate =
      p.m() == 0 ? 0.0
                 : static_cast<double>(report.suspected_defect_count) /
                       static_cast<double>(p.m());

  report.accepted = chosen.accepted;
  report.converged = chosen.converged;
  report.rel_residual = chosen.score;

  // Health bookkeeping.
  ++health_.frames_processed;
  if (report.accepted) {
    ++health_.frames_accepted;
    ++health_.recovered_per_rung[static_cast<std::size_t>(report.strategy)];
  }
  if (report.budget_exhausted) ++health_.budget_exhaustions;
  if (health_.frames_processed == 1) {
    health_.defect_rate_ewma = report.estimated_defect_rate;
  } else {
    health_.defect_rate_ewma =
        (1.0 - opts_.ewma_alpha) * health_.defect_rate_ewma +
        opts_.ewma_alpha * report.estimated_defect_rate;
  }
  const bool was_drifting = health_.drift_detected;
  health_.drift_detected = health_.defect_rate_ewma > opts_.drift_threshold;
  if (!was_drifting && health_.drift_detected) ++health_.drift_events;
}

void RobustPipeline::apply_measurement_channel(RecoveryReport& report,
                                               cs::SamplingPattern& p,
                                               la::Vector& y) {
  if (!opts_.measurement_faults.has_measurement_faults()) return;
  cs::FaultedMeasurements fm =
      opts_.measurement_faults.corrupt_measurements(y, p, report.frame_index);
  report.dropped_measurements += fm.dropped.size();
  report.saturated_measurements += fm.saturated_count;
  p = std::move(fm.pattern);
  y = std::move(fm.values);
}

void RobustPipeline::acquire(const la::Matrix& frame, Rng& rng,
                             RecoveryReport& report, double fraction,
                             cs::SamplingPattern& p, la::Vector& y) {
  p = cs::random_pattern(rows_, cols_, fraction, rng);
  y = encoder_.encode(frame, p, rng);
  apply_measurement_channel(report, p, y);
}

int RobustPipeline::effective_budget(const FrameControl& ctrl) const {
  int budget = opts_.budget.max_decode_calls;
  if (ctrl.max_decode_calls >= 0)
    budget = std::min(budget, std::max(1, ctrl.max_decode_calls));
  return budget;
}

Strategy RobustPipeline::effective_max_rung(const FrameControl& ctrl) const {
  return std::min(ctrl.max_rung, opts_.max_rung);
}

RobustPipeline::FrameResult RobustPipeline::process(
    const la::Matrix& corrupted_frame, std::size_t frame_index, Rng& rng,
    const FrameControl& ctrl) {
  FLEXCS_CHECK(corrupted_frame.rows() == rows_ &&
                   corrupted_frame.cols() == cols_,
               "runtime: frame shape mismatch");
  FLEXCS_CHECK(la::all_finite(corrupted_frame),
               "runtime: non-finite pixel in frame");

  const auto start = Deadline::Clock::now();
  RecoveryReport report;
  report.frame_index = frame_index;
  int budget = effective_budget(ctrl);
  const Strategy max_rung = effective_max_rung(ctrl);
  const double fraction =
      cs::resolve_fraction(ctrl.sampling_fraction, opts_.sampling_fraction);

  // Rung 0: plain decode. This is byte-identical to Decoder::decode on the
  // same acquisition — no screening, no trimming — so a healthy array pays
  // exactly one solver call per frame. ctrl.solve rides along so even the
  // plain decode honours the frame deadline.
  cs::DecoderOptions plain_opts = decoder_.options();
  plain_opts.solve = ctrl.solve;
  Attempt rung0;
  rung0.rung = Strategy::kPlainDecode;
  acquire(corrupted_frame, rng, report, fraction, rung0.pattern, rung0.y);
  const cs::DecodeResult plain =
      decoder_.decode_with(rung0.pattern, rung0.y, decoder_.solver(),
                           plain_opts);
  report.decode_calls += 1;
  budget -= 1;
  rung0.cand = evaluate_decode(plain, rung0.y, rung0.y.size());
  report.first_rel_residual = rung0.cand.score;

  // `last` is the most recent attempt (an accepted one ends the climb and is
  // returned); `best` is the argmin-badness attempt across every rung tried,
  // which is what the caller receives when NO rung is accepted — the ladder
  // must never hand back a late candidate that scored worse than an earlier
  // one. Ties keep the earlier (cheaper) attempt.
  Attempt best = rung0;  // copy: frames are tile-sized
  Attempt last = std::move(rung0);

  const auto climb = [&](Strategy rung, int cost, auto&& run) {
    if (last.cand.accepted) return;
    // A fired deadline ends escalation: every further rung would be cut
    // short at its own entry check, so the best candidate so far stands.
    if (last.cand.deadline_expired || ctrl.solve.should_stop()) return;
    if (rung > max_rung) return;
    if (budget < cost) {
      report.budget_exhausted = true;
      return;
    }
    budget -= cost;
    report.decode_calls += cost;
    ++report.escalation_depth;
    Attempt attempt;
    attempt.rung = rung;
    run(attempt);
    if (attempt.cand.badness < best.cand.badness) best = attempt;
    last = std::move(attempt);
  };

  climb(Strategy::kTrimmedDecode, 2, [&](Attempt& a) {
    const cs::TrimmedDecodeResult trimmed =
        cs::decode_trimmed_ex(decoder_, last.pattern, last.y,
                              kScreenMadMultiplier, kScreenAbsFloor,
                              ctrl.solve);
    a.trimmed = trimmed.trimmed_count;
    a.cand = evaluate_decode(trimmed.result, last.y,
                             last.y.size() - trimmed.trimmed_count);
    a.pattern = last.pattern;
    a.y = last.y;
  });

  for (int retry = 0; retry < opts_.budget.fresh_pattern_retries; ++retry) {
    climb(Strategy::kFreshPatternRetry, 2, [&](Attempt& a) {
      acquire(corrupted_frame, rng, report, fraction, a.pattern, a.y);
      const cs::TrimmedDecodeResult trimmed = cs::decode_trimmed_ex(
          decoder_, a.pattern, a.y, kScreenMadMultiplier, kScreenAbsFloor,
          ctrl.solve);
      a.trimmed = trimmed.trimmed_count;
      a.cand = evaluate_decode(trimmed.result, a.y,
                               a.y.size() - trimmed.trimmed_count);
    });
  }

  climb(Strategy::kResample, 2 * opts_.budget.resample_rounds, [&](Attempt& a) {
    cs::ResampleOptions ropts;
    ropts.rounds = opts_.budget.resample_rounds;
    ropts.solve = ctrl.solve;
    // Judged against the most recent acquisition: the aggregate output
    // intentionally stops fitting corrupted measurements, so the median
    // statistic over the latest pattern is the honest score for it.
    a.pattern = last.pattern;
    a.y = last.y;
    cs::ResampleResult resampled = cs::reconstruct_resample_ex(
        corrupted_frame, fraction, ropts, encoder_, decoder_, rng);
    a.cand = evaluate_aggregate(std::move(resampled.frame), a.pattern, a.y);
    a.cand.solver_iterations = resampled.solver_iterations;
  });

  // An accepted attempt is always the last one (acceptance stops the climb);
  // otherwise return the best-scoring candidate, not the last attempted.
  Attempt& returned = last.cand.accepted ? last : best;
  report.strategy = returned.rung;
  report.trimmed_measurements = returned.trimmed;
  report.solver_iterations = returned.cand.solver_iterations;

  finish_frame(returned.pattern, returned.y, returned.cand, report);
  // Flag the frame if its control fired at any point — whether a solver was
  // interrupted mid-iteration or the deadline lapsed between rungs.
  report.deadline_expired =
      last.cand.deadline_expired || ctrl.solve.should_stop();
  report.decode_seconds = seconds_between(start, Deadline::Clock::now());

  FrameResult out;
  out.frame = std::move(returned.cand.frame);
  out.report = std::move(report);
  return out;
}

}  // namespace flexcs::runtime
