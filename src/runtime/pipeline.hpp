// Adaptive recovery runtime: a streaming acquisition pipeline that decodes
// each incoming (possibly corrupted) frame, sanity-checks the result without
// ground truth, and escalates through a ladder of progressively more robust
// — and more expensive — recovery strategies until the check passes or the
// budget runs out:
//
//   rung 0  plain decode            1 solver call, trusts the array
//   rung 1  residual-trimmed decode cs::decode_trimmed_ex on the same y
//   rung 2  fresh-pattern retry     re-randomised Φ + trimmed decode (beats
//                                   unlucky pattern/defect alignment)
//   rung 3  resampling              cs::reconstruct_resample, R rounds
//
// The sanity check for decode rungs reads the shape of the fit: how much of
// the measurement budget the recovered support spends (a support near M
// means the decode interpolates instead of recovering), how much coefficient
// energy sits in the upper half of the spectrum (sparse errors are spikes,
// which spread energy evenly over every frequency), and, for trimmed rungs,
// how many measurements the screen had to discard. The pre-debias solver
// residual from cs::DecodeResult::residual_norm still bounds every decode
// rung, which rejects iterates a deadline cut short. The resampling rung,
// whose output intentionally stops fitting the corrupted measurements, is
// judged by a median absolute measurement residual. Every frame yields a
// RecoveryReport; the pipeline keeps aggregate health counters with an EWMA
// estimate of the defect rate for drift detection. Those counters are the
// only state one frame leaves for the next: a frame's pixels depend only on
// the frame, its frame index (which keys the measurement-fault channel), the
// RNG state and the per-frame control.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cs/decoder.hpp"
#include "cs/encoder.hpp"
#include "cs/faults.hpp"
#include "cs/pipeline.hpp"
#include "la/matrix.hpp"

namespace flexcs::runtime {

/// Ladder rungs in escalation order. Values are contiguous so they double as
/// indices into HealthCounters::recovered_per_rung.
enum class Strategy {
  kPlainDecode = 0,
  kTrimmedDecode = 1,
  kFreshPatternRetry = 2,
  kResample = 3,
};

// One slot more than there are rungs: slot 4 belonged to a retired rung and
// stays 0, because the perfbench report still sizes and reads it.
inline constexpr std::size_t kStrategyCount = 5;

/// Short stable identifier, e.g. "plain" or "resample".
const char* strategy_name(Strategy strategy);

/// Per-frame escalation budgets. A "decode call" is one sparse-solver run
/// (a trimmed decode costs 2: screen + final). Escalation stops — marking
/// the frame budget-exhausted — once the next rung would not fit.
struct LadderBudget {
  int max_decode_calls = 32;      // per frame, across all rungs
  int fresh_pattern_retries = 1;  // rung-2 attempts
  int resample_rounds = 6;        // rung-3 rounds (paper uses 10)
};

/// Ground-truth-free acceptance thresholds for a candidate reconstruction.
struct AcceptanceThresholds {
  // Decode rungs (0-2): relative pre-debias solver residual ||Ax - y|| / ||y||
  // must not exceed this. FISTA drives clean and corrupted tiles alike to
  // 0.003-0.016 (EXPERIMENTS.md E19), so the bound does not separate them; it
  // rejects iterates a deadline cut short. The fit test that does (support
  // ratio, spectral tail, trimmed share) uses fixed bounds calibrated in E19,
  // defined in runtime/pipeline.cpp.
  double max_rel_residual = 0.12;
  // Resampling rung (3): median |y_i - x̂_i| over the measurements must not
  // exceed this (the median ignores up to half the measurements, so the
  // defective ones cannot veto an otherwise good reconstruction).
  double max_median_abs_residual = 0.05;
};

struct RobustPipelineOptions {
  double sampling_fraction = 0.5;  // the paper's 45-60 % band
  Strategy max_rung = Strategy::kResample;  // highest rung to climb to
  AcceptanceThresholds accept;
  LadderBudget budget;
  cs::DecoderOptions decoder;
  // Measurement-level fault channel applied between encode and decode
  // (frame-level faults live in the caller's ground-truth domain). Only the
  // measurement-level members of the scenario are consulted.
  cs::FaultScenario measurement_faults;
  // Health telemetry: EWMA smoothing of the per-frame estimated defect rate,
  // and the level above which the pipeline reports defect-rate drift.
  double ewma_alpha = 0.3;
  double drift_threshold = 0.05;
};

/// Per-frame control for streaming callers: a deadline/cancellation token
/// threaded into every solver call this frame makes, plus ladder overrides
/// the Degrade backpressure policy uses to cheapen frames under load.
struct FrameControl {
  solvers::SolveOptions solve;
  // When >= 0, overrides (never raises) LadderBudget::max_decode_calls.
  int max_decode_calls = -1;
  // Caps the ladder at min(this, options().max_rung) for this frame.
  Strategy max_rung = Strategy::kResample;
  // When > 0, overrides options().sampling_fraction for every acquisition
  // this frame makes (rung 0 and ladder re-acquisitions alike). 0 keeps the
  // configured fraction. Event-driven tile readout uses this to sample
  // active tiles densely and forced-refresh quiet tiles sparsely; the
  // decoder's operator cache keys on the pattern's index vector, so the
  // per-fraction patterns can never collide in the cache.
  double sampling_fraction = 0.0;
};

/// What happened while recovering one frame.
struct RecoveryReport {
  std::size_t frame_index = 0;
  // The rung that produced the returned frame. When a rung passed the sanity
  // check this is that rung; when every rung was rejected it is the rung of
  // the best-scoring candidate across all attempts (scores normalised by
  // each family's acceptance threshold), NOT merely the last rung tried.
  Strategy strategy = Strategy::kPlainDecode;
  int escalation_depth = 0;   // rungs climbed beyond plain decode
  int decode_calls = 0;       // solver runs spent on this frame
  bool accepted = false;      // sanity check passed at `strategy`
  bool budget_exhausted = false;  // ladder stopped early for lack of budget
  bool converged = false;     // solver convergence of the returned candidate
  // Deadline/cancellation fired during this frame: the output is the best
  // candidate produced before the cut (possibly a partial iterate).
  bool deadline_expired = false;
  // Solver iterations behind the returned frame: the decode that produced
  // it, or for the resampling rung the total over its rounds.
  int solver_iterations = 0;
  double decode_seconds = 0.0;  // wall time of process() for this frame
  double rel_residual = 0.0;        // acceptance statistic of the output
  double first_rel_residual = 0.0;  // rung-0 statistic (escalation trigger)
  // Measurements trimmed by the rung that produced the returned frame (0 for
  // rungs that do not trim) — always describes the returned candidate, never
  // a discarded one.
  std::size_t trimmed_measurements = 0;
  std::size_t dropped_measurements = 0;  // lost to the measurement channel
  std::size_t saturated_measurements = 0;
  std::vector<bool> suspected_defects;  // row-major pixel mask
  std::size_t suspected_defect_count = 0;
  double estimated_defect_rate = 0.0;  // suspects / measurements this frame
};

/// Aggregate counters across all processed frames.
struct HealthCounters {
  std::size_t frames_processed = 0;
  std::size_t frames_accepted = 0;
  std::size_t budget_exhaustions = 0;
  // recovered_per_rung[r]: frames whose accepted output came from rung r.
  std::vector<std::size_t> recovered_per_rung =
      std::vector<std::size_t>(kStrategyCount, 0);
  double defect_rate_ewma = 0.0;
  bool drift_detected = false;   // EWMA currently above the drift threshold
  std::size_t drift_events = 0;  // below→above threshold transitions
};

/// Robust-recovery pipeline for a fixed array geometry. Owns the
/// encoder/decoder pair and the health counters. Not thread-safe; one
/// instance per stream or per worker.
class RobustPipeline {
 public:
  /// `solver` may be null, which selects the library default (ADMM-BPDN).
  RobustPipeline(std::size_t rows, std::size_t cols,
                 RobustPipelineOptions opts = {},
                 std::shared_ptr<const solvers::SparseSolver> solver = nullptr);

  struct FrameResult {
    la::Matrix frame;  // best reconstruction the ladder produced
    RecoveryReport report;
  };

  /// Processes one frame: samples it (re-drawing Φ from `rng`), decodes,
  /// and escalates on sanity-check failure. The frame is the *corrupted*
  /// readout; the pipeline never sees ground truth. `frame_index` becomes
  /// report.frame_index and keys the measurement-fault channel. `ctrl.solve`
  /// is threaded into every solver call, and once it fires the ladder stops
  /// escalating and the best candidate so far is returned flagged
  /// deadline_expired. `ctrl` can also shrink this frame's decode budget and
  /// rung ceiling (Degrade policy).
  FrameResult process(const la::Matrix& corrupted_frame,
                      std::size_t frame_index, Rng& rng,
                      const FrameControl& ctrl = {});

  const HealthCounters& health() const { return health_; }
  const RobustPipelineOptions& options() const { return opts_; }
  const cs::Decoder& decoder() const { return decoder_; }

 private:
  struct Candidate {
    la::Matrix frame;
    double score = 0.0;  // acceptance statistic (lower is better)
    // Score normalised by its family's acceptance threshold, so decode-rung
    // and resampling candidates compare on one axis (<= 1 ~ acceptable).
    double badness = 0.0;
    bool accepted = false;
    bool converged = false;
    bool deadline_expired = false;
    int solver_iterations = 0;
  };

  /// One ladder attempt: the candidate plus the acquisition it was judged
  /// against, so whichever attempt is ultimately returned carries its own
  /// pattern/measurements into the suspect-defect bookkeeping.
  struct Attempt {
    Candidate cand;
    Strategy rung = Strategy::kPlainDecode;
    cs::SamplingPattern pattern;
    la::Vector y;
    std::size_t trimmed = 0;  // measurements this attempt's rung trimmed
  };

  /// Judges a decode of `y` whose solver fitted `fitted` of its
  /// measurements (a trimmed decode fits fewer than y.size()).
  Candidate evaluate_decode(const cs::DecodeResult& result,
                            const la::Vector& y, std::size_t fitted) const;
  Candidate evaluate_aggregate(la::Matrix frame, const cs::SamplingPattern& p,
                               const la::Vector& y) const;
  void finish_frame(const cs::SamplingPattern& p, const la::Vector& y,
                    const Candidate& chosen, RecoveryReport& report);

  /// Applies the measurement-level fault channel to one acquisition.
  void apply_measurement_channel(RecoveryReport& report,
                                 cs::SamplingPattern& p, la::Vector& y);
  /// Fresh acquisition at `fraction` (already resolved against the options):
  /// draws Φ, encodes, and runs the measurement-fault channel.
  void acquire(const la::Matrix& frame, Rng& rng, RecoveryReport& report,
               double fraction, cs::SamplingPattern& p, la::Vector& y);
  /// Per-frame budget and rung ceiling after `ctrl` overrides.
  int effective_budget(const FrameControl& ctrl) const;
  Strategy effective_max_rung(const FrameControl& ctrl) const;

  std::size_t rows_;
  std::size_t cols_;
  RobustPipelineOptions opts_;
  cs::Encoder encoder_;
  cs::Decoder decoder_;
  HealthCounters health_;
};

}  // namespace flexcs::runtime
