#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexcs::runtime {
namespace {

// Per-tile drift detection over report.estimated_defect_rate: EWMA
// smoothing, and the level above which a tile reports drift.
constexpr double kDefectEwmaAlpha = 0.3;
constexpr double kDriftThreshold = 0.05;

}  // namespace

TileFrontEnd::TileFrontEnd(const TileGrid& grid, ActivityGateOptions gate)
    : grid_(grid),
      gate_(grid_, gate),
      gated_(gate.enabled),
      defect_ewma_(grid_.tiles(), -1.0) {}

const std::vector<TileJob>& TileFrontEnd::begin(const la::Matrix& frame) {
  FLEXCS_CHECK(frame.rows() == grid_.rows && frame.cols() == grid_.cols,
               "tile front end: frame shape mismatch");
  start_ = Deadline::Clock::now();
  ++frames_begun_;
  source_ = &frame;
  out_.frame = la::Matrix(grid_.rows, grid_.cols);
  out_.report = ShardReport{};
  out_.report.tiles = grid_.tiles();
  out_.report.tile_reports.resize(grid_.tiles());
  jobs_.clear();
  if (gated_) {
    // Tiles whose detector stayed quiet are never listed — that is the
    // entire saving — and each listed tile carries its adaptive fraction.
    FrameActivity activity = gate_.update(frame);
    for (std::size_t t = 0; t < grid_.tiles(); ++t) {
      const TileActivity& ta = activity.tiles[t];
      if (ta.decode) jobs_.push_back({t, gate_.decode_fraction(ta)});
    }
    out_.report.tiles_skipped = activity.skipped;
    out_.report.tiles_refreshed = activity.decoded;
    out_.report.tiles_forced = activity.forced;
    out_.report.activity = std::move(activity.tiles);
  } else {
    for (std::size_t t = 0; t < grid_.tiles(); ++t) jobs_.push_back({t, 0.0});
  }
  stage_.assign(grid_.tiles(), Stage::kSkipped);
  for (const TileJob& job : jobs_) stage_[job.tile] = Stage::kPending;
  outstanding_ = jobs_.size();
  return jobs_;
}

la::Matrix TileFrontEnd::extract(std::size_t tile) const {
  FLEXCS_CHECK(source_ != nullptr, "tile front end: no open frame");
  return grid_.extract(*source_, tile);
}

TileReport& TileFrontEnd::complete(std::size_t tile, const la::Matrix& padded,
                                   RecoveryReport report) {
  FLEXCS_CHECK(tile < stage_.size() && stage_[tile] == Stage::kPending,
               "tile front end: completed tile is not an open job");
  stage_[tile] = Stage::kDone;
  --outstanding_;
  grid_.stitch(padded, tile, out_.frame);

  double& ewma = defect_ewma_[tile];  // a tile's first decode seeds it
  ewma = ewma < 0.0 ? report.estimated_defect_rate
                    : (1.0 - kDefectEwmaAlpha) * ewma +
                          kDefectEwmaAlpha * report.estimated_defect_rate;

  // Per-frame aggregation: every counter below describes this frame alone.
  ShardReport& frame = out_.report;
  if (report.accepted) ++frame.tiles_accepted;
  frame.decode_calls += report.decode_calls;
  frame.deadline_expired |= report.deadline_expired;
  frame.budget_exhausted |= report.budget_exhausted;
  frame.max_rel_residual =
      std::max(frame.max_rel_residual, report.rel_residual);
  TileReport& tr = frame.tile_reports[tile];
  tr.report = std::move(report);
  return tr;
}

ShardFrameResult TileFrontEnd::finish() {
  FLEXCS_CHECK(source_ != nullptr, "tile front end: no open frame");
  FLEXCS_CHECK(outstanding_ == 0,
               "tile front end: a listed tile was never completed");
  // Serve the skipped tiles bit-for-bit from the previous frame's final
  // reconstruction (which may itself contain tiles served stale earlier —
  // staleness chains until a decode or forced refresh replaces the tile).
  // A skipped tile's drift estimate carries forward from its last decode.
  for (std::size_t t = 0; t < stage_.size(); ++t) {
    TileReport& tr = out_.report.tile_reports[t];
    tr.tile_row = grid_.tile_row(t);
    tr.tile_col = grid_.tile_col(t);
    tr.defect_rate_ewma = defect_ewma_[t];
    tr.drift_detected = defect_ewma_[t] > kDriftThreshold;
    if (stage_[t] != Stage::kSkipped) continue;
    FLEXCS_CHECK(last_recon_.rows() == grid_.rows &&
                     last_recon_.cols() == grid_.cols,
                 "tile front end: no previous reconstruction to serve "
                 "stale tiles from");
    grid_.copy_interior(last_recon_, t, out_.frame);
    tr.served_stale = true;
  }
  if (gated_) {
    gate_totals_.skipped += out_.report.tiles_skipped;
    gate_totals_.decoded += out_.report.tiles_refreshed;
    gate_totals_.forced += out_.report.tiles_forced;
    last_recon_ = out_.frame;
  }
  source_ = nullptr;
  out_.report.decode_seconds =
      std::chrono::duration<double>(Deadline::Clock::now() - start_).count();
  return std::move(out_);
}

void TileFrontEnd::overlay_gate_counts(StreamHealth& health) const {
  health.tiles_skipped = gate_totals_.skipped;
  health.tiles_refreshed = gate_totals_.decoded;
  health.tiles_forced = gate_totals_.forced;
}

ShardedDecoder::ShardedDecoder(std::size_t rows, std::size_t cols,
                               ShardOptions opts)
    : front_(TileGrid(rows, cols, opts.tile_rows, opts.tile_cols, opts.halo),
             opts.gate),
      seed_(opts.stream.seed),
      pipeline_(front_.grid().padded_rows, front_.grid().padded_cols,
                opts.stream.pipeline, opts.stream.solver) {
  FLEXCS_CHECK(shards() >= 1, "sharded decoder needs at least one tile");
  FLEXCS_CHECK(opts.stream.workers >= 1,
               "sharded decoder needs at least one worker");
  try {
    for (std::size_t w = 0; w < opts.stream.workers; ++w)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {  // a thread that failed to start: join those that did
    stop();
    throw;
  }
}

ShardedDecoder::~ShardedDecoder() { stop(); }

void ShardedDecoder::stop() {
  {
    common::MutexLock lock(mu_);
    closed_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

StreamHealth ShardedDecoder::health() const {
  StreamHealth h;
  h.completed = completed_;
  h.deadline_expired = deadline_expired_;
  h.p50_latency_seconds = latencies_.percentile(0.50);
  h.p99_latency_seconds = latencies_.percentile(0.99);
  front_.overlay_gate_counts(h);
  return h;
}

void ShardedDecoder::worker_loop() {
  for (;;) {
    std::size_t j = 0;
    {
      common::MutexLock lock(mu_);
      while (!closed_ && claimed_ == published_) work_ready_.wait(mu_);
      if (closed_) return;  // process() is never running at close
      j = claimed_++;
    }
    Slot& slot = slots_[j];
    // A pure function of (seed, tile, frame index, pixels): which worker
    // claimed the job, and what it decoded before, do not matter.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (slot.tile + 1)));
    try {
      slot.decoded = pipeline_.process(slot.pixels, frame_index_, rng,
                                       slot.ctrl);
    } catch (...) {
      slot.error = std::current_exception();
    }
    common::MutexLock lock(mu_);
    if (++finished_ == published_) frame_done_.notify_one();
  }
}

ShardFrameResult ShardedDecoder::process(const la::Matrix& frame,
                                         const solvers::SolveOptions& ctrl) {
  const std::vector<TileJob>& jobs = front_.begin(frame);
  // Deadline and cancel only: a norm hint would not fit the tile operators.
  const solvers::SolveOptions solve{ctrl.deadline, ctrl.cancel, 0.0};
  slots_.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j)
    slots_[j] = {jobs[j].tile, {solve, jobs[j].sampling_fraction},
                 front_.extract(jobs[j].tile), {}, nullptr};
  frame_index_ = front_.frame_index();
  {
    common::MutexLock lock(mu_);
    FLEXCS_CHECK(finished_ == published_,
                 "sharded decode: a frame is already in flight");
    published_ = jobs.size();
    claimed_ = finished_ = 0;
    work_ready_.notify_all();
    while (finished_ < published_) frame_done_.wait(mu_);
  }
  for (const Slot& slot : slots_)
    if (slot.error) std::rethrow_exception(slot.error);
  // Job order: every fold in complete() is order-independent.
  for (Slot& slot : slots_) {
    if (slot.decoded.report.deadline_expired) ++deadline_expired_;
    front_.complete(slot.tile, slot.decoded.frame,
                    std::move(slot.decoded.report));
  }
  completed_ += slots_.size();
  ShardFrameResult out = front_.finish();
  latencies_.add(out.report.decode_seconds);
  return out;
}

}  // namespace flexcs::runtime
