#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace flexcs::runtime {
namespace {

// Validates the tiling-independent options before any member that depends on
// them is built (the StreamServer is constructed in the initializer list over
// the padded tile geometry, so the checks cannot wait for the constructor
// body). The grid divisibility checks live in TileGrid itself; the gate
// option checks live in ActivityGate.
ShardOptions validated(ShardOptions opts) {
  FLEXCS_CHECK(opts.stream.policy != BackpressurePolicy::kDropOldest,
               "sharded decode cannot drop tiles "
               "(the gather would never complete)");
  return opts;
}

}  // namespace

TileReport& fold_tile_report(ShardReport& frame, const TileGrid& grid,
                             std::size_t tile, RecoveryReport report) {
  // Per-frame aggregation: every counter below describes this frame alone.
  if (report.accepted) ++frame.tiles_accepted;
  frame.decode_calls += report.decode_calls;
  frame.deadline_expired |= report.deadline_expired;
  frame.budget_exhausted |= report.budget_exhausted;
  frame.max_rel_residual =
      std::max(frame.max_rel_residual, report.rel_residual);
  TileReport& tr = frame.tile_reports[tile];
  tr.tile_row = grid.tile_row(tile);
  tr.tile_col = grid.tile_col(tile);
  tr.report = std::move(report);
  return tr;
}

ShardedDecoder::ShardedDecoder(std::size_t rows, std::size_t cols,
                               ShardOptions opts)
    : opts_(validated(std::move(opts))),
      grid_(rows, cols, opts_.tile_rows, opts_.tile_cols, opts_.halo),
      server_(grid_.padded_rows, grid_.padded_cols, opts_.stream),
      gate_(grid_, opts_.gate) {
  FLEXCS_CHECK(grid_.tiles() >= 1, "sharded decoder needs at least one tile");
}

StreamHealth ShardedDecoder::health() const {
  StreamHealth h = server_.health();
  h.tiles_skipped = gate_skipped_;
  h.tiles_refreshed = gate_refreshed_;
  h.tiles_forced = gate_forced_;
  return h;
}

ShardFrameResult ShardedDecoder::process(const la::Matrix& frame,
                                         const solvers::SolveOptions& ctrl) {
  std::vector<ShardFrameResult> out =
      process_batch(std::vector<la::Matrix>{frame}, ctrl);
  return std::move(out.front());
}

std::vector<ShardFrameResult> ShardedDecoder::process_batch(
    const std::vector<la::Matrix>& frames, const solvers::SolveOptions& ctrl) {
  FLEXCS_CHECK(!frames.empty(), "sharded decode of an empty batch");
  for (const la::Matrix& f : frames)
    FLEXCS_CHECK(f.rows() == grid_.rows && f.cols() == grid_.cols,
                 "sharded decode: frame shape mismatch");

  const auto start = Deadline::Clock::now();
  const std::size_t n_tiles = shards();
  const bool gated = opts_.gate.enabled;
  SubmitControl submit_ctrl;
  submit_ctrl.deadline = ctrl.deadline;
  submit_ctrl.cancel = ctrl.cancel;

  // Gate pass, one per frame in submission order (the gate's hysteresis /
  // refresh clocks advance per frame, so a call with B frames gates exactly
  // like B single-frame calls).
  std::vector<FrameActivity> activity(frames.size());
  if (gated)
    for (std::size_t f = 0; f < frames.size(); ++f)
      activity[f] = gate_.update(frames[f]);

  // Scatter, tile-position-major. In gated mode, tiles whose detector stayed
  // quiet are simply never submitted — that is the entire saving — and each
  // submitted tile carries its adaptive sampling fraction.
  for (std::size_t t = 0; t < n_tiles; ++t) {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      SubmitControl tile_ctrl = submit_ctrl;
      if (gated) {
        const TileActivity& ta = activity[f].tiles[t];
        if (!ta.decode) continue;
        tile_ctrl.sampling_fraction = gate_.decode_fraction(ta);
      }
      // Stable tile id: the stream seeds tile t of frame f from it, so
      // an activity gate that skips tiles around a decode cannot change its
      // sampling pattern (the gated and ungated arms decode shared tiles
      // identically).
      const std::uint64_t id = static_cast<std::uint64_t>(f) * n_tiles + t;
      const bool ok =
          server_.submit(id, grid_.extract(frames[f], t), tile_ctrl);
      FLEXCS_CHECK(ok, "sharded decode: worker pool already closed");
      ++total_submitted_;
    }
  }
  // Gather: block until the pool has finished every tile ever submitted
  // (cumulative count — results of concurrent callers are not supported;
  // the class is documented single-caller).
  server_.wait_for_completed(total_submitted_);

  std::vector<ShardFrameResult> out(frames.size());
  for (std::size_t f = 0; f < out.size(); ++f) {
    ShardFrameResult& r = out[f];
    r.frame = la::Matrix(grid_.rows, grid_.cols);
    r.report.tiles = n_tiles;
    r.report.tile_reports.resize(n_tiles);
    if (gated) r.report.activity = activity[f].tiles;
  }
  for (StreamResult& sr : server_.drain_results()) {
    const std::size_t f = static_cast<std::size_t>(sr.stream_id) / n_tiles;
    const std::size_t t = static_cast<std::size_t>(sr.stream_id) % n_tiles;
    FLEXCS_CHECK(f < out.size(), "sharded decode: stale result in the pool");
    grid_.stitch(sr.frame, t, out[f].frame);
    fold_tile_report(out[f].report, grid_, t, std::move(sr.report));
  }

  // Serve the skipped tiles, in frame order: frame f's stale tiles come
  // bit-for-bit from frame f-1's FINAL reconstruction (which may itself
  // contain tiles served stale earlier — staleness chains until a decode or
  // forced refresh replaces the tile). Frame 0 serves from the previous
  // call's last reconstruction; the first frame ever seen forces every
  // tile, so last_recon_ is never read empty.
  if (gated) {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      ShardFrameResult& r = out[f];
      const la::Matrix& prev = f == 0 ? last_recon_ : out[f - 1].frame;
      for (std::size_t t = 0; t < n_tiles; ++t) {
        const TileActivity& ta = activity[f].tiles[t];
        if (ta.decode) continue;
        FLEXCS_CHECK(prev.rows() == grid_.rows && prev.cols() == grid_.cols,
                     "sharded decode: no previous reconstruction to serve "
                     "stale tiles from");
        grid_.copy_interior(prev, t, r.frame);
        TileReport& tile_rep = r.report.tile_reports[t];
        tile_rep.tile_row = grid_.tile_row(t);
        tile_rep.tile_col = grid_.tile_col(t);
        tile_rep.served_stale = true;
      }
      r.report.tiles_skipped = activity[f].skipped;
      r.report.tiles_refreshed = activity[f].decoded;
      r.report.tiles_forced = activity[f].forced;
      gate_skipped_ += activity[f].skipped;
      gate_refreshed_ += activity[f].decoded;
      gate_forced_ += activity[f].forced;
    }
    last_recon_ = out.back().frame;
  }

  const double elapsed = std::chrono::duration<double>(
                             Deadline::Clock::now() - start)
                             .count();
  for (ShardFrameResult& r : out) r.report.decode_seconds = elapsed;
  return out;
}

}  // namespace flexcs::runtime
