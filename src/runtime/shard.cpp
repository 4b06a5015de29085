#include "runtime/shard.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace flexcs::runtime {

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
    : opts_(std::move(opts)),
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
  FLEXCS_CHECK(frame.rows() == grid_.rows && frame.cols() == grid_.cols,
               "sharded decode: frame shape mismatch");

  const auto start = Deadline::Clock::now();
  const std::size_t n_tiles = shards();
  const bool gated = opts_.gate.enabled;
  ShardFrameResult out;
  out.frame = la::Matrix(grid_.rows, grid_.cols);
  out.report.tiles = n_tiles;
  out.report.tile_reports.resize(n_tiles);
  FrameActivity activity;
  if (gated) activity = gate_.update(frame);

  // Scatter. In gated mode, tiles whose detector stayed quiet are simply
  // never submitted — that is the entire saving — and each submitted tile
  // carries its adaptive sampling fraction.
  SubmitControl tile_ctrl;
  tile_ctrl.deadline = ctrl.deadline;
  tile_ctrl.cancel = ctrl.cancel;
  tile_ctrl.frame_index = frames_processed_;
  for (std::size_t t = 0; t < n_tiles; ++t) {
    if (gated) {
      const TileActivity& ta = activity.tiles[t];
      if (!ta.decode) continue;
      tile_ctrl.sampling_fraction = gate_.decode_fraction(ta);
    }
    // Stream id = tile id: the stream seeds the tile's Φ from it, so an
    // activity gate that skips tiles around a decode cannot change its
    // sampling pattern (the gated and ungated arms decode shared tiles
    // identically).
    const bool ok = server_.submit(t, grid_.extract(frame, t), tile_ctrl);
    FLEXCS_CHECK(ok, "sharded decode: worker pool already closed");
    ++total_submitted_;
  }
  // Gather: block until the pool has finished every tile ever submitted
  // (cumulative count — results of concurrent callers are not supported;
  // the class is documented single-caller).
  server_.wait_for_completed(total_submitted_);
  for (StreamResult& sr : server_.drain_results()) {
    const auto t = static_cast<std::size_t>(sr.stream_id);
    grid_.stitch(sr.frame, t, out.frame);
    fold_tile_report(out.report, grid_, t, std::move(sr.report));
  }

  // Serve the skipped tiles bit-for-bit from the previous frame's final
  // reconstruction (which may itself contain tiles served stale earlier —
  // staleness chains until a decode or forced refresh replaces the tile).
  // The first frame ever seen forces every tile, so last_recon_ is never
  // read empty.
  if (gated) {
    for (std::size_t t = 0; t < n_tiles; ++t) {
      if (activity.tiles[t].decode) continue;
      FLEXCS_CHECK(last_recon_.rows() == grid_.rows &&
                       last_recon_.cols() == grid_.cols,
                   "sharded decode: no previous reconstruction to serve "
                   "stale tiles from");
      grid_.copy_interior(last_recon_, t, out.frame);
      TileReport& tile_rep = out.report.tile_reports[t];
      tile_rep.tile_row = grid_.tile_row(t);
      tile_rep.tile_col = grid_.tile_col(t);
      tile_rep.served_stale = true;
    }
    out.report.tiles_skipped = activity.skipped;
    out.report.tiles_refreshed = activity.decoded;
    out.report.tiles_forced = activity.forced;
    out.report.activity = std::move(activity.tiles);
    gate_skipped_ += activity.skipped;
    gate_refreshed_ += activity.decoded;
    gate_forced_ += activity.forced;
    last_recon_ = out.frame;
  }

  ++frames_processed_;
  out.report.decode_seconds = std::chrono::duration<double>(
                                  Deadline::Clock::now() - start)
                                  .count();
  return out;
}

}  // namespace flexcs::runtime
