// Sharded decode of large arrays: partitions an R x C frame into a grid of
// fixed-size tiles, runs one Decoder + RobustPipeline per tile (each worker
// of an internal StreamServer owns a pipeline over the tile geometry), and
// gathers the tile reconstructions back into the full frame. Tile solves are
// independent, so they spread across the worker pool, and each one's
// per-iteration transform cost scales with the tile rather than the frame.
//
// Tiles are statistically independent solves, so block-DCT seams can appear
// at tile borders. An optional halo pads every tile with replicated border
// pixels from its neighbours before sampling; only the tile interior is
// copied back, which suppresses the seams at the cost of slightly larger
// tile solves.
//
// Scatter/gather rides the StreamServer worker pool: each process() call
// submits one frame's tiles as frames of the padded tile geometry and
// collects them with wait_for_completed. The caller's deadline/cancel
// control propagates into every tile solve via SubmitControl, so a cancel
// that fires mid-frame stops the tiles already running as well as those
// still queued. Tile→worker assignment is nondeterministic under more than
// one worker, but tile t is submitted under stream id t, and each tile's
// RNG derives from its stream id (see StreamOptions::seed), so
// reconstructions are bit-reproducible regardless of worker count or pop
// interleaving. Every process() call
// therefore decodes tile t with the same sampling pattern Φ, while
// DecodeService draws a fresh Φ per frame. Both executors report the same
// running frame count (0 for the first process() call) as every tile's
// frame_index, which also keys the measurement-fault channel.
//
// Event-driven mode (ShardOptions::gate.enabled) puts an ActivityGate in
// front of the scatter: tiles whose change detector stays quiet are never
// submitted — their pixels are served bit-for-bit from the previous frame's
// stitched reconstruction — and tiles that are decoded can run at adaptive
// sampling fractions (dense when activity woke them, sparse when only the
// force-refresh period did). See activity.hpp for the detector contract.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/activity.hpp"
#include "runtime/stream.hpp"
#include "runtime/tile_grid.hpp"

namespace flexcs::runtime {

struct ShardOptions {
  std::size_t tile_rows = 32;  // must divide the frame rows
  std::size_t tile_cols = 32;  // must divide the frame cols
  // Replicated-border padding around each tile, in pixels per side. 0 decodes
  // bare tiles (fastest, visible seams under aggressive sampling); 2 is
  // enough to let the DCT atoms of neighbouring tiles overlap.
  std::size_t halo = 2;
  // Worker pool + per-tile pipeline configuration. The server is created
  // over the PADDED tile geometry.
  StreamOptions stream;
  // Event-driven readout: when gate.enabled, a per-tile change detector
  // decides which tiles are decoded each frame; the rest are served from the
  // previous reconstruction. Disabled by default (every tile decodes).
  ActivityGateOptions gate;
};

/// Per-tile outcome, in row-major tile-grid order. The full RecoveryReport of
/// every tile rides along in the stitched result, so callers can attribute a
/// degraded frame to the tile (and the ladder rung) that caused it. The
/// dispatch fields are filled by DecodeService; ShardedDecoder's in-process
/// pool leaves them at their defaults (one attempt, no fallback).
struct TileReport {
  std::size_t tile_row = 0;  // tile-grid coordinates, not pixels
  std::size_t tile_col = 0;
  int dispatch_attempts = 1;  // worker dispatches this tile consumed
  bool in_process = false;    // decoded by the broker fallback, not a worker
  bool remote = false;        // decoded by a remote (TCP) worker
  // Event-driven mode only: this tile was NOT decoded this frame — its
  // pixels were copied verbatim from the previous reconstruction, and
  // `report` is default-constructed (no solver ran).
  bool served_stale = false;
  RecoveryReport report;
};

/// Aggregate of one sharded frame decode. Every counter describes this frame
/// alone, and decode_seconds is the wall time of its scatter/gather — the
/// frame's latency. In event-driven mode the decode counters cover
/// only the tiles actually decoded this frame — a served-stale tile
/// contributes no decode_calls, no acceptance and no residual.
struct ShardReport {
  std::size_t tiles = 0;
  std::size_t tiles_accepted = 0;  // tiles whose ladder sanity check passed
  int decode_calls = 0;            // summed over tiles
  bool deadline_expired = false;   // any tile cut short
  bool budget_exhausted = false;   // any tile ran out of ladder budget
  double max_rel_residual = 0.0;   // worst tile acceptance statistic
  double decode_seconds = 0.0;     // wall time of the scatter/gather
  // Event-driven mode (all 0 / empty when the gate is disabled):
  std::size_t tiles_skipped = 0;    // served stale from the previous frame
  std::size_t tiles_refreshed = 0;  // decoded this frame (activity or forced)
  std::size_t tiles_forced = 0;     // decoded only by the force-refresh clock
  // Per-tile gate decisions for this frame, row-major tile-grid order (the
  // frame's activity map). Empty when the gate is disabled.
  std::vector<TileActivity> activity;
  std::vector<TileReport> tile_reports;
};

/// Folds tile `tile`'s decode report into its frame's counters and files it
/// as that tile's TileReport, returned so the caller can fill the dispatch
/// fields. ShardedDecoder and DecodeService both aggregate through it.
TileReport& fold_tile_report(ShardReport& frame, const TileGrid& grid,
                             std::size_t tile, RecoveryReport report);

struct ShardFrameResult {
  la::Matrix frame;  // full-size reconstruction
  ShardReport report;
};

/// Scatter/gather front-end decoding a large array as a grid of concurrent
/// tile solves. Owns a StreamServer of the padded tile geometry. NOT
/// thread-safe: one process() call at a time, from one caller thread — the
/// concurrency lives in the worker pool underneath.
class ShardedDecoder {
 public:
  ShardedDecoder(std::size_t rows, std::size_t cols, ShardOptions opts = {});

  std::size_t rows() const { return grid_.rows; }
  std::size_t cols() const { return grid_.cols; }
  /// Tile grid dimensions (tiles per column / per row of the grid).
  std::size_t grid_rows() const { return grid_.grid_rows; }
  std::size_t grid_cols() const { return grid_.grid_cols; }
  std::size_t shards() const { return grid_.tiles(); }
  /// Padded tile geometry actually decoded (tile + 2·halo per side).
  std::size_t padded_rows() const { return grid_.padded_rows; }
  std::size_t padded_cols() const { return grid_.padded_cols; }
  const ShardOptions& options() const { return opts_; }
  const TileGrid& grid() const { return grid_; }
  /// The event-driven change detector (constructed and stateful even when
  /// gate.enabled is false, so tests can exercise it directly; the decode
  /// path only consults it when enabled).
  const ActivityGate& gate() const { return gate_; }

  /// Telemetry of the underlying worker pool (cumulative across frames),
  /// with the event-driven gate counters overlaid: tiles_skipped /
  /// tiles_refreshed / tiles_forced accumulate across every gated frame this
  /// decoder has processed.
  StreamHealth health() const;

  /// Decodes one full frame: scatters its tiles across the worker pool,
  /// waits for every tile, and stitches the interiors back together.
  /// `ctrl`'s deadline/cancel are forwarded into every tile solve.
  ShardFrameResult process(const la::Matrix& frame,
                           const solvers::SolveOptions& ctrl = {});

 private:
  ShardOptions opts_;
  TileGrid grid_;
  StreamServer server_;
  ActivityGate gate_;
  std::size_t total_submitted_ = 0;  // cumulative, for wait_for_completed
  std::size_t frames_processed_ = 0;  // the next frame's frame_index
  // Event-driven mode: the previous frame's full stitched reconstruction —
  // the source for served-stale tiles. Empty until the first gated frame
  // completes (whose tiles are all forced, so it is never read empty).
  la::Matrix last_recon_;
  // Cumulative gate counters overlaid onto health().
  std::size_t gate_skipped_ = 0;
  std::size_t gate_refreshed_ = 0;
  std::size_t gate_forced_ = 0;
};

}  // namespace flexcs::runtime
