// Sharded decode of large arrays: partitions an R x C frame into a grid of
// fixed-size tiles, decodes each tile with a RobustPipeline on a pool of
// worker threads, and stitches the tile reconstructions back into the full
// frame. Each solve's per-iteration transform cost scales with the tile
// rather than the frame. An optional halo pads every tile with replicated
// border pixels before sampling; only the interior is copied back, which
// suppresses block-DCT seams at tile borders.
//
// The frame half of a decode lives in TileFrontEnd, which both executors
// (ShardedDecoder here, DecodeService in service.hpp) drive the same way:
// begin() checks the frame, runs the activity gate and lists the tile jobs;
// extract() cuts a job's padded tile; complete() stitches a decoded tile and
// folds its report; finish() serves the skipped tiles and closes the frame.
// The front end holds all state that crosses frames — the running frame
// index, the gate, the previous reconstruction, each tile's defect-rate
// EWMA — and a RobustPipeline holds none, so which worker decodes a tile
// changes neither its pixels nor its report.
//
// ShardedDecoder's pool starts exactly `workers` threads, which share one
// immutable RobustPipeline and claim a frame's jobs one at a time. The
// caller's deadline and cancel token reach every tile solve. Tile t seeds
// its RNG from (seed, t), so pixels do not depend on the worker count and
// every process() call samples tile t with the same Φ (DecodeService draws
// a fresh Φ per frame). Both executors pass the front end's frame count as
// every tile's frame_index, which also keys the measurement-fault channel.
//
// Event-driven mode (ShardOptions::gate.enabled) puts an ActivityGate in
// front of the scatter: quiet tiles are never decoded — their pixels are
// served bit-for-bit from the previous frame's reconstruction — and decoded
// tiles can run at adaptive sampling fractions (dense when activity woke
// them, sparse when only the force-refresh period did). See activity.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "runtime/activity.hpp"
#include "runtime/latency.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/tile_grid.hpp"

namespace flexcs::runtime {

/// ShardedDecoder's worker pool and the per-tile pipeline it runs.
struct StreamOptions {
  std::size_t workers = 2;  // worker threads (>= 1)
  // Ignored (nothing reads it); goes with the next perfbench change.
  bool watchdog_enabled = true;
  // The one RobustPipeline every worker shares is built from this.
  RobustPipelineOptions pipeline;
  // Sparse solver of that pipeline (solvers are immutable once built, so
  // concurrent solve() calls are safe). Null selects the library default
  // (FISTA).
  std::shared_ptr<const solvers::SparseSolver> solver;
  // Tile t decodes from a fresh RNG seeded by (seed, t): a pure function of
  // the tile, its pixels and the frame index, whatever the worker count.
  std::uint64_t seed = 0x5eed;
};

/// ShardedDecoder telemetry, cumulative since construction.
struct StreamHealth {
  std::size_t completed = 0;         // tiles decoded
  std::size_t deadline_expired = 0;  // tiles whose solve was cut short
  // Percentiles of the frame latencies (report.decode_seconds of every
  // process() call), read from a LatencyHistogram.
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  // Event-driven gating (0 while the gate is off): tiles served stale,
  // decoded (activity or forced), and decoded only by the refresh clock.
  std::size_t tiles_skipped = 0;
  std::size_t tiles_refreshed = 0;
  std::size_t tiles_forced = 0;
};

struct ShardOptions {
  std::size_t tile_rows = kDefaultTileSide;  // must divide the frame rows
  std::size_t tile_cols = kDefaultTileSide;  // must divide the frame cols
  // Replicated-border padding around each tile, in pixels per side. 0 decodes
  // bare tiles (fastest, visible seams under aggressive sampling); 2 is
  // enough to let the DCT atoms of neighbouring tiles overlap.
  std::size_t halo = kDefaultHalo;
  // Worker pool + per-tile pipeline configuration. The pipeline is built
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
  // Drift of the paper's Sec. 4.3 defect estimate: an EWMA of this tile's
  // report.estimated_defect_rate over its decodes, and whether it exceeds
  // the drift threshold. A served-stale tile carries both forward.
  double defect_rate_ewma = 0.0;
  bool drift_detected = false;
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

struct ShardFrameResult {
  la::Matrix frame;  // full-size reconstruction
  ShardReport report;
};

/// One tile the current frame must decode, at `sampling_fraction` (0 keeps
/// the pipeline's configured fraction).
struct TileJob {
  std::size_t tile = 0;
  double sampling_fraction = 0.0;
};

/// The frame half of a tiled decode, shared by both executors: one frame at
/// a time goes begin() → extract()/complete() per job → finish(). NOT
/// thread-safe: the executor's caller thread drives it.
class TileFrontEnd {
 public:
  TileFrontEnd(const TileGrid& grid, ActivityGateOptions gate = {});

  const TileGrid& grid() const { return grid_; }

  /// Opens a frame: checks its shape, advances the frame index, runs the
  /// gate when enabled, and returns the tiles to decode (every tile when the
  /// gate is off). `frame` must outlive the frame's finish().
  const std::vector<TileJob>& begin(const la::Matrix& frame);
  /// Index of the open frame: the number of earlier begin() calls.
  std::size_t frame_index() const { return frames_begun_ - 1; }
  /// Tile `tile` of the open frame, with its halo.
  la::Matrix extract(std::size_t tile) const;
  /// Stitches job `tile`'s decoded padded tile and files its report; returns
  /// the TileReport for the dispatch fields. Each job completes once.
  TileReport& complete(std::size_t tile, const la::Matrix& padded,
                       RecoveryReport report);
  /// Jobs of the open frame not completed yet.
  std::size_t outstanding() const { return outstanding_; }
  /// Closes the frame: serves the skipped tiles from the previous
  /// reconstruction; the report is timed from begin().
  ShardFrameResult finish();

  /// Copies the gate counters, summed since construction, into `health`.
  void overlay_gate_counts(StreamHealth& health) const;

 private:
  enum class Stage : unsigned char { kSkipped, kPending, kDone };

  TileGrid grid_;
  ActivityGate gate_;
  bool gated_;
  std::size_t frames_begun_ = 0;
  const la::Matrix* source_ = nullptr;  // the open frame
  Deadline::Clock::time_point start_{};
  std::vector<TileJob> jobs_;
  std::vector<Stage> stage_;  // per tile
  std::size_t outstanding_ = 0;
  ShardFrameResult out_;
  // Gated mode: the previous frame's stitched reconstruction, the source of
  // served-stale tiles. The first gated frame forces every tile, so it is
  // never read empty.
  la::Matrix last_recon_;
  std::vector<double> defect_ewma_;  // per tile; < 0 until its first decode
  FrameActivity gate_totals_;  // cumulative counts; `tiles` stays empty
};

/// Scatter/gather executor decoding a large array as a grid of concurrent
/// tile solves on its own worker pool. NOT thread-safe: one process() call
/// at a time, from one caller thread — the concurrency lives in the pool
/// underneath. The destructor joins every worker; none is ever detached.
class ShardedDecoder {
 public:
  ShardedDecoder(std::size_t rows, std::size_t cols, ShardOptions opts = {});
  ~ShardedDecoder();

  ShardedDecoder(const ShardedDecoder&) = delete;
  ShardedDecoder& operator=(const ShardedDecoder&) = delete;

  std::size_t shards() const { return front_.grid().tiles(); }
  const TileGrid& grid() const { return front_.grid(); }

  /// Cumulative telemetry: tiles decoded and cut short, frame-latency
  /// percentiles, and the gate counters summed over every gated frame.
  StreamHealth health() const;

  /// Decodes one frame: the pool decodes its tile jobs, then their interiors
  /// are stitched. `ctrl`'s deadline/cancel reach every tile solve, and what
  /// a tile decode throws (a CheckError) is rethrown here.
  ShardFrameResult process(const la::Matrix& frame,
                           const solvers::SolveOptions& ctrl = {})
      FLEXCS_EXCLUDES(mu_);

 private:
  // One tile job of the open frame; process() rethrows `error` if it is set.
  struct Slot {
    std::size_t tile = 0;
    FrameControl ctrl;
    la::Matrix pixels;  // padded
    RobustPipeline::FrameResult decoded;
    std::exception_ptr error;
  };

  void worker_loop() FLEXCS_EXCLUDES(mu_);
  void stop() FLEXCS_EXCLUDES(mu_);  // closes the pool, joins every worker

  TileFrontEnd front_;
  const std::uint64_t seed_;
  // Immutable, so every worker decodes through it at once without a lock.
  const RobustPipeline pipeline_;

  // mu_ guards the job hand-off: workers wait on work_ready_ for a job (or
  // close), the caller on frame_done_ for the last one to finish.
  common::Mutex mu_;
  common::CondVar work_ready_;
  common::CondVar frame_done_;
  std::size_t published_ FLEXCS_GUARDED_BY(mu_) = 0;  // jobs of the frame
  std::size_t claimed_ FLEXCS_GUARDED_BY(mu_) = 0;
  std::size_t finished_ FLEXCS_GUARDED_BY(mu_) = 0;
  bool closed_ FLEXCS_GUARDED_BY(mu_) = false;

  // The open frame's work. The caller writes it before publishing the jobs
  // under mu_ and reads it back after the last one finished; in between,
  // slot j belongs to the worker that claimed job j. Those hand-offs under
  // mu_ order every access, so no guard is needed.
  std::vector<Slot> slots_;
  std::size_t frame_index_ = 0;

  std::vector<std::thread> workers_;

  // Written by process(), read by health(): the caller thread only.
  std::size_t completed_ = 0;
  std::size_t deadline_expired_ = 0;
  LatencyHistogram latencies_;
};

}  // namespace flexcs::runtime
