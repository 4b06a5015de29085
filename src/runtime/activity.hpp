// Event-driven sparse readout: a cheap always-on change detector in front of
// the full tile decode, after the context-aware readout architectures of
// Roh & Choi (arXiv 2203.06613) and Hollis et al. (arXiv 1603.01324). Tactile
// and temperature scenes are mostly static frame to frame, so re-solving
// every tile of every frame wastes almost all of the solver budget on pixels
// that have not moved.
//
// The detector reads a small fixed subset of each tile's raw pixels (its
// "detector pattern", drawn once at construction from the gate's own RNG so
// the decode pipelines' random streams are untouched) and compares them
// against the same subset of the previous frame: the activity statistic is
// the RMS per-measurement energy of the y-delta. A tile WAKES when the
// energy reaches `threshold` and goes back to SLEEP only when it falls below
// `threshold * hysteresis_ratio` — the hysteresis band stops a tile that
// hovers at the threshold from flapping between decode and skip.
//
// Two failure modes are designed in rather than ignored:
//
//   undersampling miss   a change confined to pixels the detector does not
//                        read is invisible; raising detector_fraction trades
//                        detector cost against miss probability;
//   slow drift           a tile changing by less than the threshold every
//                        frame never wakes, yet can drift arbitrarily far
//                        over time (the frame-to-frame delta is blind to
//                        accumulation).
//
// Both are bounded by the force-refresh period: every tile is re-decoded at
// least once every `force_refresh_period` frames regardless of its detector,
// so no stuck or blind detector can pin a tile stale forever. A forced
// refresh of a quiet tile may run at a sparser sampling fraction than an
// activity-triggered decode (see sparse_fraction) — quiet tiles are cheap to
// keep honest.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "cs/sampling.hpp"
#include "la/matrix.hpp"
#include "runtime/tile_grid.hpp"

namespace flexcs::runtime {

struct ActivityGateOptions {
  // Event-driven mode switch for TileFrontEnd: when false the front end
  // ignores the gate entirely and lists every tile of every frame.
  bool enabled = false;
  // RMS per-measurement y-delta at which a tile wakes. A tile is decoded
  // when energy >= threshold, so threshold 0 marks every tile active on
  // every frame (the differential-test configuration).
  double threshold = 0.02;
  // A woken tile sleeps again only when energy < threshold * ratio. Must be
  // in [0, 1]; ratio 0 means a woken tile never sleeps on its own (energy is
  // non-negative, so `energy < 0` never holds).
  double hysteresis_ratio = 0.5;
  // Every tile is re-decoded at least once every this many frames, counted
  // from its last decode; 0 disables forced refreshes. The first frame ever
  // seen counts as forced for every tile (there is nothing to serve stale).
  std::size_t force_refresh_period = 32;
  // Fraction of each tile's interior pixels the detector reads per frame.
  double detector_fraction = 0.125;
  // Adaptive decode sampling fractions, forwarded per tile through
  // TileJob::sampling_fraction into the worker pipelines:
  //   dense_fraction   activity-triggered decodes; 0 keeps the pipeline's
  //                    configured sampling_fraction,
  //   sparse_fraction  forced refreshes of quiet tiles; 0 falls back to
  //                    dense_fraction (and through it to the pipeline).
  double dense_fraction = 0.0;
  double sparse_fraction = 0.0;
};

/// Per-tile gate decision for one frame.
struct TileActivity {
  bool active = false;  // hysteresis state after this frame's detector read
  bool forced = false;  // decoded by the force-refresh period, not activity
  bool decode = false;  // active || forced
  double energy = 0.0;  // RMS per-measurement y-delta (0 on the first frame)
};

/// One frame's gate pass over the whole grid.
struct FrameActivity {
  std::vector<TileActivity> tiles;  // row-major tile-grid order
  std::size_t decoded = 0;          // tiles listed for decode
  std::size_t skipped = 0;          // tiles served from the previous frame
  std::size_t forced = 0;           // decoded tiles that were forced
};

/// Stateful per-tile change detector over a TileGrid. NOT thread-safe: one
/// gate per TileFrontEnd, updated frame by frame from the executor's caller
/// thread (detector reads are O(tiles * detector_m) gathers — microseconds
/// against the milliseconds of a tile solve).
class ActivityGate {
 public:
  ActivityGate(const TileGrid& grid, ActivityGateOptions opts = {});

  std::size_t tiles() const { return grid_.tiles(); }
  /// The fixed detector pattern of one tile (interior geometry, no halo).
  const cs::SamplingPattern& detector(std::size_t tile) const;

  /// Reads every tile's detector, advances the per-tile hysteresis and
  /// force-refresh state, and returns the per-tile decisions for this frame.
  /// The detector baseline (previous measurements) advances on every frame
  /// for every tile, decoded or not.
  FrameActivity update(const la::Matrix& frame);

  /// The decode sampling fraction a tile decision asks for (0 = pipeline
  /// default): dense for activity-triggered decodes, sparse for forced
  /// refreshes of quiet tiles.
  double decode_fraction(const TileActivity& activity) const;

 private:
  struct TileState {
    bool seen = false;    // baseline valid (at least one frame observed)
    bool active = false;  // hysteresis state
    std::size_t frames_since_decode = 0;
    std::vector<double> baseline;  // previous frame's detector measurements
  };

  TileGrid grid_;
  ActivityGateOptions opts_;
  std::vector<cs::SamplingPattern> detectors_;  // one per tile, fixed
  std::vector<TileState> state_;
};

}  // namespace flexcs::runtime
