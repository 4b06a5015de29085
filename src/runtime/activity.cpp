#include "runtime/activity.hpp"

#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace flexcs::runtime {
namespace {

// Seed of the gate's private RNG (detector patterns only). Independent of
// the decode pipelines' seeds by construction.
constexpr std::uint64_t kDetectorSeed = 0xac7e;

}  // namespace

ActivityGate::ActivityGate(const TileGrid& grid, ActivityGateOptions opts)
    : grid_(grid), opts_(std::move(opts)) {
  FLEXCS_CHECK(opts_.threshold >= 0.0 && std::isfinite(opts_.threshold),
               "activity threshold must be finite and non-negative");
  FLEXCS_CHECK(opts_.hysteresis_ratio >= 0.0 && opts_.hysteresis_ratio <= 1.0,
               "hysteresis ratio must be in [0,1]");
  FLEXCS_CHECK(opts_.detector_fraction > 0.0 && opts_.detector_fraction <= 1.0,
               "detector fraction must be in (0,1]");
  FLEXCS_CHECK(opts_.dense_fraction == 0.0 ||
                   (opts_.dense_fraction > 0.0 && opts_.dense_fraction <= 1.0),
               "dense fraction must be 0 (pipeline default) or in (0,1]");
  FLEXCS_CHECK(
      opts_.sparse_fraction == 0.0 ||
          (opts_.sparse_fraction > 0.0 && opts_.sparse_fraction <= 1.0),
      "sparse fraction must be 0 (dense fallback) or in (0,1]");
  // One fixed detector pattern per tile, all drawn from the gate's private
  // RNG: distinct patterns decorrelate neighbouring tiles' blind spots, and
  // the decode pipelines' random streams are never touched.
  Rng rng(kDetectorSeed);
  detectors_.reserve(grid_.tiles());
  for (std::size_t t = 0; t < grid_.tiles(); ++t)
    detectors_.push_back(cs::random_pattern(grid_.tile_rows, grid_.tile_cols,
                                            opts_.detector_fraction, rng));
  state_.resize(grid_.tiles());
}

const cs::SamplingPattern& ActivityGate::detector(std::size_t tile) const {
  FLEXCS_CHECK(tile < detectors_.size(), "detector: tile outside the grid");
  return detectors_[tile];
}

double ActivityGate::decode_fraction(const TileActivity& activity) const {
  if (activity.active) return opts_.dense_fraction;
  return opts_.sparse_fraction > 0.0 ? opts_.sparse_fraction
                                     : opts_.dense_fraction;
}

FrameActivity ActivityGate::update(const la::Matrix& frame) {
  FLEXCS_CHECK(frame.rows() == grid_.rows && frame.cols() == grid_.cols,
               "activity gate: frame shape mismatch");
  FrameActivity fa;
  fa.tiles.resize(grid_.tiles());

  std::vector<double> current;
  for (std::size_t t = 0; t < grid_.tiles(); ++t) {
    const cs::SamplingPattern& det = detectors_[t];
    const std::size_t r0 = grid_.tile_row(t) * grid_.tile_rows;
    const std::size_t c0 = grid_.tile_col(t) * grid_.tile_cols;
    current.resize(det.m());
    for (std::size_t i = 0; i < det.m(); ++i) {
      const std::size_t idx = det.indices[i];
      current[i] =
          frame(r0 + idx / grid_.tile_cols, c0 + idx % grid_.tile_cols);
    }

    TileState& st = state_[t];
    TileActivity& ta = fa.tiles[t];
    if (!st.seen) {
      // Nothing to serve stale yet: the first frame is a forced decode of
      // every tile, and it seeds the detector baseline.
      ta.forced = true;
      ta.decode = true;
    } else {
      double sq = 0.0;
      for (std::size_t i = 0; i < det.m(); ++i) {
        const double d = current[i] - st.baseline[i];
        sq += d * d;
      }
      ta.energy = std::sqrt(sq / static_cast<double>(det.m()));
      // Hysteresis: wake at the threshold, sleep only below the lower band
      // edge. `>=` makes threshold 0 mean "every tile active every frame",
      // which is what the gated-vs-ungated differential suite runs under.
      if (ta.energy >= opts_.threshold) {
        st.active = true;
      } else if (ta.energy < opts_.threshold * opts_.hysteresis_ratio) {
        st.active = false;
      }
      ta.active = st.active;
      ta.forced = !st.active && opts_.force_refresh_period > 0 &&
                  st.frames_since_decode + 1 >= opts_.force_refresh_period;
      ta.decode = ta.active || ta.forced;
    }

    st.seen = true;
    st.baseline = current;  // baseline advances every frame, decoded or not
    st.frames_since_decode = ta.decode ? 0 : st.frames_since_decode + 1;

    if (ta.decode) {
      ++fa.decoded;
      if (ta.forced) ++fa.forced;
    } else {
      ++fa.skipped;
    }
  }
  return fa;
}

}  // namespace flexcs::runtime
