// Event-driven sparse readout: the ActivityGate change detector, the
// TileGrid geometry it rides on, the TileFrontEnd both executors share, and
// the gated ShardedDecoder path.
//
// The load-bearing suites are differential: with the wake threshold at 0 the
// gate marks every tile active on every frame, so the gated decoder must be
// BIT-IDENTICAL to the ungated one — same pixels, same reports — under plain
// decode, injected measurement faults, pre-expired deadlines, and
// multi-frame calls (workers=1 pins the tile→worker assignment, which is what
// makes bit-exactness well-defined). Conversely, a tile whose measurements did not
// change must never be re-decoded: its served pixels are EXPECT_EQ'd against
// the previous reconstruction, bit for bit.
#include "runtime/activity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/decoder.hpp"
#include "cs/faults.hpp"
#include "cs/metrics.hpp"
#include "cs/sampling.hpp"
#include "data/thermal.hpp"
#include "la/matrix.hpp"
#include "runtime/service.hpp"
#include "runtime/shard.hpp"
#include "runtime/tile_grid.hpp"
#include "solvers/fista.hpp"

namespace flexcs::runtime {
namespace {

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

la::Matrix noise_frame(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform();
  return m;
}

// Bitwise frame equality: the stale-serving and threshold-0 differential
// contracts are exact, not approximate.
void expect_bit_identical(const la::Matrix& a, const la::Matrix& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << ": pixel " << i << " differs";
}

// Bitwise equality of one tile's interior between two full frames.
void expect_tile_bit_identical(const TileGrid& grid, std::size_t tile,
                               const la::Matrix& a, const la::Matrix& b) {
  const std::size_t r0 = grid.tile_row(tile) * grid.tile_rows;
  const std::size_t c0 = grid.tile_col(tile) * grid.tile_cols;
  for (std::size_t i = 0; i < grid.tile_rows; ++i)
    for (std::size_t j = 0; j < grid.tile_cols; ++j)
      ASSERT_EQ(a(r0 + i, c0 + j), b(r0 + i, c0 + j))
          << "tile " << tile << " pixel (" << i << "," << j << ")";
}

ShardOptions shard_options(std::size_t tile, std::size_t halo,
                           std::size_t workers) {
  ShardOptions opts;
  opts.tile_rows = opts.tile_cols = tile;
  opts.halo = halo;
  opts.stream.workers = workers;
  opts.stream.solver = fista();
  return opts;
}

// ---------------------------------------------------------------------------
// ActivityGate: detector, hysteresis, force refresh

TEST(ActivityGate, FirstFrameForcesEveryTile) {
  const TileGrid grid(16, 16, 8, 8, 0);
  ActivityGateOptions opts;
  opts.threshold = 0.05;
  ActivityGate gate(grid, opts);
  const FrameActivity fa = gate.update(thermal_frame(16, 3));
  ASSERT_EQ(fa.tiles.size(), 4u);
  EXPECT_EQ(fa.decoded, 4u);
  EXPECT_EQ(fa.forced, 4u);
  EXPECT_EQ(fa.skipped, 0u);
  for (const TileActivity& ta : fa.tiles) {
    EXPECT_TRUE(ta.forced);
    EXPECT_TRUE(ta.decode);
    EXPECT_FALSE(ta.active);  // forced by novelty, not woken by energy
    EXPECT_EQ(ta.energy, 0.0);
  }
}

TEST(ActivityGate, StaticSceneSkipsEverythingAfterTheFirstFrame) {
  const TileGrid grid(16, 16, 8, 8, 0);
  ActivityGateOptions opts;
  opts.threshold = 0.05;
  opts.force_refresh_period = 0;  // nothing but activity can trigger
  ActivityGate gate(grid, opts);
  const la::Matrix frame = thermal_frame(16, 3);
  gate.update(frame);
  for (int rep = 0; rep < 3; ++rep) {
    const FrameActivity fa = gate.update(frame);
    EXPECT_EQ(fa.decoded, 0u) << "repeat " << rep;
    EXPECT_EQ(fa.skipped, 4u);
    for (const TileActivity& ta : fa.tiles) EXPECT_EQ(ta.energy, 0.0);
  }
}

TEST(ActivityGate, ChangedTilesWakeUnchangedTilesSleep) {
  // Property: with the detector reading EVERY interior pixel, a perturbed
  // tile must decode and a bit-identical tile must not — across random
  // geometries and random perturbation subsets.
  Rng pick(0xf00d);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t tile_rows = 2 + 2 * pick.uniform_index(3);  // 2/4/6
    const std::size_t tile_cols = 2 + 2 * pick.uniform_index(3);
    const std::size_t grid_rows = 1 + pick.uniform_index(3);
    const std::size_t grid_cols = 1 + pick.uniform_index(3);
    const TileGrid grid(grid_rows * tile_rows, grid_cols * tile_cols,
                        tile_rows, tile_cols, pick.uniform_index(3));
    ActivityGateOptions opts;
    opts.threshold = 0.05;
    opts.detector_fraction = 1.0;  // no undersampling misses
    opts.force_refresh_period = 0;
    ActivityGate gate(grid, opts);

    const la::Matrix base =
        noise_frame(grid.rows, grid.cols, 100 + static_cast<std::uint64_t>(trial));
    gate.update(base);

    la::Matrix next = base;
    std::vector<bool> perturbed(grid.tiles(), false);
    for (std::size_t t = 0; t < grid.tiles(); ++t) {
      if (!pick.bernoulli(0.5)) continue;
      perturbed[t] = true;
      const std::size_t r0 = grid.tile_row(t) * tile_rows;
      const std::size_t c0 = grid.tile_col(t) * tile_cols;
      for (std::size_t i = 0; i < tile_rows; ++i)
        for (std::size_t j = 0; j < tile_cols; ++j)
          next(r0 + i, c0 + j) = 1.0 - next(r0 + i, c0 + j) * 0.5;
    }

    const FrameActivity fa = gate.update(next);
    for (std::size_t t = 0; t < grid.tiles(); ++t) {
      if (perturbed[t]) {
        EXPECT_TRUE(fa.tiles[t].decode) << "trial " << trial << " tile " << t;
        EXPECT_GE(fa.tiles[t].energy, opts.threshold);
      } else {
        // Bit-identical measurements: never re-decoded.
        EXPECT_FALSE(fa.tiles[t].decode) << "trial " << trial << " tile " << t;
        EXPECT_EQ(fa.tiles[t].energy, 0.0);
      }
    }
  }
}

TEST(ActivityGate, HysteresisEdgesArePinnedBitExactly) {
  // One 2x2 tile, detector over all 4 pixels, exactly one pixel changing by
  // a power of two per frame: the RMS energy d/sqrt(4) = d/2 is exact in
  // floating point, so the >= wake edge and the < sleep edge are pinned with
  // no tolerance.
  const TileGrid grid(2, 2, 2, 2, 0);
  ActivityGateOptions opts;
  opts.threshold = 0.125;
  opts.hysteresis_ratio = 0.5;  // sleep edge at 0.0625 exactly
  opts.detector_fraction = 1.0;
  opts.force_refresh_period = 0;
  ActivityGate gate(grid, opts);

  la::Matrix frame(2, 2, 0.5);
  gate.update(frame);  // seeds the baseline (forced)

  // Energy exactly AT the threshold wakes (>=, not >).
  frame(0, 0) += 0.25;  // energy = 0.25 / 2 = 0.125 == threshold
  FrameActivity fa = gate.update(frame);
  EXPECT_EQ(fa.tiles[0].energy, 0.125);
  EXPECT_TRUE(fa.tiles[0].active);
  EXPECT_TRUE(fa.tiles[0].decode);

  // Energy inside the band [threshold*ratio, threshold) holds it awake.
  frame(0, 0) += 0.1875;  // energy = 0.09375, in [0.0625, 0.125)
  fa = gate.update(frame);
  EXPECT_EQ(fa.tiles[0].energy, 0.09375);
  EXPECT_TRUE(fa.tiles[0].active);

  // Energy exactly AT the sleep edge still holds it awake (<, not <=).
  frame(0, 0) += 0.125;  // energy = 0.0625 == threshold * ratio
  fa = gate.update(frame);
  EXPECT_EQ(fa.tiles[0].energy, 0.0625);
  EXPECT_TRUE(fa.tiles[0].active);

  // Energy below the sleep edge puts it to sleep.
  frame(0, 0) += 0.0625;  // energy = 0.03125 < 0.0625
  fa = gate.update(frame);
  EXPECT_EQ(fa.tiles[0].energy, 0.03125);
  EXPECT_FALSE(fa.tiles[0].active);
  EXPECT_FALSE(fa.tiles[0].decode);

  // And a sleeping tile needs the full threshold to wake again: the band
  // that held it awake is not enough from below.
  frame(0, 0) += 0.1875;  // energy = 0.09375 < 0.125: stays asleep
  fa = gate.update(frame);
  EXPECT_EQ(fa.tiles[0].energy, 0.09375);
  EXPECT_FALSE(fa.tiles[0].active);
}

TEST(ActivityGate, ForceRefreshPeriodBoundsStaleness) {
  const TileGrid grid(8, 8, 8, 8, 0);
  ActivityGateOptions opts;
  opts.threshold = 0.05;
  opts.force_refresh_period = 3;
  ActivityGate gate(grid, opts);
  const la::Matrix frame(8, 8, 0.5);  // static forever

  // Frame 1 is forced (first ever); then every 3rd frame after a decode.
  const bool expect_decode[] = {true, false, false, true, false, false, true};
  for (std::size_t f = 0; f < 7; ++f) {
    const FrameActivity fa = gate.update(frame);
    EXPECT_EQ(fa.tiles[0].decode, expect_decode[f]) << "frame " << f;
    EXPECT_EQ(fa.tiles[0].forced, expect_decode[f]) << "frame " << f;
  }

  // Period 0 disables the clock: after the first frame, a static scene is
  // never decoded again.
  ActivityGateOptions never = opts;
  never.force_refresh_period = 0;
  ActivityGate gate2(grid, never);
  gate2.update(frame);
  for (int f = 0; f < 5; ++f)
    EXPECT_FALSE(gate2.update(frame).tiles[0].decode);
}

TEST(ActivityGate, ActivityDecodeResetsTheRefreshClock) {
  const TileGrid grid(2, 2, 2, 2, 0);
  ActivityGateOptions opts;
  opts.threshold = 0.1;
  opts.detector_fraction = 1.0;
  opts.force_refresh_period = 3;
  ActivityGate gate(grid, opts);

  la::Matrix frame(2, 2, 0.2);
  gate.update(frame);                              // frame 1: forced
  EXPECT_FALSE(gate.update(frame).tiles[0].decode);  // frame 2: quiet
  frame(0, 0) = 0.9;                               // big change
  const FrameActivity woke = gate.update(frame);   // frame 3: activity decode
  EXPECT_TRUE(woke.tiles[0].decode);
  EXPECT_FALSE(woke.tiles[0].forced);  // woken, not clocked
  // The activity decode reset frames_since_decode, so the next forced
  // refresh is 3 frames out, not immediately.
  FrameActivity fa = gate.update(frame);  // frame 4 (energy back to 0, sleeps)
  EXPECT_FALSE(fa.tiles[0].decode);
  fa = gate.update(frame);  // frame 5
  EXPECT_FALSE(fa.tiles[0].decode);
  fa = gate.update(frame);  // frame 6: 3 frames since the activity decode
  EXPECT_TRUE(fa.tiles[0].decode);
  EXPECT_TRUE(fa.tiles[0].forced);
}

TEST(ActivityGate, DecodeFractionFollowsActivity) {
  const TileGrid grid(8, 8, 8, 8, 0);
  ActivityGateOptions opts;
  opts.dense_fraction = 0.6;
  opts.sparse_fraction = 0.2;
  const ActivityGate gate(grid, opts);
  TileActivity active;
  active.active = true;
  TileActivity forced;
  forced.forced = true;
  EXPECT_EQ(gate.decode_fraction(active), 0.6);
  EXPECT_EQ(gate.decode_fraction(forced), 0.2);

  ActivityGateOptions dense_only = opts;
  dense_only.sparse_fraction = 0.0;  // forced refresh falls back to dense
  EXPECT_EQ(ActivityGate(grid, dense_only).decode_fraction(forced), 0.6);
  ActivityGateOptions defaults;
  EXPECT_EQ(ActivityGate(grid, defaults).decode_fraction(active), 0.0);
  EXPECT_EQ(ActivityGate(grid, defaults).decode_fraction(forced), 0.0);
}

TEST(ActivityGate, ValidatesOptionsAndShapes) {
  const TileGrid grid(8, 8, 4, 4, 0);
  {
    ActivityGateOptions o;
    o.threshold = -0.1;
    EXPECT_THROW(ActivityGate(grid, o), CheckError);
  }
  {
    ActivityGateOptions o;
    o.hysteresis_ratio = 1.5;
    EXPECT_THROW(ActivityGate(grid, o), CheckError);
  }
  {
    ActivityGateOptions o;
    o.detector_fraction = 0.0;
    EXPECT_THROW(ActivityGate(grid, o), CheckError);
  }
  {
    ActivityGateOptions o;
    o.dense_fraction = 1.5;
    EXPECT_THROW(ActivityGate(grid, o), CheckError);
  }
  {
    ActivityGateOptions o;
    o.sparse_fraction = -0.5;
    EXPECT_THROW(ActivityGate(grid, o), CheckError);
  }
  ActivityGate gate(grid);
  EXPECT_THROW(gate.update(la::Matrix(4, 4)), CheckError);  // shape mismatch
  EXPECT_THROW(gate.detector(99), CheckError);
  EXPECT_EQ(gate.tiles(), 4u);
  // Detector patterns live in the tile interior geometry.
  EXPECT_EQ(gate.detector(0).rows, 4u);
  EXPECT_EQ(gate.detector(0).cols, 4u);
}

// ---------------------------------------------------------------------------
// TileGrid geometry

TEST(TileGrid, RandomGeometryExtractStitchRoundTrip) {
  Rng pick(0x9e0);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t tile_rows = 1 + pick.uniform_index(6);
    const std::size_t tile_cols = 1 + pick.uniform_index(6);
    const std::size_t grid_rows = 1 + pick.uniform_index(4);
    const std::size_t grid_cols = 1 + pick.uniform_index(4);
    const std::size_t halo = pick.uniform_index(4);
    const TileGrid grid(grid_rows * tile_rows, grid_cols * tile_cols,
                        tile_rows, tile_cols, halo);
    EXPECT_EQ(grid.tiles(), grid_rows * grid_cols);
    EXPECT_EQ(grid.padded_rows, tile_rows + 2 * halo);
    EXPECT_EQ(grid.padded_cols, tile_cols + 2 * halo);

    const la::Matrix frame =
        noise_frame(grid.rows, grid.cols, 50 + static_cast<std::uint64_t>(trial));
    la::Matrix rebuilt(grid.rows, grid.cols, -1.0);
    for (std::size_t t = 0; t < grid.tiles(); ++t) {
      const la::Matrix padded = grid.extract(frame, t);
      ASSERT_EQ(padded.rows(), grid.padded_rows);
      ASSERT_EQ(padded.cols(), grid.padded_cols);
      // Halo replication: every padded pixel is the frame pixel at the
      // clamped source coordinate.
      const std::ptrdiff_t r0 =
          static_cast<std::ptrdiff_t>(grid.tile_row(t) * tile_rows);
      const std::ptrdiff_t c0 =
          static_cast<std::ptrdiff_t>(grid.tile_col(t) * tile_cols);
      const std::ptrdiff_t h = static_cast<std::ptrdiff_t>(halo);
      for (std::size_t i = 0; i < grid.padded_rows; ++i) {
        for (std::size_t j = 0; j < grid.padded_cols; ++j) {
          std::ptrdiff_t sr = r0 + static_cast<std::ptrdiff_t>(i) - h;
          std::ptrdiff_t sc = c0 + static_cast<std::ptrdiff_t>(j) - h;
          sr = std::max<std::ptrdiff_t>(
              0, std::min(sr, static_cast<std::ptrdiff_t>(grid.rows) - 1));
          sc = std::max<std::ptrdiff_t>(
              0, std::min(sc, static_cast<std::ptrdiff_t>(grid.cols) - 1));
          ASSERT_EQ(padded(i, j), frame(static_cast<std::size_t>(sr),
                                        static_cast<std::size_t>(sc)))
              << "trial " << trial << " tile " << t;
        }
      }
      grid.stitch(padded, t, rebuilt);
    }
    // Stitching every extracted tile reproduces the frame bit for bit (and
    // covers it completely: no -1 sentinel survives).
    expect_bit_identical(frame, rebuilt, "extract/stitch round trip");
  }
}

TEST(TileGrid, CopyInteriorCopiesExactlyTheTileRect) {
  const TileGrid grid(12, 8, 4, 4, 2);
  const la::Matrix src = noise_frame(12, 8, 21);
  const la::Matrix dst_before = noise_frame(12, 8, 22);
  for (std::size_t t = 0; t < grid.tiles(); ++t) {
    la::Matrix dst = dst_before;
    grid.copy_interior(src, t, dst);
    const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
    const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
    for (std::size_t r = 0; r < grid.rows; ++r) {
      for (std::size_t c = 0; c < grid.cols; ++c) {
        const bool inside = r >= r0 && r < r0 + grid.tile_rows && c >= c0 &&
                            c < c0 + grid.tile_cols;
        ASSERT_EQ(dst(r, c), inside ? src(r, c) : dst_before(r, c))
            << "tile " << t << " pixel (" << r << "," << c << ")";
      }
    }
  }
}

TEST(TileGrid, ValidatesGeometry) {
  EXPECT_THROW(TileGrid(30, 30, 16, 16, 2), CheckError);  // not divisible
  EXPECT_THROW(TileGrid(8, 8, 16, 16, 2), CheckError);    // tile > array
  EXPECT_THROW(TileGrid(8, 8, 0, 4, 0), CheckError);      // empty tile
  const TileGrid grid(8, 8, 4, 4, 1);
  la::Matrix full(8, 8), wrong(4, 4);
  EXPECT_THROW(grid.extract(wrong, 0), CheckError);
  EXPECT_THROW(grid.extract(full, 4), CheckError);  // tile out of range
  EXPECT_THROW(grid.copy_interior(wrong, 0, full), CheckError);
  EXPECT_THROW(grid.copy_interior(full, 0, wrong), CheckError);
  EXPECT_THROW(grid.stitch(la::Matrix(5, 5), 0, full), CheckError);
}

// ---------------------------------------------------------------------------
// TileFrontEnd: the frame half of both executors, driven without a solver

// Runs one frame through `front`, "decoding" each listed tile by scaling its
// padded pixels by `gain` and reporting `defect_rate` as its estimate.
ShardFrameResult run_front_end_frame(TileFrontEnd& front,
                                     const la::Matrix& frame,
                                     double gain = 1.0,
                                     double defect_rate = 0.0) {
  for (const TileJob& job : front.begin(frame)) {
    la::Matrix padded = front.extract(job.tile);
    for (std::size_t i = 0; i < padded.size(); ++i) padded.data()[i] *= gain;
    RecoveryReport report;
    report.estimated_defect_rate = defect_rate;
    front.complete(job.tile, padded, report);
  }
  return front.finish();
}

TEST(TileFrontEnd, IdentityDecodeRoundTripsTheFrameAtEveryHalo) {
  const la::Matrix frame = noise_frame(12, 16, 41);
  for (const std::size_t halo : {0u, 2u}) {
    TileFrontEnd front(TileGrid(12, 16, 4, 8, halo));
    const ShardFrameResult res = run_front_end_frame(front, frame);
    expect_bit_identical(res.frame, frame, "identity round trip");
    EXPECT_EQ(res.report.tiles, 6u);
    ASSERT_EQ(res.report.tile_reports.size(), 6u);
    for (std::size_t t = 0; t < 6; ++t) {
      EXPECT_EQ(res.report.tile_reports[t].tile_row, t / 2);
      EXPECT_EQ(res.report.tile_reports[t].tile_col, t % 2);
      EXPECT_FALSE(res.report.tile_reports[t].served_stale);
    }
    EXPECT_TRUE(res.report.activity.empty());  // the gate is off
  }
}

TEST(TileFrontEnd, GatedStaticSceneListsNoJobsAndServesThePreviousFrame) {
  ActivityGateOptions gate;
  gate.enabled = true;
  gate.detector_fraction = 1.0;
  gate.force_refresh_period = 0;
  TileFrontEnd front(TileGrid(16, 16, 8, 8, 2), gate);
  const la::Matrix frame = noise_frame(16, 16, 42);

  // The first frame forces every tile; a non-identity "decode" makes the
  // served pixels differ from the input, so serving them is observable.
  const ShardFrameResult first = run_front_end_frame(front, frame, 0.5);
  EXPECT_EQ(first.report.tiles_forced, 4u);
  for (int f = 0; f < 2; ++f) {
    EXPECT_TRUE(front.begin(frame).empty());
    EXPECT_EQ(front.outstanding(), 0u);
    const ShardFrameResult res = front.finish();
    expect_bit_identical(res.frame, first.frame, "static scene");
    EXPECT_EQ(res.report.tiles_skipped, 4u);
    for (const TileReport& t : res.report.tile_reports) {
      EXPECT_TRUE(t.served_stale);
      EXPECT_EQ(t.report.decode_calls, 0);
    }
  }
  StreamHealth h;
  front.overlay_gate_counts(h);
  EXPECT_EQ(h.tiles_skipped, 8u);
  EXPECT_EQ(h.tiles_refreshed, 4u);
  EXPECT_EQ(h.tiles_forced, 4u);
}

TEST(TileFrontEnd, CompleteAcceptsEachListedTileOnce) {
  const la::Matrix frame = noise_frame(8, 8, 43);
  TileFrontEnd front(TileGrid(8, 8, 4, 4, 1));
  front.begin(frame);
  const la::Matrix padded = front.extract(0);
  front.complete(0, padded, {});
  EXPECT_THROW(front.complete(0, padded, {}), CheckError);  // twice
  EXPECT_THROW(front.complete(4, padded, {}), CheckError);  // off the grid
  EXPECT_EQ(front.outstanding(), 3u);

  // With the gate on, a static frame lists no jobs: completing any tile is
  // completing a tile that is not in the job list.
  ActivityGateOptions gate;
  gate.enabled = true;
  gate.force_refresh_period = 0;
  TileFrontEnd gated(TileGrid(8, 8, 4, 4, 1), gate);
  run_front_end_frame(gated, frame);
  ASSERT_TRUE(gated.begin(frame).empty());
  EXPECT_THROW(gated.complete(2, gated.extract(2), {}), CheckError);
}

TEST(TileFrontEnd, FinishRejectsAFrameWithAMissingTile) {
  const la::Matrix frame = noise_frame(8, 8, 44);
  TileFrontEnd front(TileGrid(8, 8, 4, 4, 0));
  const std::vector<TileJob>& jobs = front.begin(frame);
  ASSERT_EQ(jobs.size(), 4u);
  for (std::size_t k = 0; k + 1 < jobs.size(); ++k)
    front.complete(jobs[k].tile, front.extract(jobs[k].tile), {});
  EXPECT_THROW(front.finish(), CheckError);
  EXPECT_THROW(front.begin(la::Matrix(8, 4)), CheckError);  // frame shape
}

TEST(TileFrontEnd, FrameIndexCountsBeginCalls) {
  const la::Matrix frame = noise_frame(8, 8, 45);
  TileFrontEnd front(TileGrid(8, 8, 8, 8, 0));
  for (std::size_t f = 0; f < 4; ++f) {
    // Counted whether or not the frame runs to finish().
    if (f % 2 == 0) {
      run_front_end_frame(front, frame);
    } else {
      front.begin(frame);
    }
    EXPECT_EQ(front.frame_index(), f);
  }
}

TEST(TileFrontEnd, DefectRateEwmaIsPerTileAndCarriedByStaleTiles) {
  // Tile 0 is decoded every frame; the gate serves tile 1 stale after the
  // first frame, so its estimate must stay at that frame's value.
  ActivityGateOptions gate;
  gate.enabled = true;
  gate.detector_fraction = 1.0;
  gate.force_refresh_period = 0;
  TileFrontEnd front(TileGrid(4, 8, 4, 4, 0), gate);
  la::Matrix frame = noise_frame(4, 8, 46);

  // 0.2, then decays by 0.7 per frame: 0.14, 0.098, 0.0686, 0.048 — the
  // last one back under the drift threshold.
  const double rates[] = {0.2, 0.0, 0.0, 0.0, 0.0};
  double expected = 0.0;
  for (std::size_t f = 0; f < 5; ++f) {
    for (std::size_t i = 0; i < 4; ++i) frame(i, 0) += 1.0;  // wakes tile 0
    const ShardFrameResult res =
        run_front_end_frame(front, frame, 1.0, rates[f]);
    expected = f == 0 ? rates[f] : 0.7 * expected + 0.3 * rates[f];
    const TileReport& live = res.report.tile_reports[0];
    const TileReport& quiet = res.report.tile_reports[1];
    EXPECT_FALSE(live.served_stale);
    EXPECT_DOUBLE_EQ(live.defect_rate_ewma, expected) << "frame " << f;
    EXPECT_EQ(live.drift_detected, expected > 0.05) << "frame " << f;
    EXPECT_EQ(quiet.served_stale, f > 0);
    EXPECT_EQ(quiet.defect_rate_ewma, 0.2) << "frame " << f;
    EXPECT_TRUE(quiet.drift_detected) << "frame " << f;
  }
}

TEST(TileFrontEnd, DefectRateEwmaDetectsDrift) {
  // One 16x16 tile decoded by a real pipeline: a healthy frame first, then
  // the array degrades to 10 % stuck pixels, and the tile's defect-rate
  // estimate pushes its EWMA over the drift threshold within a few frames.
  RobustPipelineOptions opts;
  opts.max_rung = Strategy::kTrimmedDecode;  // cheap, still estimates defects
  RobustPipeline pipe(16, 16, opts, fista());
  TileFrontEnd front(TileGrid(16, 16, 16, 16, 0));

  const la::Matrix truth = thermal_frame(16, 7);
  const la::Matrix corrupted =
      cs::FaultScenario(
          {cs::StuckPixelFault{0.10, cs::DefectPolarity::kRandom, 99}})
          .corrupt_frame(truth, 0)
          .values;
  Rng rng(11);
  const auto decode = [&](const la::Matrix& frame) {
    front.begin(frame);
    RobustPipeline::FrameResult r =
        pipe.process(front.extract(0), front.frame_index(), rng);
    front.complete(0, r.frame, std::move(r.report));
    return front.finish().report.tile_reports[0];
  };

  const TileReport healthy = decode(truth);
  EXPECT_FALSE(healthy.drift_detected);
  bool drifted = false;
  for (int f = 1; f <= 5; ++f) {
    const TileReport t = decode(corrupted);
    EXPECT_GT(t.report.suspected_defect_count, 0u);
    EXPECT_GT(t.defect_rate_ewma, healthy.defect_rate_ewma);
    drifted = t.drift_detected;
  }
  EXPECT_TRUE(drifted);
}

// A 32x32 thermal scene whose bottom-right 16x16 tile (tile 3) has 10 % of
// its pixels stuck high, far from the scene's values, so the suspect screen
// sees them; the other three tiles are clean.
la::Matrix one_stuck_tile_frame(std::uint64_t seed) {
  const la::Matrix clean = thermal_frame(32, seed);
  const la::Matrix stuck =
      cs::FaultScenario(
          {cs::StuckPixelFault{0.10, cs::DefectPolarity::kStuckHigh, 99}})
          .corrupt_frame(clean, 0)
          .values;
  la::Matrix out = clean;
  for (std::size_t i = 16; i < 32; ++i)
    for (std::size_t j = 16; j < 32; ++j) out(i, j) = stuck(i, j);
  return out;
}

// The per-tile defect-rate EWMA after each frame of the stuck-tile scene,
// appended to `trace`. The executor must cut the frame into 4 16x16 tiles.
template <typename Executor>
void drift_trace(Executor& exec, std::vector<std::vector<double>>& trace) {
  for (std::uint64_t f = 0; f < 4; ++f) {
    const ShardReport report = exec.process(one_stuck_tile_frame(7 + f)).report;
    ASSERT_EQ(report.tile_reports.size(), 4u);
    std::vector<double> ewma;
    for (const TileReport& t : report.tile_reports) {
      EXPECT_EQ(t.drift_detected, t.defect_rate_ewma > 0.05);
      ewma.push_back(t.defect_rate_ewma);
    }
    // Only the stuck tile drifts, on every frame.
    for (std::size_t t = 0; t < 3; ++t)
      EXPECT_FALSE(report.tile_reports[t].drift_detected)
          << "clean tile " << t << " frame " << f;
    EXPECT_TRUE(report.tile_reports[3].drift_detected) << "frame " << f;
    trace.push_back(std::move(ewma));
  }
}

TEST(TileFrontEnd, DriftIsPerTileAndIndependentOfWorkerCount) {
  constexpr std::size_t kDim = 32;
  std::vector<std::vector<std::vector<double>>> sharded;
  for (const std::size_t workers : {1u, 3u}) {
    // Halo 0: a clean tile's halo would otherwise reach into the stuck one.
    ShardedDecoder decoder(kDim, kDim, shard_options(16, 0, workers));
    drift_trace(decoder, sharded.emplace_back());
  }
  EXPECT_EQ(sharded[0], sharded[1]);  // bit-exact, not approximate

  std::vector<std::vector<std::vector<double>>> served;
  for (const std::size_t workers : {0u, 2u}) {
    ServiceOptions opts;
    opts.tile_rows = opts.tile_cols = 16;
    opts.halo = 0;
    opts.workers = workers;
    opts.solver = fista();
    DecodeService service(kDim, kDim, opts);
    drift_trace(service, served.emplace_back());
  }
  EXPECT_EQ(served[0], served[1]);
}

// ---------------------------------------------------------------------------
// Gated ShardedDecoder: stale serving + counters

TEST(EventDrivenShard, QuietTilesServedBitIdenticalWithCounters) {
  constexpr std::size_t kDim = 16;
  ShardOptions opts = shard_options(8, 0, 2);
  opts.gate.enabled = true;
  opts.gate.threshold = 0.05;
  opts.gate.detector_fraction = 1.0;  // no blind spots in this test
  opts.gate.force_refresh_period = 0;
  ShardedDecoder sharded(kDim, kDim, opts);

  const la::Matrix f0 = thermal_frame(kDim, 7);
  la::Matrix f1 = f0;
  {  // tile 3 (bottom-right 8x8) changes hard; tiles 0-2 stay bit-identical
    for (std::size_t i = 8; i < 16; ++i)
      for (std::size_t j = 8; j < 16; ++j) f1(i, j) = 1.0 - 0.5 * f1(i, j);
  }

  const ShardFrameResult res0 = sharded.process(f0);
  EXPECT_EQ(res0.report.tiles_refreshed, 4u);  // first frame: all forced
  EXPECT_EQ(res0.report.tiles_forced, 4u);
  EXPECT_EQ(res0.report.tiles_skipped, 0u);
  ASSERT_EQ(res0.report.activity.size(), 4u);

  const ShardFrameResult res1 = sharded.process(f1);
  EXPECT_EQ(res1.report.tiles_skipped, 3u);
  EXPECT_EQ(res1.report.tiles_refreshed, 1u);
  EXPECT_EQ(res1.report.tiles_forced, 0u);
  ASSERT_EQ(res1.report.activity.size(), 4u);
  EXPECT_TRUE(res1.report.activity[3].decode);
  EXPECT_GE(res1.report.activity[3].energy, opts.gate.threshold);

  for (std::size_t t = 0; t < 3; ++t) {
    // Above-threshold tiles always decode; bit-identical tiles never do —
    // their pixels come verbatim from the previous reconstruction.
    EXPECT_FALSE(res1.report.activity[t].decode) << "tile " << t;
    EXPECT_EQ(res1.report.activity[t].energy, 0.0);
    EXPECT_TRUE(res1.report.tile_reports[t].served_stale);
    EXPECT_EQ(res1.report.tile_reports[t].report.decode_calls, 0);
    expect_tile_bit_identical(sharded.grid(), t, res1.frame, res0.frame);
  }
  EXPECT_FALSE(res1.report.tile_reports[3].served_stale);
  EXPECT_GT(res1.report.tile_reports[3].report.decode_calls, 0);
  // Per-frame decode counters cover only the decoded tile.
  EXPECT_EQ(res1.report.decode_calls,
            res1.report.tile_reports[3].report.decode_calls);
  EXPECT_LE(res1.report.tiles_accepted, 1u);
  // The decoded tile still reconstructs its (changed) content.
  EXPECT_LT(cs::rmse(res1.frame, f1), 0.12);

  // Cumulative gate counters surface through health().
  const StreamHealth h = sharded.health();
  EXPECT_EQ(h.tiles_skipped, 3u);
  EXPECT_EQ(h.tiles_refreshed, 5u);
  EXPECT_EQ(h.tiles_forced, 4u);
  EXPECT_EQ(h.completed, 5u);  // only decoded tiles ever hit the pool
}

TEST(EventDrivenShard, StalenessChainsAcrossFramesUntilRefresh) {
  // A tile that stays quiet for several frames keeps serving the SAME bits
  // (chained through each frame's reconstruction), then a forced refresh
  // replaces them with a fresh decode.
  constexpr std::size_t kDim = 16;
  ShardOptions opts = shard_options(8, 0, 1);
  opts.gate.enabled = true;
  opts.gate.threshold = 0.05;
  opts.gate.detector_fraction = 1.0;
  opts.gate.force_refresh_period = 3;
  ShardedDecoder sharded(kDim, kDim, opts);

  const la::Matrix frame = thermal_frame(kDim, 7);
  const ShardFrameResult res0 = sharded.process(frame);  // all forced
  const ShardFrameResult res1 = sharded.process(frame);  // all skipped
  const ShardFrameResult res2 = sharded.process(frame);  // all skipped
  const ShardFrameResult res3 = sharded.process(frame);  // all forced again
  EXPECT_EQ(res1.report.tiles_skipped, 4u);
  EXPECT_EQ(res2.report.tiles_skipped, 4u);
  expect_bit_identical(res1.frame, res0.frame, "first stale frame");
  expect_bit_identical(res2.frame, res0.frame, "chained stale frame");
  EXPECT_EQ(res3.report.tiles_forced, 4u);
  EXPECT_EQ(res3.report.tiles_skipped, 0u);
  for (const TileReport& t : res3.report.tile_reports)
    EXPECT_FALSE(t.served_stale);
}

// ---------------------------------------------------------------------------
// Differential suite: gated threshold-0 ≡ ungated, bit for bit

// With the wake threshold at 0 every tile decodes every frame at the default
// sampling fraction, and each tile decode seeds from its stable tile id, so
// the gated decoder must draw the same patterns as the ungated one — pixels
// and reports come out bit-identical.
void expect_reports_equal(const ShardReport& gated, const ShardReport& plain) {
  EXPECT_EQ(gated.tiles, plain.tiles);
  EXPECT_EQ(gated.tiles_accepted, plain.tiles_accepted);
  EXPECT_EQ(gated.decode_calls, plain.decode_calls);
  EXPECT_EQ(gated.deadline_expired, plain.deadline_expired);
  EXPECT_EQ(gated.budget_exhausted, plain.budget_exhausted);
  EXPECT_EQ(gated.max_rel_residual, plain.max_rel_residual);  // bit-exact
  ASSERT_EQ(gated.tile_reports.size(), plain.tile_reports.size());
  for (std::size_t t = 0; t < gated.tile_reports.size(); ++t) {
    EXPECT_FALSE(gated.tile_reports[t].served_stale);
    EXPECT_EQ(gated.tile_reports[t].report.decode_calls,
              plain.tile_reports[t].report.decode_calls);
    EXPECT_EQ(gated.tile_reports[t].report.accepted,
              plain.tile_reports[t].report.accepted);
    EXPECT_EQ(gated.tile_reports[t].report.rel_residual,
              plain.tile_reports[t].report.rel_residual);
  }
}

ShardOptions gated_zero_threshold(ShardOptions base) {
  base.gate.enabled = true;
  base.gate.threshold = 0.0;  // every tile active on every frame
  return base;
}

TEST(EventDrivenShard, ThresholdZeroIsBitIdenticalToUngated) {
  constexpr std::size_t kDim = 16;
  const ShardOptions plain_opts = shard_options(8, 2, 1);
  ShardedDecoder plain(kDim, kDim, plain_opts);
  ShardedDecoder gated(kDim, kDim, gated_zero_threshold(plain_opts));

  for (std::uint64_t s = 1; s <= 3; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ShardFrameResult pr = plain.process(frame);
    const ShardFrameResult gr = gated.process(frame);
    expect_bit_identical(gr.frame, pr.frame, "threshold-0 frame");
    expect_reports_equal(gr.report, pr.report);
    EXPECT_EQ(gr.report.tiles_skipped, 0u);
    EXPECT_EQ(gr.report.tiles_refreshed, 4u);
  }
}

TEST(EventDrivenShard, ThresholdZeroBitIdenticalUnderMeasurementFaults) {
  constexpr std::size_t kDim = 16;
  ShardOptions base = shard_options(8, 0, 1);
  cs::AdcSaturationFault sat;
  sat.lo = 0.1;
  sat.hi = 0.9;
  base.stream.pipeline.measurement_faults.add(sat);
  base.stream.pipeline.measurement_faults.add(
      cs::DroppedMeasurementFault{0.1, 5});
  ShardedDecoder plain(kDim, kDim, base);
  ShardedDecoder gated(kDim, kDim, gated_zero_threshold(base));

  for (std::uint64_t s = 1; s <= 2; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ShardFrameResult pr = plain.process(frame);
    const ShardFrameResult gr = gated.process(frame);
    expect_bit_identical(gr.frame, pr.frame, "faulted threshold-0 frame");
    expect_reports_equal(gr.report, pr.report);
    // The fault channel actually fired (the comparison is not vacuous).
    std::size_t dropped = 0;
    for (const TileReport& t : gr.report.tile_reports)
      dropped += t.report.dropped_measurements;
    EXPECT_GT(dropped, 0u);
  }
}

TEST(EventDrivenShard, ThresholdZeroBitIdenticalUnderExpiredDeadline) {
  constexpr std::size_t kDim = 16;
  const ShardOptions base = shard_options(8, 2, 1);
  ShardedDecoder plain(kDim, kDim, base);
  ShardedDecoder gated(kDim, kDim, gated_zero_threshold(base));

  solvers::SolveOptions ctrl;
  ctrl.deadline = Deadline::after(0.0);  // expired before any tile starts
  const la::Matrix frame = thermal_frame(kDim, 7);
  const ShardFrameResult pr = plain.process(frame, ctrl);
  const ShardFrameResult gr = gated.process(frame, ctrl);
  EXPECT_TRUE(pr.report.deadline_expired);
  expect_bit_identical(gr.frame, pr.frame, "deadline threshold-0 frame");
  expect_reports_equal(gr.report, pr.report);
}

// ---------------------------------------------------------------------------
// ShardReport aggregation: per-frame counters never mix across frames

TEST(ShardReportAggregation, AsymmetricBatchKeepsCountersPerFrame) {
  // Frame 0 is a smooth thermal scene (most tiles accept at the plain
  // decode); frame 1 is uniform noise (incompressible: every tile escalates
  // to the 5-call cap and fails acceptance). If an executor ever carried
  // counters from one frame into the next, the expensive frame would
  // inherit the cheap frame's acceptances, or a later frame the noise.
  constexpr std::size_t kDim = 32;
  ShardOptions opts = shard_options(16, 0, 1);
  opts.stream.pipeline.budget.max_decode_calls = 5;  // bound the noise ladder
  // The tile patterns are a pure function of the stream seed; this one draws
  // patterns under which every smooth tile converges inside the budget (the
  // default seed leaves one tile short).
  opts.stream.seed = 1;
  ShardedDecoder sharded(kDim, kDim, opts);

  // The same two frames through a DecodeService that decodes every tile
  // in-process (no workers): its counters must add up the same way.
  ServiceOptions service_opts;
  service_opts.tile_rows = service_opts.tile_cols = 16;
  service_opts.halo = 0;
  service_opts.workers = 0;
  service_opts.pipeline = opts.stream.pipeline;
  service_opts.solver = fista();
  service_opts.seed = 1;
  DecodeService service(kDim, kDim, service_opts);

  const la::Matrix smooth = thermal_frame(kDim, 7);
  const la::Matrix noisy = noise_frame(kDim, kDim, 1234);
  std::vector<ShardFrameResult> out;
  std::vector<ServiceFrameResult> served;
  for (const la::Matrix* frame : {&smooth, &noisy}) {
    out.push_back(sharded.process(*frame));
    served.push_back(service.process(*frame));
  }

  const std::vector<const ShardReport*> reports = {
      &out[0].report, &out[1].report, &served[0].report, &served[1].report};
  for (std::size_t f = 0; f < reports.size(); ++f) {
    const ShardReport& rep = *reports[f];
    // Internal consistency: the frame-level counters are exactly the
    // aggregate of that frame's own tile reports.
    int calls = 0;
    std::size_t accepted = 0;
    double worst = 0.0;
    for (const TileReport& t : rep.tile_reports) {
      calls += t.report.decode_calls;
      if (t.report.accepted) ++accepted;
      worst = std::max(worst, t.report.rel_residual);
    }
    EXPECT_EQ(rep.decode_calls, calls) << "report " << f;
    EXPECT_EQ(rep.tiles_accepted, accepted) << "report " << f;
    EXPECT_EQ(rep.max_rel_residual, worst) << "report " << f;
  }
  // Asymmetry: the counters visibly differ between the frames (a mixing bug
  // would average or accumulate them together). The residuals are NOT a
  // reliable asymmetry signal — on the underdetermined tile system the
  // solver drives the noise frame's residual as low as the thermal frame's;
  // what separates them is the fit test (an incompressible tile's support
  // fills its measurement budget) and decode spend.
  EXPECT_GE(out[0].report.tiles_accepted, 3u);
  EXPECT_GE(out[0].report.decode_calls, 4);  // at least one decode per tile
  EXPECT_EQ(out[1].report.tiles_accepted, 0u);
  EXPECT_GT(out[1].report.decode_calls, out[0].report.decode_calls);
  EXPECT_TRUE(out[1].report.budget_exhausted);
}

TEST(ShardReportAggregation, BothExecutorsNumberFramesByCall) {
  // A tile's frame_index is the running count of process() calls on its
  // executor — the same on every tile of a frame, and the same on the
  // thread pool and the broker. It keys the measurement-fault channel, so
  // the channel must not be keyed by tile instead.
  constexpr std::size_t kDim = 16;
  const ShardOptions opts = shard_options(8, 0, 2);
  ShardedDecoder sharded(kDim, kDim, opts);
  ServiceOptions service_opts;
  service_opts.tile_rows = service_opts.tile_cols = 8;
  service_opts.halo = 0;
  service_opts.workers = 0;
  service_opts.solver = fista();
  DecodeService service(kDim, kDim, service_opts);

  for (std::size_t f = 0; f < 3; ++f) {
    const la::Matrix frame = thermal_frame(kDim, 7 + f);
    const ShardFrameResult a = sharded.process(frame);
    const ServiceFrameResult b = service.process(frame);
    for (const ShardReport* rep : {&a.report, &b.report}) {
      ASSERT_EQ(rep->tile_reports.size(), 4u);
      for (const TileReport& t : rep->tile_reports)
        EXPECT_EQ(t.report.frame_index, f)
            << "tile (" << t.tile_row << "," << t.tile_col << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive fractions: plumbing

TEST(ResolveFraction, OverrideAndFallbackContract) {
  EXPECT_EQ(cs::resolve_fraction(0.0, 0.5), 0.5);  // 0 keeps the default
  EXPECT_EQ(cs::resolve_fraction(0.3, 0.5), 0.3);
  EXPECT_EQ(cs::resolve_fraction(1.0, 0.5), 1.0);
  EXPECT_THROW(cs::resolve_fraction(-0.1, 0.5), CheckError);
  EXPECT_THROW(cs::resolve_fraction(1.5, 0.5), CheckError);
  EXPECT_THROW(cs::resolve_fraction(0.5, 0.0), CheckError);  // bad fallback
}

TEST(EventDrivenShard, AdaptiveFractionsReachTheTilePipelines) {
  // Forced refreshes of a quiet scene run at sparse_fraction: the decode
  // must still produce a finite, faithful reconstruction at the reduced
  // measurement budget, and the gate must keep forcing on schedule.
  constexpr std::size_t kDim = 16;
  ShardOptions opts = shard_options(8, 0, 1);
  opts.gate.enabled = true;
  opts.gate.threshold = 0.05;
  opts.gate.detector_fraction = 1.0;
  opts.gate.force_refresh_period = 2;
  opts.gate.dense_fraction = 0.6;
  opts.gate.sparse_fraction = 0.25;
  ShardedDecoder sharded(kDim, kDim, opts);

  const la::Matrix frame = thermal_frame(kDim, 7);
  const ShardFrameResult first = sharded.process(frame);   // forced @ sparse
  const ShardFrameResult second = sharded.process(frame);  // all skipped
  const ShardFrameResult third = sharded.process(frame);   // forced @ sparse
  EXPECT_EQ(first.report.tiles_forced, 4u);
  EXPECT_EQ(second.report.tiles_skipped, 4u);
  EXPECT_EQ(third.report.tiles_forced, 4u);
  for (const TileReport& t : third.report.tile_reports)
    ASSERT_FALSE(t.served_stale);
  EXPECT_TRUE(la::all_finite(first.frame));
  EXPECT_TRUE(la::all_finite(third.frame));
  EXPECT_LT(cs::rmse(first.frame, frame), 0.2);  // sparse still reconstructs
}

TEST(EventDrivenShard, GateDisabledLeavesCountersAtZero) {
  constexpr std::size_t kDim = 16;
  ShardedDecoder sharded(kDim, kDim, shard_options(8, 0, 1));
  const ShardFrameResult res = sharded.process(thermal_frame(kDim, 7));
  EXPECT_EQ(res.report.tiles_skipped, 0u);
  EXPECT_EQ(res.report.tiles_refreshed, 0u);
  EXPECT_EQ(res.report.tiles_forced, 0u);
  EXPECT_TRUE(res.report.activity.empty());
  const StreamHealth h = sharded.health();
  EXPECT_EQ(h.tiles_skipped, 0u);
  EXPECT_EQ(h.tiles_refreshed, 0u);
  EXPECT_EQ(h.tiles_forced, 0u);
}

}  // namespace
}  // namespace flexcs::runtime
