// ShardedDecoder: tiled scatter/gather decode over the StreamServer pool.
// Tile→worker assignment is nondeterministic under >1 worker, but a tile's
// pixels are not: every tile decodes from its own id. Quality assertions
// compare reconstructions by RMSE against ground truth; the determinism
// test compares worker counts bit-for-bit. Everything here must stay clean
// under tsan.
#include "runtime/shard.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "signalling_solver.hpp"
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

ShardOptions shard_options(std::size_t tile, std::size_t halo) {
  ShardOptions opts;
  opts.tile_rows = opts.tile_cols = tile;
  opts.halo = halo;
  opts.stream.workers = 2;
  opts.stream.queue_capacity = 8;
  opts.stream.solver = fista();
  return opts;
}

TEST(ShardedDecoder, TiledDecodeMatchesMonolithicRmse) {
  constexpr std::size_t kDim = 32;
  const la::Matrix truth = thermal_frame(kDim, 7);

  // Monolithic reference: one pipeline over the full array.
  RobustPipelineOptions mono_opts;
  RobustPipeline mono(kDim, kDim, mono_opts, fista());
  Rng rng(11);
  const auto mono_res = mono.process(truth, 0, rng);
  const double mono_rmse = cs::rmse(mono_res.frame, truth);
  EXPECT_TRUE(mono_res.report.accepted);

  // Tiled with halo: every tile solve is independent, but the stitched
  // frame must land in the same quality regime as the monolithic decode.
  for (std::size_t halo : {std::size_t{0}, std::size_t{2}}) {
    ShardedDecoder sharded(kDim, kDim, shard_options(16, halo));
    const ShardFrameResult res = sharded.process(truth);
    EXPECT_EQ(res.report.tiles, 4u);
    EXPECT_EQ(res.report.tiles_accepted, 4u) << "halo " << halo;
    EXPECT_TRUE(la::all_finite(res.frame));
    const double tiled_rmse = cs::rmse(res.frame, truth);
    // Within 2x of monolithic plus an absolute floor: tiles see fewer
    // coefficients, so a modest quality gap is expected, seams are not.
    EXPECT_LT(tiled_rmse, std::max(2.0 * mono_rmse, 0.05)) << "halo " << halo;
    EXPECT_GT(res.report.decode_calls, 0);
    ASSERT_EQ(res.report.tile_reports.size(), 4u);
    for (const TileReport& t : res.report.tile_reports) {
      EXPECT_LT(t.tile_row, 2u);
      EXPECT_LT(t.tile_col, 2u);
      EXPECT_TRUE(t.report.accepted);
    }
  }
}

TEST(ShardedDecoder, SequentialFramesReuseThePool) {
  constexpr std::size_t kDim = 32;
  ShardedDecoder sharded(kDim, kDim, shard_options(16, 0));
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ShardFrameResult res = sharded.process(frame);
    EXPECT_EQ(res.report.tiles_accepted, 4u) << "frame " << s;
    EXPECT_LT(cs::rmse(res.frame, frame), 0.05) << "frame " << s;
  }
  EXPECT_EQ(sharded.health().completed, 12u);  // 3 frames x 4 tiles
}

// Every tile decodes as a pure function of (seed, tile id, pixels): which
// worker thread pops it, and what that worker decoded before, cannot change
// its pixels, even through the frame-indexed measurement-fault channel.
TEST(ShardedDecoder, MeasurementFaultsStayDeterministicAcrossWorkerCounts) {
  constexpr std::size_t kDim = 32;
  ShardOptions one = shard_options(8, 2);
  one.stream.pipeline.measurement_faults.add(
      cs::DroppedMeasurementFault{0.1, 5});
  one.stream.workers = 1;
  ShardOptions three = one;
  three.stream.workers = 3;
  ShardedDecoder a(kDim, kDim, one);
  ShardedDecoder b(kDim, kDim, three);
  for (std::uint64_t s = 1; s <= 4; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ShardFrameResult ra = a.process(frame);
    const ShardFrameResult rb = b.process(frame);
    EXPECT_EQ(la::max_abs_diff(ra.frame, rb.frame), 0.0) << "frame " << s;
  }
}

TEST(ShardedDecoder, DeadlineAndCancelPropagateIntoTileSolves) {
  constexpr std::size_t kDim = 32;
  const la::Matrix frame = thermal_frame(kDim, 7);

  {
    ShardedDecoder sharded(kDim, kDim, shard_options(16, 2));
    solvers::SolveOptions ctrl;
    ctrl.deadline = Deadline::after(0.0);  // expired before any tile starts
    const ShardFrameResult res = sharded.process(frame, ctrl);
    EXPECT_TRUE(res.report.deadline_expired);
    EXPECT_TRUE(la::all_finite(res.frame));
  }
  {
    ShardedDecoder sharded(kDim, kDim, shard_options(16, 2));
    CancelSource cancel;
    cancel.cancel();
    solvers::SolveOptions ctrl;
    ctrl.cancel = cancel.token();
    const ShardFrameResult res = sharded.process(frame, ctrl);
    EXPECT_TRUE(res.report.deadline_expired);
    EXPECT_TRUE(la::all_finite(res.frame));
  }
}

TEST(ShardedDecoder, CancelMidSolveStopsRunningTileSolves) {
  // DeadlineAndCancelPropagateIntoTileSolves fires its token before the
  // frame starts; here it fires while tile solves are running, and every
  // tile — running or still queued — must stop short of its budget.
  constexpr std::size_t kDim = 32;
  constexpr int kMaxIterations = 2000000;
  const auto solver =
      std::make_shared<testing::SignallingSolver>(kMaxIterations);
  ShardOptions opts = shard_options(16, 2);
  opts.stream.solver = solver;
  opts.stream.pipeline.max_rung = Strategy::kPlainDecode;
  ShardedDecoder sharded(kDim, kDim, opts);

  CancelSource cancel;
  solvers::SolveOptions ctrl;
  ctrl.cancel = cancel.token();
  // process() blocks until every tile is back, so the cancel comes from a
  // second thread once the first tile solve has started.
  std::thread canceller([&] {  // flexcs-lint: allow(threading)
    solver->wait_until_entered();
    cancel.cancel();
  });
  const ShardFrameResult res = sharded.process(thermal_frame(kDim, 7), ctrl);
  canceller.join();

  EXPECT_TRUE(res.report.deadline_expired);
  EXPECT_TRUE(la::all_finite(res.frame));
  ASSERT_EQ(res.report.tile_reports.size(), 4u);
  for (const TileReport& t : res.report.tile_reports) {
    EXPECT_TRUE(t.report.deadline_expired);
    EXPECT_LT(t.report.solver_iterations, kMaxIterations);
  }
}

TEST(ShardedDecoder, ValidatesGeometry) {
  ShardOptions opts = shard_options(16, 2);
  EXPECT_THROW(ShardedDecoder(30, 30, opts), CheckError);  // not divisible
  EXPECT_THROW(ShardedDecoder(8, 8, opts), CheckError);    // tile > array
  opts.tile_rows = opts.tile_cols = 0;
  EXPECT_THROW(ShardedDecoder(32, 32, opts), CheckError);

  ShardedDecoder ok(32, 32, shard_options(16, 2));
  EXPECT_EQ(ok.shards(), 4u);
  EXPECT_EQ(ok.padded_rows(), 20u);
  EXPECT_THROW(ok.process(la::Matrix(16, 16)), CheckError);  // shape mismatch
}

}  // namespace
}  // namespace flexcs::runtime
