// ShardedDecoder: tiled scatter/gather decode over its own worker pool, and
// the latency summaries behind its health().
// Tile→worker assignment is nondeterministic under >1 worker, but a tile's
// pixels are not: every tile decodes from its own id. Quality assertions
// compare reconstructions by RMSE against ground truth; the determinism
// test compares worker counts bit-for-bit. Everything here must stay clean
// under tsan.
#include "runtime/shard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

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
    EXPECT_EQ(sharded.health().deadline_expired, 4u);  // every tile
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
    EXPECT_EQ(sharded.health().deadline_expired, 4u);
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
  EXPECT_EQ(ok.grid().padded_rows, 20u);
  EXPECT_THROW(ok.process(la::Matrix(16, 16)), CheckError);  // shape mismatch
}

TEST(ShardedDecoder, TileErrorsReachTheCaller) {
  // A tile solve's CheckError (here the pipeline's non-finite pixel check)
  // is rethrown by process() on the caller thread instead of ending the
  // process from a worker, and the pool decodes the next frame.
  constexpr std::size_t kDim = 32;
  ShardedDecoder sharded(kDim, kDim, shard_options(16, 2));
  la::Matrix bad = thermal_frame(kDim, 3);
  bad(5, 5) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sharded.process(bad), CheckError);
  const ShardFrameResult res = sharded.process(thermal_frame(kDim, 3));
  EXPECT_EQ(res.report.tiles_accepted, 4u);
  EXPECT_EQ(sharded.health().completed, 4u);
}

TEST(ShardedDecoder, HealthLatencyIsFrameLatency) {
  // health()'s percentiles summarise whole frames, each report's
  // decode_seconds, not the per-tile solves inside them: with 16 tiles on
  // 2 workers, the median tile finishes about halfway through its frame.
  constexpr std::size_t kDim = 32;
  ShardedDecoder sharded(kDim, kDim, shard_options(8, 2));
  std::vector<double> frame_seconds;
  for (std::uint64_t s = 1; s <= 5; ++s)
    frame_seconds.push_back(
        sharded.process(thermal_frame(kDim, s)).report.decode_seconds);
  const double median = latency_percentile(frame_seconds, 0.5);
  const double p50 = sharded.health().p50_latency_seconds;
  const double bucket = std::pow(10.0, 1.0 / LatencyHistogram::kPerDecade);
  EXPECT_LE(std::fabs(std::log(p50 / median)), std::log(bucket))
      << "health p50 " << p50 << " s vs median frame " << median << " s";
}

// Thread ids of this process, or an empty set where /proc is absent.
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec))
    ids.insert(entry.path().filename().string());
  return ids;
}

TEST(ShardedDecoder, StartsExactlyOneThreadPerWorker) {
  if (!std::filesystem::is_directory("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task on this platform";
  // New ids only: a thread of an earlier test that is still being reaped
  // sits in `before` and cannot be mistaken for one of the pool's.
  const std::set<std::string> before = thread_ids();
  ShardOptions opts = shard_options(16, 2);
  opts.stream.workers = 3;
  ShardedDecoder sharded(32, 32, opts);
  std::size_t started = 0;
  for (const std::string& id : thread_ids())
    if (before.count(id) == 0) ++started;
  EXPECT_EQ(started, opts.stream.workers);
}

TEST(Latency, LatencyPercentileInterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(latency_percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({3.0}, 0.99), 3.0);
  // The old nearest-rank rule reported 2.0 here.
  EXPECT_DOUBLE_EQ(latency_percentile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(latency_percentile({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(latency_percentile({4.0, 1.0, 3.0, 2.0}, 0.25), 1.75);

  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(100 - i);  // 100..1, unsorted on purpose
  EXPECT_DOUBLE_EQ(latency_percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_percentile(v, 1.0), 100.0);
  EXPECT_NEAR(latency_percentile(v, 0.99), 99.01, 1e-9);
  EXPECT_NEAR(latency_percentile(v, 0.5), 50.5, 1e-9);
}

TEST(Latency, LatencyHistogramPercentilesLandWithinOneBucket) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  // 1 ms .. 1 s, inserted in a scrambled order.
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1e-3 * static_cast<double>((i * 379) % 1000 + 1);
  for (const double x : v) h.add(x);
  EXPECT_EQ(h.count(), v.size());
  const double bucket = std::pow(10.0, 1.0 / LatencyHistogram::kPerDecade);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = latency_percentile(v, q);
    const double got = h.percentile(q);
    EXPECT_LE(std::fabs(std::log(got / exact)), std::log(bucket))
        << "q " << q << ": " << got << " vs " << exact;
  }
  // Out-of-range samples land in the edge buckets.
  LatencyHistogram edges;
  edges.add(0.0);
  edges.add(1e9);
  EXPECT_EQ(edges.percentile(0.0), LatencyHistogram::kLowest);
  EXPECT_NEAR(edges.percentile(1.0), 1e3, 1e-9);
}

TEST(Latency, LatencyHistogramSizeDoesNotGrowWithSamples) {
  // Fixed storage: no heap members, so a histogram of a million samples
  // occupies exactly sizeof(LatencyHistogram), like an empty one.
  static_assert(std::is_trivially_copyable_v<LatencyHistogram>);
  static_assert(sizeof(LatencyHistogram) ==
                (LatencyHistogram::kBuckets + 1) * sizeof(std::uint64_t));
  LatencyHistogram h;
  for (int i = 0; i < 1000000; ++i) h.add(1e-3 * (1 + i % 1000));
  EXPECT_EQ(h.count(), 1000000u);
  EXPECT_NEAR(h.percentile(0.5), 0.5, 0.5 * 0.03);
}

}  // namespace
}  // namespace flexcs::runtime
