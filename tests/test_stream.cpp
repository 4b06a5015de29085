// Concurrency tests for the streaming runtime. Everything here must be
// clean under ThreadSanitizer (ctest --preset tsan): multiple producers,
// worker pool, watchdog, and shutdown paths all exercise the locking.
#include "runtime/stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/thermal.hpp"
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

TEST(StreamServer, DeliversEveryFrameFromConcurrentProducers) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kFramesPer = 6;
  StreamOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4;
  opts.solver = fista();
  StreamServer server(kDim, kDim, opts);

  // Real producer threads: the concurrency test is the exception the
  // threading lint rule carves out explicitly.
  std::vector<std::thread> producers;  // flexcs-lint: allow(threading)
  for (std::size_t s = 0; s < kProducers; ++s) {
    producers.emplace_back([&server, s] {
      const la::Matrix frame = thermal_frame(kDim, 100 + s);
      for (std::size_t f = 0; f < kFramesPer; ++f)
        EXPECT_TRUE(server.submit(s, frame));
    });
  }
  for (auto& t : producers) t.join();
  server.close();

  const StreamHealth h = server.health();
  EXPECT_EQ(h.submitted, kProducers * kFramesPer);
  EXPECT_EQ(h.completed, kProducers * kFramesPer);
  EXPECT_GE(h.queue_high_water, 1u);
  EXPECT_LE(h.queue_high_water, opts.queue_capacity);
  EXPECT_GE(h.p99_latency_seconds, h.p50_latency_seconds);
  EXPECT_GT(h.p50_latency_seconds, 0.0);

  const std::vector<StreamResult> results = server.drain_results();
  ASSERT_EQ(results.size(), kProducers * kFramesPer);
  std::set<std::uint64_t> indices;
  for (const StreamResult& r : results) {
    EXPECT_TRUE(la::all_finite(r.frame));
    EXPECT_LT(r.stream_id, kProducers);
    EXPECT_GT(r.latency_seconds, 0.0);
    EXPECT_GE(r.latency_seconds, r.queue_seconds);
    EXPECT_GT(r.report.decode_seconds, 0.0);
    EXPECT_GT(r.report.solver_iterations, 0);
    indices.insert(r.submit_index);
  }
  EXPECT_EQ(indices.size(), results.size()) << "submit indices must be unique";
  // Results were drained; a second drain is empty.
  EXPECT_TRUE(server.drain_results().empty());
}

TEST(StreamServer, SubmitAfterCloseIsRejected) {
  StreamOptions opts;
  opts.workers = 1;
  opts.solver = fista();
  StreamServer server(8, 8, opts);
  server.close();
  EXPECT_FALSE(server.submit(0, la::Matrix(8, 8, 0.5)));
  EXPECT_EQ(server.health().submitted, 0u);
}

TEST(StreamServer, WatchdogCancelsStalledFrames) {
  constexpr std::size_t kDim = 16;
  StreamOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  // No per-frame deadline: the watchdog's absolute floor is the only thing
  // that can stop the deliberately unconvergeable solver below.
  opts.frame_deadline_seconds = 0.0;
  opts.stall_floor_seconds = 1e-3;
  opts.watchdog_period_seconds = 2e-4;
  solvers::FistaOptions stubborn;
  stubborn.max_iterations = 50000000;
  stubborn.tol = 0.0;
  opts.solver = std::make_shared<solvers::FistaSolver>(stubborn);
  // Keep the ladder from multiplying the stall: one rung is enough.
  opts.pipeline.max_rung = Strategy::kPlainDecode;
  StreamServer server(kDim, kDim, opts);

  EXPECT_TRUE(server.submit(0, thermal_frame(kDim, 5)));
  server.close();

  const StreamHealth h = server.health();
  EXPECT_EQ(h.completed, 1u);
  EXPECT_GE(h.stalled, 1u) << "watchdog must have cancelled the frame";
  const std::vector<StreamResult> results = server.drain_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].report.deadline_expired);
  EXPECT_TRUE(la::all_finite(results[0].frame));
}

TEST(StreamServer, FrameDeadlineSurfacesInHealthAndReports) {
  constexpr std::size_t kDim = 16;
  StreamOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4;
  opts.frame_deadline_seconds = 1e-5;  // far below one solve
  opts.solver = fista();
  StreamServer server(kDim, kDim, opts);

  const la::Matrix frame = thermal_frame(kDim, 9);
  constexpr std::size_t kFrames = 6;
  for (std::size_t f = 0; f < kFrames; ++f)
    EXPECT_TRUE(server.submit(0, frame));
  server.close();

  const StreamHealth h = server.health();
  EXPECT_EQ(h.completed, kFrames);
  EXPECT_GT(h.deadline_expired, 0u);
  for (const StreamResult& r : server.drain_results())
    EXPECT_TRUE(la::all_finite(r.frame));
}

TEST(StreamServer, LatencyPercentileInterpolatesBetweenOrderStatistics) {
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

TEST(StreamServer, LatencyHistogramPercentilesLandWithinOneBucket) {
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

TEST(StreamServer, LatencyHistogramSizeDoesNotGrowWithSamples) {
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

// Decodes frames[i] under stream id i on a server with `workers` threads and
// returns the reconstructions indexed by stream id.
std::vector<la::Matrix> decode_by_id(std::size_t workers,
                                     const std::vector<la::Matrix>& frames) {
  StreamOptions opts;
  opts.workers = workers;
  opts.queue_capacity = frames.size();
  opts.solver = fista();
  StreamServer server(frames[0].rows(), frames[0].cols(), opts);
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_TRUE(server.submit(i, frames[i]));
  server.close();
  std::vector<la::Matrix> out(frames.size());
  for (StreamResult& r : server.drain_results()) {
    EXPECT_TRUE(r.report.accepted);  // clean frames decode on rung 0
    out.at(r.stream_id) = std::move(r.frame);
  }
  return out;
}

TEST(StreamServer, DecodeIsAPureFunctionOfTheStreamIdAcrossWorkerCounts) {
  // Each decode seeds from its submission's stream id, so which worker pops
  // a frame, and what that worker decoded before, cannot move a pixel.
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kFrames = 6;
  std::vector<la::Matrix> frames;
  for (std::size_t i = 0; i < kFrames; ++i)
    frames.push_back(thermal_frame(kDim, 10 + i));
  const std::vector<la::Matrix> one = decode_by_id(1, frames);
  const std::vector<la::Matrix> three = decode_by_id(3, frames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(one[i].size(), kDim * kDim) << "stream " << i;
    ASSERT_EQ(three[i].size(), kDim * kDim) << "stream " << i;
    for (std::size_t k = 0; k < one[i].size(); ++k)
      ASSERT_EQ(one[i].data()[k], three[i].data()[k])
          << "stream " << i << " pixel " << k;
  }
}

TEST(StreamServer, WaitForCompletedAndExternalCancelPropagate) {
  constexpr std::size_t kDim = 16;
  StreamOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.solver = fista();
  StreamServer server(kDim, kDim, opts);

  // A submission whose cancel token fired before dequeue is cut short at the
  // solver's entry check and surfaces as deadline_expired — the same
  // cooperative mechanism ShardedDecoder relies on for frame-level cancel.
  CancelSource cancel;
  cancel.cancel();
  SubmitControl ctrl;
  ctrl.cancel = cancel.token();
  const la::Matrix frame = thermal_frame(kDim, 4);
  EXPECT_TRUE(server.submit(0, frame, ctrl));
  EXPECT_TRUE(server.submit(1, frame, ctrl));
  server.wait_for_completed(2);

  const std::vector<StreamResult> results = server.drain_results();
  ASSERT_EQ(results.size(), 2u);
  for (const StreamResult& r : results) {
    EXPECT_TRUE(r.report.deadline_expired);
    EXPECT_FALSE(r.report.accepted);
    EXPECT_TRUE(la::all_finite(r.frame));
  }
  // Health must not count the caller-requested cancellation as a stall.
  EXPECT_EQ(server.health().stalled, 0u);
  server.close();
}

TEST(StreamServer, ExternalDeadlineTightensTheSolve) {
  constexpr std::size_t kDim = 16;
  StreamOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.solver = fista();  // no frame deadline at all
  StreamServer server(kDim, kDim, opts);

  SubmitControl ctrl;
  ctrl.deadline = Deadline::after(0.0);  // already expired at submit
  const la::Matrix frame = thermal_frame(kDim, 4);
  EXPECT_TRUE(server.submit(0, frame, ctrl));
  server.wait_for_completed(1);
  const std::vector<StreamResult> results = server.drain_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].report.deadline_expired);
  server.close();
}

}  // namespace
}  // namespace flexcs::runtime
