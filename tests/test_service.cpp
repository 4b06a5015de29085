// DecodeService: the multi-process decode broker. The load-bearing property
// throughout is the determinism contract — tile patterns are seeded from
// (seed, frame, tile), so the worker path, a respawned worker after a crash,
// and the broker's in-process fallback all produce bit-identical tiles. Every
// fault-injection test therefore asserts the recovered frame equals the
// workers=0 reference EXACTLY, not just in RMSE, while the injected failure
// shows up in the health counters.
#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/metrics.hpp"
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

constexpr std::size_t kDim = 32;

ServiceOptions service_options(std::size_t workers) {
  ServiceOptions opts;
  opts.tile_rows = opts.tile_cols = 16;
  opts.halo = 2;
  opts.workers = workers;
  opts.solver = fista();
  opts.seed = 0xFEEDu;
  return opts;
}

/// The bit-exact reference: the same geometry and seed decoded with zero
/// workers, i.e. entirely in-process, no forks, no wire.
la::Matrix reference_frame(const la::Matrix& frame) {
  DecodeService ref(kDim, kDim, service_options(0));
  return ref.process(frame).frame;
}

void expect_bit_exact(const la::Matrix& got, const la::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      ASSERT_EQ(got(i, j), want(i, j)) << "pixel (" << i << ", " << j << ")";
}

TEST(DecodeService, WorkerFleetMatchesInProcessBitExact) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  DecodeService svc(kDim, kDim, service_options(2));
  EXPECT_EQ(svc.live_workers(), 2u);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  EXPECT_LT(cs::rmse(res.frame, frame), 0.05);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_completed, 1u);
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.tiles_completed, 4u);
  EXPECT_EQ(h.tiles_in_process, 0u);
  EXPECT_EQ(h.worker_crashes, 0u);
  EXPECT_EQ(h.tile_redispatches, 0u);
  ASSERT_EQ(res.report.tile_reports.size(), 4u);
  for (const TileReport& t : res.report.tile_reports) {
    EXPECT_EQ(t.dispatch_attempts, 1);
    EXPECT_FALSE(t.in_process);
    EXPECT_TRUE(t.report.accepted);
  }
}

TEST(DecodeService, SigkillMidDecodeIsRecoveredBitExact) {
  // Worker 0 consumes its first request and SIGKILLs itself — a crash
  // mid-decode. The supervisor must detect the EOF, respawn the slot,
  // re-dispatch the orphaned tile, and still return the frame,
  // stitched identically to the in-process path.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = service_options(2);
  opts.fault_injection.resize(1);
  opts.fault_injection[0].kill_after_tiles = 0;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_completed, 1u);
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.worker_crashes, 1u);
  EXPECT_GE(h.worker_respawns, 1u);
  EXPECT_GE(h.tile_redispatches, 1u);
  EXPECT_EQ(h.tiles_completed + h.tiles_in_process, 4u);
  EXPECT_EQ(svc.live_workers(), 2u);  // the slot came back

  // Dispatch attribution: some tile burned more than one attempt.
  int max_attempts = 0;
  for (const TileReport& t : res.report.tile_reports)
    max_attempts = std::max(max_attempts, t.dispatch_attempts);
  EXPECT_GE(max_attempts, 2);
}

TEST(DecodeService, StalledWorkerIsKilledByHeartbeatAndRecovered) {
  // Worker 0 wedges (sleeps well past any reasonable response time) before
  // answering its first tile. The heartbeat timeout must SIGKILL it,
  // respawn, and re-dispatch — recovering within the timeout budget instead
  // of hanging the frame.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = service_options(2);
  opts.heartbeat_floor_seconds = 0.3;
  opts.fault_injection.resize(1);
  opts.fault_injection[0].stall_after_tiles = 0;
  opts.fault_injection[0].stall_seconds = 30.0;  // >> heartbeat
  DecodeService svc(kDim, kDim, opts);

  const Deadline::Clock::time_point t0 = Deadline::Clock::now();
  const ServiceFrameResult res = svc.process(frame);
  const double elapsed =
      std::chrono::duration<double>(Deadline::Clock::now() - t0).count();
  expect_bit_exact(res.frame, want);
  EXPECT_LT(elapsed, 25.0);  // did not wait out the 30 s stall

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.worker_stalls, 1u);
  EXPECT_GE(h.worker_respawns, 1u);
  EXPECT_GE(h.tile_redispatches, 1u);
}

TEST(DecodeService, CorruptAndTruncatedResponsesAreRejectedAndRetried) {
  // Worker 0 flips a payload bit in its first response (checksum reject);
  // worker 1 sends half a response and exits (short read + EOF). Both tiles
  // must be re-dispatched and the frame still stitches bit-exact.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = service_options(2);
  opts.fault_injection.resize(2);
  opts.fault_injection[0].corrupt_after_tiles = 0;
  opts.fault_injection[1].truncate_after_tiles = 0;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.checksum_rejects, 1u);  // the bit flip
  EXPECT_GE(h.worker_crashes, 1u);    // the truncating worker's EOF
  EXPECT_GE(h.tile_redispatches, 2u);
}

TEST(DecodeService, FleetCollapseDegradesToInProcessDecode) {
  // One worker that crash-loops (the injection persists across respawns)
  // with a respawn budget of 1: after two crashes the fleet is gone and the
  // broker must finish every tile itself.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = service_options(1);
  opts.max_respawns = 1;
  opts.fault_injection.resize(1);
  opts.fault_injection[0].kill_after_tiles = 0;
  opts.fault_injection[0].persist_across_respawn = true;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.worker_crashes, 2u);   // initial spawn + one respawn
  EXPECT_EQ(h.worker_respawns, 1u);  // budget
  EXPECT_EQ(h.tiles_completed, 0u);  // no worker ever answered
  EXPECT_EQ(h.tiles_in_process, 4u);
  EXPECT_EQ(svc.live_workers(), 0u);
  for (const TileReport& t : res.report.tile_reports)
    EXPECT_TRUE(t.in_process);

  // A collapsed service still serves frames (all in-process).
  const ServiceFrameResult again = svc.process(frame);
  EXPECT_EQ(svc.health().frames_lost, 0u);
  EXPECT_TRUE(la::all_finite(again.frame));
}

TEST(DecodeService, ExternalDeadlineAndCancelAreHonoured) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  {
    DecodeService svc(kDim, kDim, service_options(2));
    solvers::SolveOptions ctrl;
    ctrl.deadline = Deadline::after(0.0);  // expired before any tile starts
    const ServiceFrameResult res = svc.process(frame, ctrl);
    EXPECT_TRUE(res.report.deadline_expired);
    EXPECT_TRUE(la::all_finite(res.frame));
    EXPECT_EQ(svc.health().frames_lost, 0u);
  }
  {
    DecodeService svc(kDim, kDim, service_options(2));
    CancelSource cancel;
    cancel.cancel();
    solvers::SolveOptions ctrl;
    ctrl.cancel = cancel.token();
    const ServiceFrameResult res = svc.process(frame, ctrl);
    // A fired token routes every not-yet-dispatched tile in-process, where
    // the solvers observe the cancellation immediately.
    EXPECT_EQ(svc.health().tiles_in_process, 4u);
    EXPECT_TRUE(la::all_finite(res.frame));
  }
}

TEST(DecodeService, ValidatesOptionsAndRejectsUseAfterClose) {
  EXPECT_THROW(DecodeService(30, 30, service_options(1)), CheckError);
  {
    ServiceOptions opts = service_options(1);
    opts.tile_retry_budget = -1;
    EXPECT_THROW(DecodeService(kDim, kDim, opts), CheckError);
  }

  DecodeService svc(kDim, kDim, service_options(1));
  EXPECT_EQ(svc.shards(), 4u);
  EXPECT_EQ(svc.grid().padded_rows, 20u);
  EXPECT_THROW(svc.process(la::Matrix(8, 8)), CheckError);
  svc.close();
  svc.close();  // idempotent
  EXPECT_EQ(svc.live_workers(), 0u);
  EXPECT_THROW(svc.process(thermal_frame(kDim, 3)), CheckError);
}

TEST(DecodeService, HealthToJsonEmitsEveryCounter) {
  DecodeService svc(kDim, kDim, service_options(1));
  svc.process(thermal_frame(kDim, 7));
  const std::string json = svc.health().to_json();
  // Flat object, one numeric field per counter — remote counters included
  // even with no remote fleet configured.
  for (const char* key :
       {"frames_submitted", "frames_completed", "frames_lost",
        "tiles_dispatched", "tiles_completed", "tile_redispatches",
        "tiles_in_process", "worker_crashes", "worker_stalls",
        "worker_respawns", "checksum_rejects", "stale_responses",
        "deadline_expired_tiles", "remote_connects", "remote_reconnects",
        "remote_disconnects", "handshake_failures", "read_timeouts",
        "redispatches_on_disconnect"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\": "), std::string::npos)
        << "missing counter " << key << " in " << json;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"frames_completed\": 1"), std::string::npos) << json;
}

TEST(DecodeService, SequentialFramesStayDeterministicAcrossTheFleet) {
  // Frame N through a 2-worker fleet must equal frame N through a fresh
  // zero-worker service fed the same sequence: global frame numbering, not
  // dispatch order, drives the patterns.
  DecodeService ref(kDim, kDim, service_options(0));
  DecodeService svc(kDim, kDim, service_options(2));
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ServiceFrameResult a = ref.process(frame);
    const ServiceFrameResult b = svc.process(frame);
    expect_bit_exact(b.frame, a.frame);
  }
  EXPECT_EQ(svc.health().frames_completed, 3u);
  EXPECT_EQ(svc.health().frames_lost, 0u);
}

// Measurement faults are keyed by frame index. Each tile carries its
// frame's global index to whichever process decodes it, so the fault
// channel, like the sampling pattern, does not depend on how many tiles
// that process decoded before.
TEST(DecodeService, MeasurementFaultsStayDeterministicAcrossTheFleet) {
  ServiceOptions opts0 = service_options(0);
  opts0.pipeline.measurement_faults.add(cs::DroppedMeasurementFault{0.1, 5});
  ServiceOptions opts2 = opts0;
  opts2.workers = 2;
  DecodeService ref(kDim, kDim, opts0);
  DecodeService svc(kDim, kDim, opts2);
  for (std::uint64_t s = 1; s <= 4; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ServiceFrameResult a = ref.process(frame);
    const ServiceFrameResult b = svc.process(frame);
    expect_bit_exact(b.frame, a.frame);
  }
  EXPECT_EQ(svc.health().frames_lost, 0u);
}

// Both executors cut a frame the same way unless the caller says otherwise.
TEST(DecodeService, DefaultGeometryMatchesShardedDecoder) {
  const ServiceOptions service;
  const ShardOptions shard;
  EXPECT_EQ(service.tile_rows, shard.tile_rows);
  EXPECT_EQ(service.tile_cols, shard.tile_cols);
  EXPECT_EQ(service.halo, shard.halo);
}

// The tests above pin 16-px tiles; this one runs the default geometry, four
// 32-px tiles of a 64x64 frame, through the fleet and in-process.
TEST(DecodeService, DefaultGeometryFleetMatchesInProcessBitExact) {
  constexpr std::size_t kFrameDim = 64;
  const la::Matrix frame = thermal_frame(kFrameDim, 7);
  ServiceOptions opts;
  opts.workers = 0;
  DecodeService ref(kFrameDim, kFrameDim, opts);
  const ServiceFrameResult want = ref.process(frame);

  opts.workers = 2;
  DecodeService svc(kFrameDim, kFrameDim, opts);
  const ServiceFrameResult got = svc.process(frame);
  ASSERT_EQ(got.report.tile_reports.size(), 4u);
  for (const TileReport& t : got.report.tile_reports)
    EXPECT_FALSE(t.in_process);
  expect_bit_exact(got.frame, want.frame);
  EXPECT_EQ(svc.health().frames_lost, 0u);
}

}  // namespace
}  // namespace flexcs::runtime
