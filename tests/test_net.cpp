// Remote (TCP) decode workers: the net transport primitives, the broker's
// handshake/admission state machine, and the fault-tolerance of the
// heterogeneous fleet. The load-bearing property is the same determinism
// contract test_service pins for forked workers, now across a network hop:
// every injected network fault — refused connects, flapping peers,
// mid-message disconnects, in-flight byte corruption, half-open stalls,
// delayed delivery, and a full partition — must leave the stitched frame
// BIT-IDENTICAL to the workers=0 in-process reference, with frames_lost == 0
// and the fault visible in the health counters.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/net.hpp"
#include "runtime/service.hpp"
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

// Same geometry, seed and ladder as test_service.
ServiceOptions remote_options(std::size_t remotes) {
  ServiceOptions opts;
  opts.tile_rows = opts.tile_cols = 16;
  opts.halo = 2;
  opts.workers = 0;
  opts.remote_workers = remotes;
  opts.solver = fista();
  opts.seed = 0xFEEDu;
  // Generous supervision timeouts: under ASan/TSan a tile decode runs tens
  // of times slower, and these tests assert *which* counters a fault moved —
  // a false-positive read timeout would tear down a healthy-but-slow remote
  // and mask the injected fault. Tests that exercise the timeouts themselves
  // (stall, partition, handshake grace) tighten them locally.
  opts.remote_connect_grace_seconds = 20.0;
  opts.remote_read_timeout_seconds = 20.0;
  return opts;
}

/// The bit-exact reference: zero workers, zero remotes — entirely
/// in-process, no forks, no sockets.
la::Matrix reference_frame(const la::Matrix& frame) {
  ServiceOptions opts = remote_options(0);
  DecodeService ref(kDim, kDim, opts);
  return ref.process(frame).frame;
}

void expect_bit_exact(const la::Matrix& got, const la::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      ASSERT_EQ(got(i, j), want(i, j)) << "pixel (" << i << ", " << j << ")";
}

// --- transport primitives ---------------------------------------------------

TEST(Net, ListenerBindsEphemeralPortAndAcceptsOneRoundTrip) {
  net::Listener listener = net::Listener::open("127.0.0.1", 0);
  ASSERT_TRUE(listener.listening());
  ASSERT_NE(listener.port(), 0);
  EXPECT_EQ(listener.accept_nonblocking(), -1);  // nothing pending

  const int client = net::connect_to("127.0.0.1", listener.port(), 2.0);
  ASSERT_GE(client, 0);
  int accepted = -1;
  // The accept side is nonblocking; the three-way handshake may still be
  // settling, so spin briefly.
  for (int i = 0; i < 1000 && accepted < 0; ++i) accepted = listener.accept_nonblocking();
  ASSERT_GE(accepted, 0);

  // One wire message through the buffered broker-side Connection.
  net::Connection conn{accepted};
  wire::HelloRequest hello;
  hello.padded_rows = 20;
  hello.padded_cols = 20;
  hello.seed = 42;
  ASSERT_TRUE(wire::send_message(client, wire::encode_hello(hello)));
  wire::Message msg;
  for (int i = 0; i < 1000; ++i) {
    conn.read_available();
    if (conn.next_message(msg) == wire::DecodeStatus::kOk) break;
  }
  ASSERT_EQ(msg.type, wire::MessageType::kHello);
  const wire::HelloRequest got = wire::decode_hello(msg);
  EXPECT_EQ(got.padded_rows, 20u);
  EXPECT_EQ(got.seed, 42u);

  // And one back through the queued nonblocking write path.
  wire::HelloAck ack;
  ack.accepted = true;
  ASSERT_TRUE(conn.queue_message(wire::encode_hello_ack(ack)));
  std::vector<std::uint8_t> buf;
  wire::Message reply;
  ASSERT_EQ(wire::read_message(client, buf, reply),
            wire::ReadStatus::kMessage);
  EXPECT_TRUE(wire::decode_hello_ack(reply).accepted);
  ::close(client);
}

TEST(Net, ConnectToRefusedPortFailsCleanly) {
  // Bind-then-close guarantees the port is currently unused, so the connect
  // must be refused, not hang until the timeout.
  std::uint16_t dead_port = 0;
  {
    net::Listener probe = net::Listener::open("127.0.0.1", 0);
    dead_port = probe.port();
  }
  EXPECT_EQ(net::connect_to("127.0.0.1", dead_port, 0.5), -1);
  EXPECT_EQ(net::connect_to("not-an-address", 1, 0.5), -1);
}

// --- healthy remote fleet ---------------------------------------------------

TEST(RemoteFleet, RemoteWorkersMatchInProcessBitExact) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  DecodeService svc(kDim, kDim, remote_options(2));
  ASSERT_NE(svc.listen_port(), 0);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  EXPECT_LT(cs::rmse(res.frame, frame), 0.05);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_completed, 1u);
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.tiles_completed, 4u);
  EXPECT_EQ(h.tiles_in_process, 0u);
  EXPECT_GE(h.remote_connects, 1u);
  EXPECT_EQ(h.handshake_failures, 0u);
  for (const TileReport& t : res.report.tile_reports) {
    EXPECT_TRUE(t.remote);
    EXPECT_FALSE(t.in_process);
    EXPECT_TRUE(t.report.accepted);
  }
}

TEST(RemoteFleet, MixedForkedAndRemoteFleetStaysBitExact) {
  ServiceOptions opts = remote_options(1);
  opts.workers = 1;  // heterogeneous: one socketpair + one TCP worker
  DecodeService ref(kDim, kDim, remote_options(0));
  DecodeService svc(kDim, kDim, opts);
  EXPECT_EQ(svc.live_workers(), 1u);
  // Run a few frames so both transports see traffic; tile seeds advance with
  // the global frame index, so the reference must walk the same sequence.
  for (std::uint64_t s = 1; s <= 2; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ServiceFrameResult a = ref.process(frame);
    const ServiceFrameResult res = svc.process(frame);
    expect_bit_exact(res.frame, a.frame);
  }
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.tiles_completed, 8u);
  EXPECT_EQ(h.tiles_in_process, 0u);
}

TEST(RemoteFleet, SequentialFramesDeterministicAcrossRemoteFleet) {
  DecodeService ref(kDim, kDim, remote_options(0));
  DecodeService svc(kDim, kDim, remote_options(2));
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ServiceFrameResult a = ref.process(frame);
    const ServiceFrameResult b = svc.process(frame);
    expect_bit_exact(b.frame, a.frame);
  }
  EXPECT_EQ(svc.health().frames_lost, 0u);
}

// --- network fault injection ------------------------------------------------

TEST(RemoteFleet, RefusedConnectsAreRetriedUntilAdmitted) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(1);
  opts.fault_injection.resize(1);
  opts.fault_injection[0].refuse_connects = 3;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.remote_connects, 1u);  // eventually got through
}

TEST(RemoteFleet, FlappingWorkerIsReadmittedAndServes) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(1);
  opts.fault_injection.resize(1);
  opts.fault_injection[0].flap_connects = 2;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.remote_disconnects, 1u);  // the flaps
  EXPECT_GE(h.remote_reconnects, 1u);   // the re-admissions
}

TEST(RemoteFleet, MidMessageDisconnectRedispatchesBitExact) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(2);
  opts.fault_injection.resize(1);
  opts.fault_injection[0].truncate_after_tiles = 0;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.remote_disconnects, 1u);
  EXPECT_GE(h.redispatches_on_disconnect, 1u);
  EXPECT_GE(h.tile_redispatches, 1u);
}

TEST(RemoteFleet, CorruptedBytesInFlightAreRejectedAndRetried) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(2);
  opts.fault_injection.resize(1);
  opts.fault_injection[0].corrupt_after_tiles = 0;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.checksum_rejects, 1u);
  EXPECT_GE(h.tile_redispatches, 1u);
}

TEST(RemoteFleet, StalledConnectionTimesOutAndRecovers) {
  // Worker 0 goes silent for 30 s mid-response — a half-open connection.
  // The broker's read timeout must tear it down and re-dispatch, recovering
  // well inside the stall; close() then SIGKILLs the sleeping loopback child.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(2);
  opts.heartbeat_floor_seconds = 0.3;
  opts.fault_injection.resize(1);
  opts.fault_injection[0].stall_after_tiles = 0;
  opts.fault_injection[0].stall_seconds = 30.0;
  DecodeService svc(kDim, kDim, opts);

  const Deadline::Clock::time_point t0 = Deadline::Clock::now();
  const ServiceFrameResult res = svc.process(frame);
  const double elapsed =
      std::chrono::duration<double>(Deadline::Clock::now() - t0).count();
  expect_bit_exact(res.frame, want);
  EXPECT_LT(elapsed, 25.0);  // did not wait out the stall

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.read_timeouts, 1u);
  EXPECT_GE(h.tile_redispatches, 1u);
}

TEST(RemoteFleet, DelayedDeliveryStillCompletesBitExact) {
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(2);
  opts.fault_injection.resize(2);
  opts.fault_injection[0].delay_seconds = 0.05;
  opts.fault_injection[1].delay_seconds = 0.05;
  DecodeService svc(kDim, kDim, opts);
  const ServiceFrameResult res = svc.process(frame);
  expect_bit_exact(res.frame, want);
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.tiles_completed, 4u);
  EXPECT_EQ(h.read_timeouts, 0u);  // delay << timeout: no false positives
}

TEST(RemoteFleet, FullPartitionDegradesInProcessWithZeroLostFrames) {
  // A remote-only fleet where no worker ever connects: once the connect
  // grace expires the slots stop being prospects and every tile must decode
  // in-process — bit-exact, bounded latency, frames_lost == 0.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const la::Matrix want = reference_frame(frame);

  ServiceOptions opts = remote_options(2);
  opts.spawn_remote_loopback = false;  // the partition: nobody dials
  opts.remote_connect_grace_seconds = 0.3;
  DecodeService svc(kDim, kDim, opts);

  const Deadline::Clock::time_point t0 = Deadline::Clock::now();
  const ServiceFrameResult res = svc.process(frame);
  const double elapsed =
      std::chrono::duration<double>(Deadline::Clock::now() - t0).count();
  expect_bit_exact(res.frame, want);

  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_EQ(h.tiles_in_process, 4u);
  EXPECT_EQ(h.tiles_completed, 0u);
  EXPECT_EQ(svc.healthy_remote_workers(), 0u);
  EXPECT_GE(elapsed, 0.3);  // waited out the grace before degrading
  for (const TileReport& t : res.report.tile_reports) {
    EXPECT_TRUE(t.in_process);
    EXPECT_FALSE(t.remote);
  }

  // A partitioned service keeps serving (still all in-process, now without
  // re-waiting the grace — the slots are already disconnected).
  const ServiceFrameResult again = svc.process(frame);
  EXPECT_TRUE(la::all_finite(again.frame));
  EXPECT_EQ(svc.health().frames_lost, 0u);
}

TEST(RemoteFleet, MixedFleetRecoversFaultsOnBothLinkKinds) {
  // Link 0 is forked and SIGKILLs itself on its first tile; link 1 is TCP
  // and flips a bit in its first response. Both failure paths run in one
  // fleet, and every frame still stitches bit-exact.
  ServiceOptions opts = remote_options(1);
  opts.workers = 1;
  opts.fault_injection.resize(2);
  opts.fault_injection[0].kill_after_tiles = 0;
  opts.fault_injection[1].corrupt_after_tiles = 0;
  DecodeService ref(kDim, kDim, remote_options(0));
  DecodeService svc(kDim, kDim, opts);
  // The TCP link only takes tiles once its handshake is through, so keep
  // decoding (a few frames at most) until its first response was rejected.
  for (std::uint64_t s = 1; s <= 4 && svc.health().checksum_rejects == 0;
       ++s) {
    const la::Matrix frame = thermal_frame(kDim, s);
    const ServiceFrameResult a = ref.process(frame);
    const ServiceFrameResult res = svc.process(frame);
    expect_bit_exact(res.frame, a.frame);
  }
  const ServiceHealth h = svc.health();
  EXPECT_EQ(h.frames_lost, 0u);
  EXPECT_GE(h.worker_crashes, 1u);    // the forked link's self-kill
  EXPECT_GE(h.checksum_rejects, 1u);  // the TCP link's bit flip
}

// --- handshake policy -------------------------------------------------------

TEST(RemoteFleet, SeedMismatchIsRefusedAtHandshake) {
  // A worker configured with a different base seed would decode tiles that
  // are NOT bit-identical to the broker's reference — the handshake must
  // refuse it, and the worker must exit rather than retry the same
  // parameters.
  ServiceOptions opts = remote_options(1);
  opts.spawn_remote_loopback = false;
  opts.remote_connect_grace_seconds = 0.5;
  DecodeService svc(kDim, kDim, opts);
  ASSERT_NE(svc.listen_port(), 0);

  const pid_t pid = ::fork();  // flexcs-lint: allow(threading)
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RemoteWorkerConfig cfg;
    cfg.port = svc.listen_port();
    cfg.worker.padded_rows = svc.grid().padded_rows;
    cfg.worker.padded_cols = svc.grid().padded_cols;
    cfg.worker.solver = fista();
    cfg.worker.seed = 0xBAD5EEDu;  // != the broker's 0xFEED
    cfg.max_connect_attempts = 8;
    std::_Exit(remote_decode_worker_loop(cfg));
  }

  // The broker only accepts and handshakes inside its pump, so drive it.
  const la::Matrix frame = thermal_frame(kDim, 7);
  const ServiceFrameResult res = svc.process(frame);
  EXPECT_TRUE(la::all_finite(res.frame));
  EXPECT_GE(svc.health().handshake_failures, 1u);
  EXPECT_EQ(svc.healthy_remote_workers(), 0u);
  EXPECT_EQ(svc.health().frames_lost, 0u);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);  // flexcs-lint: allow(threading)
  ASSERT_TRUE(WIFEXITED(status));
  // 7 = handshake rejected; 6 tolerated for the race where the refusal's
  // ack is cut off by the broker's close and the budget drains instead.
  EXPECT_TRUE(WEXITSTATUS(status) == 7 || WEXITSTATUS(status) == 6)
      << "exit=" << WEXITSTATUS(status);
}

TEST(RemoteFleet, ValidatesRemoteOptions) {
  {
    ServiceOptions opts = remote_options(1);
    opts.remote_connect_grace_seconds = -1.0;
    EXPECT_THROW(DecodeService(kDim, kDim, opts), CheckError);
  }
  {
    ServiceOptions opts = remote_options(1);
    opts.ping_interval_seconds = 0.0;
    EXPECT_THROW(DecodeService(kDim, kDim, opts), CheckError);
  }
  {
    ServiceOptions opts = remote_options(1);
    opts.max_remote_reconnects = -1;
    EXPECT_THROW(DecodeService(kDim, kDim, opts), CheckError);
  }
}

TEST(RemoteFleet, CloseReapsEveryChild) {
  // A mixed fleet whose TCP worker sleeps through a 30 s stall: the broker's
  // heartbeat tears its connection down, but the loopback process is still
  // asleep when close() runs and never reads the shutdown message. close()
  // must SIGKILL it after the grace window and reap it along with the forked
  // worker, so no child of this process outlives the service.
  ServiceOptions opts = remote_options(1);
  opts.workers = 1;
  opts.heartbeat_floor_seconds = 0.3;
  opts.fault_injection.resize(2);
  opts.fault_injection[1].stall_after_tiles = 0;
  opts.fault_injection[1].stall_seconds = 30.0;
  DecodeService svc(kDim, kDim, opts);
  for (std::uint64_t s = 1; s <= 4 && svc.health().read_timeouts == 0; ++s)
    EXPECT_TRUE(la::all_finite(svc.process(thermal_frame(kDim, s)).frame));
  EXPECT_GE(svc.health().read_timeouts, 1u);  // the TCP worker is stalled

  svc.close();
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);  // flexcs-lint: allow(threading)
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace flexcs::runtime
