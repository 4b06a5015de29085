#include "runtime/worker.hpp"

#include <time.h>  // nanosleep: interruptible, so SIGKILL lands mid-stall
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "runtime/net.hpp"

namespace flexcs::runtime {
namespace {

// Interruptible sleep for the stall injection. nanosleep (not
// std::this_thread::sleep_for) so the loop stays signal-transparent: a
// SIGKILL from the supervisor terminates the stall immediately.
void stall_for(double seconds) {
  if (seconds <= 0.0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  timespec rem;
  while (::nanosleep(&ts, &rem) != 0) ts = rem;
}

// serve_connection's result when the broker did not ask for a shutdown: the
// transport dropped. A forked worker exits on it; a remote worker re-dials.
constexpr int kTransportDropped = -1;

// Remote worker dialing: per-attempt connect timeout, and the capped
// exponential backoff between attempts (base * 2^(failures-1), capped).
constexpr double kConnectTimeoutSeconds = 2.0;
constexpr double kConnectBackoffBaseSeconds = 0.01;
constexpr double kConnectBackoffCapSeconds = 0.5;

// Serves tile requests on one established stream: a forked worker's
// socketpair, or a remote worker's post-handshake TCP connection. `handled`
// counts tiles across the process lifetime so fault-injection counters
// survive reconnects. `inbuf` carries any bytes the broker pipelined behind
// the HelloAck. Returns 0 on a shutdown message, kTransportDropped otherwise.
int serve_connection(int fd, const RobustPipeline& pipeline,
                     const WorkerConfig& cfg,
                     std::vector<std::uint8_t>& inbuf, std::int32_t& handled) {
  const WorkerFaultInjection& f = cfg.faults;
  const auto fires = [&handled](std::int32_t after) {
    return after >= 0 && handled == after;
  };
  for (;;) {
    wire::Message msg;
    if (wire::read_message(fd, inbuf, msg) != wire::ReadStatus::kMessage)
      return kTransportDropped;  // EOF, transport error, or corrupt bytes
    if (msg.type == wire::MessageType::kShutdown) return 0;
    if (msg.type == wire::MessageType::kPing) {
      const std::vector<std::uint8_t> pong =
          wire::encode_message(wire::MessageType::kPong, {});
      if (!wire::send_message(fd, pong)) return kTransportDropped;
      continue;
    }
    if (msg.type != wire::MessageType::kTileRequest) return kTransportDropped;

    // Crash injection: the request is consumed but never answered — from
    // the broker's side this is a worker dying mid-decode.
    if (f.kill_after_tiles >= 0 && handled >= f.kill_after_tiles)
      ::raise(SIGKILL);

    const wire::TileRequest req = wire::decode_tile_request(msg);
    RobustPipeline::FrameResult result = decode_tile(pipeline, req, cfg.seed);
    wire::TileResponse resp;
    resp.seq = req.seq;
    resp.tile = std::move(result.frame);
    resp.report = std::move(result.report);
    std::vector<std::uint8_t> bytes = wire::encode_tile_response(resp);

    // Flip one bit in the middle of the payload: framing stays intact, the
    // checksum does not.
    if (fires(f.corrupt_after_tiles)) bytes[bytes.size() / 2] ^= 0x20u;
    if (fires(f.stall_after_tiles)) stall_for(f.stall_seconds);
    stall_for(f.delay_seconds);
    if (fires(f.truncate_after_tiles)) {
      // Half a message, then the transport dies.
      const std::vector<std::uint8_t> half(
          bytes.begin(),
          bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2));
      wire::send_message(fd, half);
      ++handled;  // the injection fired; a reconnect serves cleanly
      return kTransportDropped;
    }
    if (!wire::send_message(fd, bytes)) return kTransportDropped;
    ++handled;
  }
}

}  // namespace

std::uint64_t tile_seed(std::uint64_t base, std::uint64_t frame_index,
                        std::uint64_t tile_index) {
  // SplitMix64 finalizer over the tile's global identity. The odd constants
  // separate frame and tile axes so (f=1, t=0) and (f=0, t=1) do not collide.
  std::uint64_t z = base ^ (frame_index * 0x9E3779B97F4A7C15ull) ^
                    (tile_index * 0xC2B2AE3D27D4EB4Full + 0xD6E8FEB86659FD93ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

RobustPipeline::FrameResult decode_tile(const RobustPipeline& pipeline,
                                        const wire::TileRequest& req,
                                        std::uint64_t base_seed,
                                        const CancelToken& cancel) {
  FrameControl ctrl;
  if (req.deadline_seconds > 0.0)
    ctrl.solve.deadline = Deadline::after(req.deadline_seconds);
  ctrl.solve.cancel = cancel;
  Rng rng(tile_seed(base_seed, req.frame_index, req.tile_index));
  return pipeline.process(req.tile, static_cast<std::size_t>(req.frame_index),
                          rng, ctrl);
}

int decode_worker_loop(int fd, const WorkerConfig& cfg) {
  FLEXCS_CHECK(fd >= 0, "worker loop needs a valid transport fd");
  FLEXCS_CHECK(cfg.padded_rows > 0 && cfg.padded_cols > 0,
               "worker loop over an empty tile geometry");
  // Everything below must not unwind: the worker runs in a forked copy of
  // the broker, and an exception escaping here would run the broker's atexit
  // machinery twice. Failures become exit codes instead.
  try {
    const RobustPipeline pipeline(cfg.padded_rows, cfg.padded_cols,
                                  cfg.pipeline, cfg.solver);
    std::vector<std::uint8_t> inbuf;
    std::int32_t handled = 0;
    // Shutdown or a dropped transport: either way the broker is done with
    // this process (it respawns a fresh one if it still wants the link).
    serve_connection(fd, pipeline, cfg, inbuf, handled);
    return 0;
  } catch (...) {
    return 5;  // CheckError or allocation failure inside the decode
  }
}

int remote_decode_worker_loop(const RemoteWorkerConfig& cfg) {
  FLEXCS_CHECK(cfg.port != 0, "remote worker needs the broker's port");
  FLEXCS_CHECK(cfg.worker.padded_rows > 0 && cfg.worker.padded_cols > 0,
               "remote worker over an empty tile geometry");
  FLEXCS_CHECK(cfg.max_connect_attempts > 0,
               "remote worker needs a positive connect budget");
  // Same no-unwind contract as decode_worker_loop: loopback remote workers
  // are forked copies of the broker.
  try {
    const RobustPipeline pipeline(cfg.worker.padded_rows,
                                  cfg.worker.padded_cols, cfg.worker.pipeline,
                                  cfg.worker.solver);
    std::int32_t handled = 0;    // tiles served, across all connections
    std::int32_t attempts = 0;   // dial attempts, against the budget
    std::int32_t failures = 0;   // consecutive failures, drives backoff
    std::int32_t refused = 0;    // refuse-injection uses
    std::int32_t flapped = 0;    // flap-injection uses
    for (;;) {
      if (attempts >= cfg.max_connect_attempts) return 6;
      if (failures > 0) {
        const double backoff =
            std::min(kConnectBackoffCapSeconds,
                     kConnectBackoffBaseSeconds *
                         static_cast<double>(1u << std::min(failures - 1, 16)));
        stall_for(backoff);
      }
      ++attempts;

      const WorkerFaultInjection& f = cfg.worker.faults;
      if (f.refuse_connects >= 0 && refused < f.refuse_connects) {
        ++refused;  // connection refused, injected before dialing
        ++failures;
        continue;
      }
      const int fd =
          net::connect_to(cfg.host, cfg.port, kConnectTimeoutSeconds);
      if (fd < 0) {
        ++failures;
        continue;
      }

      // Handshake: announce version, capability, and decode parameters; the
      // broker refuses anything that would break cross-host determinism.
      wire::HelloRequest hello;
      hello.padded_rows = cfg.worker.padded_rows;
      hello.padded_cols = cfg.worker.padded_cols;
      hello.seed = cfg.worker.seed;
      std::vector<std::uint8_t> inbuf;
      wire::Message msg;
      if (!wire::send_message(fd, wire::encode_hello(hello)) ||
          wire::read_message(fd, inbuf, msg) != wire::ReadStatus::kMessage ||
          msg.type != wire::MessageType::kHelloAck) {
        ::close(fd);
        ++failures;
        continue;
      }
      const wire::HelloAck ack = wire::decode_hello_ack(msg);
      if (!ack.accepted) {
        // A reasoned refusal is a policy decision, not a transient fault —
        // retrying would only hammer the broker with the same parameters.
        ::close(fd);
        return 7;
      }
      if (f.flap_connects >= 0 && flapped < f.flap_connects) {
        ++flapped;  // flapping peer: admitted, then immediately gone
        ::close(fd);
        ++failures;
        continue;
      }

      failures = 0;  // healthy connection: reset the backoff ladder
      const int code =
          serve_connection(fd, pipeline, cfg.worker, inbuf, handled);
      ::close(fd);
      if (code != kTransportDropped) return code;
      failures = 1;  // disconnect: re-dial after one base backoff step
    }
  } catch (...) {
    return 5;  // CheckError or allocation failure inside the decode
  }
}

}  // namespace flexcs::runtime
