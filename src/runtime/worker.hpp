// The worker side of the multi-process decode service: one blocking serve
// loop that reads TileRequests off a stream socket, decodes each tile through
// its own RobustPipeline, and writes TileResponses back. The same loop runs
// behind both link kinds: a forked worker serves its socketpair until the
// transport drops, a remote worker dials the broker over TCP, handshakes, and
// re-dials whenever the transport drops. Forked workers are not exec'd, so
// configuration arrives structurally through the inherited WorkerConfig —
// only handshakes, pings, tile requests and responses cross the wire.
//
// Determinism contract: a tile's sampling pattern is seeded from
// (base seed, frame_index, tile_index) via tile_seed(), and frame_index keys
// its measurement faults; neither comes from worker identity or dispatch
// order. Any process — a worker, a respawned worker, or
// the broker's in-process fallback — decoding the same tile therefore draws
// the same pattern and produces a bit-identical reconstruction, which is what
// lets the supervisor re-dispatch a failed worker's tile without changing
// the stitched frame at all.
//
// The built-in fault injection exists for the supervision tests and the
// fault benches: it makes a worker crash, wedge, corrupt or cut its own wire
// output, or misbehave while dialing, at deterministic points so every
// failure path of the broker can be driven repeatably.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/pipeline.hpp"
#include "runtime/wire.hpp"
#include "solvers/solver.hpp"

namespace flexcs::runtime {

/// Deterministic fault injection for one worker process, either link kind.
/// Counters are in handled tiles and live for the whole process — across
/// reconnects of a remote worker — so a fault fires once per process and a
/// reconnect serves cleanly. `kill_after_tiles = K` means the worker serves K
/// tiles and SIGKILLs itself upon consuming request K+1 (a crash mid-decode:
/// the request is gone, no response will ever come). Negative values disable
/// an injection.
struct WorkerFaultInjection {
  // raise(SIGKILL) after consuming the (K+1)-th request.
  std::int32_t kill_after_tiles = -1;
  // Go silent this long before responding to the (K+1)-th request (a wedged
  // worker or half-open connection; the broker's heartbeat recovers it).
  std::int32_t stall_after_tiles = -1;
  double stall_seconds = 0.0;
  // Flip one payload bit in the encoded response of the (K+1)-th request
  // (checksum reject at the broker).
  std::int32_t corrupt_after_tiles = -1;
  // Send only the first half of the response of the (K+1)-th request, then
  // drop the transport (a truncated message at the broker). A forked worker
  // exits; a remote worker re-dials.
  std::int32_t truncate_after_tiles = -1;
  // Forked links: apply the injection to every process respawned into the
  // link, not just the first (the bench's sustained-crash-rate knob).
  bool persist_across_respawn = false;
  // Remote links: fail the first N connect attempts locally before dialing
  // (indistinguishable from connection-refused at the reconnect loop).
  std::int32_t refuse_connects = -1;
  // Remote links: complete the handshake, then immediately drop the
  // connection, for the first N admitted connections (a flapping peer).
  std::int32_t flap_connects = -1;
  // Sleep this long before every response (delayed delivery).
  double delay_seconds = 0.0;
};

/// Everything a worker process needs, inherited through fork().
struct WorkerConfig {
  std::size_t padded_rows = 0;   // tile geometry the pipeline decodes
  std::size_t padded_cols = 0;
  RobustPipelineOptions pipeline;
  std::shared_ptr<const solvers::SparseSolver> solver;  // null = default
  std::uint64_t seed = 0;        // base seed for tile_seed()
  WorkerFaultInjection faults;
};

/// Seed of tile (frame_index, tile_index)'s sampling pattern: a SplitMix64
/// finalizer over the base seed and the tile's global identity. Identical in
/// every process, independent of dispatch order.
std::uint64_t tile_seed(std::uint64_t base, std::uint64_t frame_index,
                        std::uint64_t tile_index);

/// Decodes one tile request. Shared by worker processes and the broker's
/// in-process fallback so the two paths stay bit-identical by construction.
/// `cancel` is the broker's own token (a token cannot cross the wire); an
/// inert one does not perturb the solve.
RobustPipeline::FrameResult decode_tile(RobustPipeline& pipeline,
                                        const wire::TileRequest& req,
                                        std::uint64_t base_seed,
                                        const CancelToken& cancel = {});

/// The forked worker main loop: serves tile requests on `fd` until a
/// shutdown message or until the transport drops (EOF, transport error, a
/// corrupt message, or an injected truncation). Returns the process exit
/// code: 0 on either, 5 on an internal decode failure. Never throws — a
/// worker that dies must die by exit code or signal, not by unwinding into
/// the forked runtime.
int decode_worker_loop(int fd, const WorkerConfig& cfg);

/// Everything a remote worker process needs to join a broker's fleet.
struct RemoteWorkerConfig {
  std::string host = "127.0.0.1";  // broker listener address (IPv4 dotted quad)
  std::uint16_t port = 0;          // broker listener port
  WorkerConfig worker;             // decode config; must match the broker's
  // Reconnect policy: capped exponential backoff between attempts, with a
  // finite attempt budget so a dead broker cannot pin the process forever.
  std::int32_t max_connect_attempts = 64;
};

/// The remote worker main loop: connect to the broker, handshake (wire
/// version + capability + geometry/seed agreement), run the same serve loop
/// as decode_worker_loop, and on ANY disconnect reconnect with capped
/// exponential backoff until the attempt budget is spent. Faults come from
/// `cfg.worker.faults`. Exit codes: 0 orderly shutdown, 5 internal decode
/// failure, 6 connect budget exhausted, 7 handshake rejected by the broker.
/// Never throws, same contract as decode_worker_loop.
int remote_decode_worker_loop(const RemoteWorkerConfig& cfg);

}  // namespace flexcs::runtime
