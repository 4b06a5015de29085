// Crash-tolerant multi-process decode service: a single-threaded broker that
// decodes one frame per process() call. It scatters the frame's tiles over
// a heterogeneous fleet — forked local worker processes over socketpairs
// plus remote workers over TCP (see net.hpp / DESIGN.md §9) — and stitches
// the results through the same TileFrontEnd as ShardedDecoder (shard.hpp),
// with its activity gate off. A worker is a
// *process* (possibly on another host), so a crashed, wedged, partitioned,
// or byte-corrupting worker cannot take the frame (or the service) down
// with it.
//
// Every worker sits behind one supervised link: a net::Connection plus one
// dispatch slot, one heartbeat and one latency EWMA, driven by one state
// machine (DESIGN.md §8):
//
//   connecting → handshaking → healthy → reconnecting
//                                      → disconnected
//
// The only per-kind difference is whether the link owns its worker's pid. A
// forked link does: it is spawned straight into healthy, and on failure the
// broker SIGKILLs, reaps and respawns it (disconnected once the respawn
// budget is gone). A TCP link does not: on failure the broker waits for the
// peer to re-dial, within the connect grace. The pid bit also picks which
// ServiceHealth counter a failure bumps, and arms the half-open backstops
// (idle ping, read timeout) that only TCP needs — a socketpair always
// reports peer death as EOF.
//
// Dispatch is weighted: among idle healthy links the one with the lowest
// EWMA per-tile latency gets the next tile, so a slow WAN link naturally
// starves while a fast local worker fills. Degradation order under failure
// is remote → local-forked → in-process; the last rung never fails, so
// frames_lost stays 0 through a full network partition.
//
//   - a link whose transport EOFs or errors is a crash / disconnect;
//   - a dispatched tile with no response within the heartbeat timeout
//     (max(heartbeat_floor_seconds, 4 x tile deadline + slack)) is a stall;
//   - a response that fails the wire checksum (or lies structurally) poisons
//     the byte stream;
//   - each failure tears the link down (see above) and re-dispatches its
//     in-flight tile with a retry budget and exponential backoff; a tile
//     that exhausts it is decoded in-process by the broker itself, as is
//     everything else once the fleet has no prospects left — graceful
//     degradation, never a hang or a lost frame.
//
// Determinism: tile sampling patterns are seeded from (seed, frame, tile),
// with frame the running count of process() calls — see worker.hpp — so a
// re-dispatched or fallback-decoded tile is bit-identical to the one the
// dead worker would have produced. Fault injection therefore changes health
// counters, never pixels.
//
// Threading: the broker is deliberately single-threaded (poll-based event
// loop, no std::thread anywhere), which keeps fork() safe at any time — a
// forked child of a multi-threaded process inherits locked mutexes it can
// never unlock. NOT thread-safe: one caller thread, like ShardedDecoder.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/net.hpp"
#include "runtime/shard.hpp"
#include "runtime/worker.hpp"

namespace flexcs::runtime {

struct ServiceOptions {
  std::size_t tile_rows = kDefaultTileSide;  // must divide the frame rows
  std::size_t tile_cols = kDefaultTileSide;  // must divide the frame cols
  std::size_t halo = kDefaultHalo;  // replicated-border pixels per tile side
  // Worker processes to fork. 0 runs every tile in-process (no forks) — the
  // same code path the supervisor degrades to when the fleet collapses.
  std::size_t workers = 2;
  // Heartbeat timeout: a dispatched tile unanswered for
  //   max(heartbeat_floor_seconds, 4 * tile deadline + slack)
  // marks its worker stalled (SIGKILL + respawn + re-dispatch). The tile
  // deadline is the caller's SolveOptions deadline; with neither set, wedge
  // detection is off — crashes are still caught via EOF.
  double heartbeat_floor_seconds = 0.0;
  // Wire dispatch attempts per tile before the broker decodes it in-process.
  int tile_retry_budget = 3;
  // Fleet-wide respawn budget. Exhausted + zero live workers = collapse:
  // every remaining tile decodes in-process.
  int max_respawns = 8;
  // Per-tile pipeline configuration, shared by workers and the in-process
  // fallback (identical construction is part of the determinism contract).
  RobustPipelineOptions pipeline;
  std::shared_ptr<const solvers::SparseSolver> solver;  // null = FISTA
  std::uint64_t seed = 0x5eed;
  // Deterministic fault injection, indexed by link: the `workers` forked
  // links first, then the `remote_workers` TCP links (which take it only
  // when loopback-forked). Shorter vectors leave the remaining links
  // fault-free. Drives the supervision tests and the fault benches.
  std::vector<WorkerFaultInjection> fault_injection;

  // --- remote TCP fleet (multi-host scale-out) ---
  // Remote worker links. > 0 makes the broker listen on listen_host:
  // listen_port and admit workers that pass the handshake (wire version,
  // kCapTileDecode, matching tile geometry and seed). Remote and forked
  // workers serve one fleet behind the same dispatch interface.
  std::size_t remote_workers = 0;
  // Fork one local process per remote link running remote_decode_worker_loop
  // against our own listener — the deterministic loopback topology the tests
  // and bench use. External processes join a real deployment through the
  // same loop + listen_port().
  bool spawn_remote_loopback = true;
  // Deployment settings: a real broker binds its public address here.
  std::string listen_host = "127.0.0.1";  // flexcs-lint: allow(unset-option)
  // 0 = ephemeral; resolved via listen_port().
  std::uint16_t listen_port = 0;  // flexcs-lint: allow(unset-option)
  // How long a remote link may sit connecting / handshaking / reconnecting
  // before the broker stops treating it as a prospect and routes its tiles
  // to the forked fleet or in-process — the bound on how long a full network
  // partition can delay a frame.
  double remote_connect_grace_seconds = 2.0;
  // Idle-connection keepalive: ping an idle healthy remote after this long
  // without traffic; no pong (or no bytes on a busy dispatch whose heartbeat
  // is disabled) within remote_read_timeout_seconds tears the connection
  // down. Busy dispatches use the heartbeat formula above, like forked
  // workers.
  double ping_interval_seconds = 0.25;
  double remote_read_timeout_seconds = 1.0;
  // Fleet-wide budget of remote re-admissions after a disconnect; exhausted
  // means a flapping peer is refused (HelloReject::kBudgetExhausted) instead
  // of thrashing the dispatch loop forever.
  int max_remote_reconnects = 64;
};

/// Cumulative service telemetry (since construction). Every supervision
/// event is observable here; frames_lost is the invariant the whole design
/// defends — it stays 0 through crashes, stalls, and wire corruption.
struct ServiceHealth {
  std::size_t frames_submitted = 0;
  std::size_t frames_completed = 0;
  std::size_t frames_lost = 0;  // submitted but never stitched (target: 0)
  std::size_t tiles_dispatched = 0;  // wire dispatches, retries included
  std::size_t tiles_completed = 0;   // stitched from worker responses
  std::size_t tile_redispatches = 0;  // dispatches after a failure
  std::size_t tiles_in_process = 0;   // broker-fallback decodes
  std::size_t worker_crashes = 0;  // unexpected exits / EOFs
  std::size_t worker_stalls = 0;   // heartbeat timeouts (SIGKILLed)
  std::size_t worker_respawns = 0;
  std::size_t checksum_rejects = 0;  // corrupt or truncated wire messages
  std::size_t stale_responses = 0;   // responses for a dead dispatch
  std::size_t deadline_expired_tiles = 0;
  // Remote (TCP) fleet counters.
  std::size_t remote_connects = 0;     // first-time handshake admissions
  std::size_t remote_reconnects = 0;   // re-admissions after a disconnect
  std::size_t remote_disconnects = 0;  // connection losses (EOF, write fail)
  std::size_t handshake_failures = 0;  // rejected or malformed hellos
  std::size_t read_timeouts = 0;       // remote heartbeat / pong timeouts
  std::size_t redispatches_on_disconnect = 0;  // in-flight tiles requeued
                                               // when their connection died

  /// One flat JSON object, every counter by name — the bench and external
  /// health scrapes consume this instead of reaching into the struct.
  std::string to_json() const;
};

struct ServiceFrameResult {
  la::Matrix frame;  // stitched reconstruction
  // Per-tile attribution incl. dispatch_attempts; report.decode_seconds is
  // the frame's latency (process() entry → stitched).
  ShardReport report;
  bool dropped = false;  // always false: every frame is decoded
};

/// The broker. Forks its workers at construction, supervises them across
/// process() calls, and reaps them at close()/destruction.
class DecodeService {
 public:
  DecodeService(std::size_t rows, std::size_t cols, ServiceOptions opts = {});
  ~DecodeService();  // close()

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  const TileGrid& grid() const { return front_.grid(); }
  std::size_t shards() const { return front_.grid().tiles(); }

  /// Decodes one frame through the worker fleet. `ctrl.deadline` tightens
  /// every tile's solve budget; `ctrl.cancel` is honoured for tiles not yet
  /// dispatched (they return best-partial in-process immediately) — a token
  /// cannot cross the process boundary, so in-flight tiles run to their own
  /// deadline/heartbeat bound.
  ServiceFrameResult process(const la::Matrix& frame,
                             const solvers::SolveOptions& ctrl = {});

  ServiceHealth health() const { return health_; }
  std::size_t live_workers() const;
  /// TCP links currently admitted (handshake complete, connection up).
  std::size_t healthy_remote_workers() const;
  /// The broker's bound listener port (0 when no remote fleet). External
  /// remote workers dial this with remote_decode_worker_loop.
  std::uint16_t listen_port() const {
    return listener_.listening() ? listener_.port() : 0;
  }

  /// Shuts the fleet down (orderly, then SIGKILL after the grace window)
  /// and reaps every child. Idempotent; called by the destructor. Further
  /// process() calls are rejected.
  void close();

 private:
  struct TileState {
    enum class Stage : std::uint8_t { kPending, kDispatched, kDone };
    Stage stage = Stage::kPending;
    int attempts = 0;  // wire dispatches consumed
    Deadline::Clock::time_point eligible_at{};  // backoff gate
  };

  /// One supervised worker link (state machine in the header comment). A
  /// forked link owns its worker's pid; a TCP link owns only the connection
  /// — the peer process decides when to (re)dial, the broker whether to
  /// admit it.
  struct Link {
    enum class State : std::uint8_t {
      kConnecting,    // never connected; awaiting the first dial
      kHandshaking,   // connection bound; awaiting a valid Hello
      kHealthy,       // dispatchable (forked links are spawned into it)
      kReconnecting,  // connection lost; still a prospect within the grace
      kDisconnected,  // grace expired, refused, or respawn budget gone
    };
    bool owns_pid = false;  // forked: SIGKILL + reap + respawn on failure
    pid_t pid = -1;
    int spawn_count = 0;  // processes ever spawned into this link
    State state = State::kConnecting;
    net::Connection conn;
    bool ever_connected = false;  // admitted at least once (reconnect budget)
    Deadline::Clock::time_point state_since{};
    Deadline::Clock::time_point last_activity{};  // bytes seen / admission
    bool ping_outstanding = false;
    Deadline::Clock::time_point ping_sent_at{};
    // Current dispatch (one in flight per worker), a tile of the open frame.
    bool busy = false;
    std::size_t job_tile = 0;
    std::uint64_t seq = 0;
    Deadline::Clock::time_point dispatched_at{};
    double heartbeat_seconds = 0.0;  // <= 0 disables the wedge timeout
    // EWMA of observed per-tile latency, the weighted-dispatch key. 0 until
    // the first completion, so fresh workers are probed first.
    double ewma_tile_seconds = 0.0;
  };

  enum class FailureKind { kDrop, kTimeout, kCorrupt };

  /// Decode config plus link `index`'s fault injection (a respawned process
  /// runs clean unless the injection persists).
  WorkerConfig worker_config(std::size_t index) const;
  /// Forks a worker process into forked link `index` over a new socketpair.
  void spawn_worker(std::size_t index);
  /// Forks one loopback process per TCP link, each running
  /// remote_decode_worker_loop against our listener.
  void spawn_loopback_remotes();
  /// In a freshly forked child: closes every broker fd it inherited (link
  /// connections, the listener), so a dead broker reads as EOF there and the
  /// child cannot hold a sibling's transport open.
  void close_inherited_fds();
  /// The one failure path: counters, connection teardown, in-flight tile
  /// requeue. A forked link is then SIGKILLed, reaped and respawned (budget
  /// permitting); a TCP link moves to reconnecting — its peer owns the
  /// re-dial.
  void handle_link_failure(std::size_t index, FailureKind kind,
                           const solvers::SolveOptions& ctrl);
  /// Returns the tile to kPending with backoff, or decodes it in-process
  /// once its retry budget is gone.
  void fail_tile(std::size_t tile, const solvers::SolveOptions& ctrl);
  void decode_tile_in_process(std::size_t tile,
                              const solvers::SolveOptions& ctrl);
  wire::TileRequest make_request(std::size_t tile,
                                 const solvers::SolveOptions& ctrl) const;
  /// Sends one tile to an idle healthy link; a send failure is handled as a
  /// dropped transport (the tile is requeued by the failure path).
  void dispatch_tile(std::size_t index, std::size_t tile,
                     const solvers::SolveOptions& ctrl);
  void complete_tile(std::size_t tile, const la::Matrix& padded,
                     RecoveryReport report, bool in_process, bool remote);
  /// Services one polled link: flushes queued writes, drains the socket,
  /// and handles every complete message (Hello while handshaking, Pong /
  /// TileResponse when healthy) — even when the peer closed right after
  /// writing them. EOF and bad bytes go to handle_link_failure.
  void collect_link(std::size_t index, short revents,
                    Deadline::Clock::time_point now,
                    const solvers::SolveOptions& ctrl);
  /// Validates a handshaking link's Hello: admits the peer (healthy),
  /// refuses it for good (disconnected), or drops a malformed one
  /// (reconnecting). Returns false when the connection was closed.
  bool admit_hello(std::size_t index, const wire::Message& msg,
                   const solvers::SolveOptions& ctrl);
  /// Accepts every pending connection and binds each to a free TCP link
  /// (connecting / reconnecting first, then a revivable disconnected one);
  /// with no link free the connection is closed and the peer retries.
  void accept_remote_connections(Deadline::Clock::time_point now);
  /// One supervision round over the open frame: poll/read/collect,
  /// heartbeat scan, dispatch.
  void pump(const solvers::SolveOptions& ctrl);
  /// True while any worker could still take a tile: a healthy link, or a
  /// TCP link plausibly about to (re)connect — within the connect grace.
  /// In-process fallback engages only when this goes false, so a full
  /// partition degrades instead of hanging.
  bool fleet_has_prospects(Deadline::Clock::time_point now) const;

  ServiceOptions opts_;
  // Ungated: every tile of every frame is a job, so tiles_ covers the grid.
  TileFrontEnd front_;
  std::vector<Link> links_;  // `workers` forked links, then the TCP links
  net::Listener listener_;
  std::vector<pid_t> loopback_pids_;  // forked TCP workers, for reaping
  ServiceHealth health_;
  std::vector<TileState> tiles_;  // dispatch state of the open frame's tiles
  const RobustPipeline in_process_;  // the broker's fallback decoder
  std::uint64_t next_seq_ = 1;
  int respawns_used_ = 0;
  int remote_reconnects_used_ = 0;
  bool closed_ = false;
};

}  // namespace flexcs::runtime
