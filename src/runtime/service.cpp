#include "runtime/service.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace flexcs::runtime {
namespace {

ServiceOptions validated(ServiceOptions opts) {
  FLEXCS_CHECK(opts.tile_retry_budget >= 0,
               "tile retry budget must be non-negative");
  FLEXCS_CHECK(opts.max_respawns >= 0, "respawn budget must be non-negative");
  FLEXCS_CHECK(opts.heartbeat_floor_seconds >= 0.0,
               "heartbeat timeout must be non-negative");
  FLEXCS_CHECK(opts.remote_connect_grace_seconds >= 0.0,
               "remote connect grace must be non-negative");
  FLEXCS_CHECK(opts.ping_interval_seconds > 0.0 &&
                   opts.remote_read_timeout_seconds > 0.0,
               "remote keepalive intervals must be positive");
  FLEXCS_CHECK(opts.max_remote_reconnects >= 0,
               "remote reconnect budget must be non-negative");
  return opts;
}

double seconds_since(Deadline::Clock::time_point from,
                     Deadline::Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Deadline::Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Deadline::Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Deadline-derived heartbeat: a dispatched tile unanswered for this multiple
// of its solve deadline, plus a constant slack, marks its worker stalled. The
// slack covers wire round-trip and serialization time on top of the solve
// budget, so a very tight tile deadline does not read as a wedged worker.
constexpr double kHeartbeatMultiplier = 4.0;
constexpr double kHeartbeatSlackSeconds = 0.05;

// Re-dispatch backoff: attempt k waits kRetryBackoffSeconds * 2^(k-1),
// capped. Keeps a crash-looping tile from hammering the fleet.
constexpr double kRetryBackoffSeconds = 0.002;
constexpr double kRetryBackoffCapSeconds = 0.05;

// close(): orderly-shutdown window before stragglers are SIGKILLed.
constexpr double kShutdownGraceSeconds = 0.2;

// Smoothing factor for the per-link EWMA of observed tile latency that keys
// weighted dispatch. A link with no observation yet scores 0, so fresh
// capacity is probed before proven-slow capacity is reused.
constexpr double kEwmaAlpha = 0.3;

// Interruptible 1 ms nap for the shutdown grace loop (the pump itself never
// sleeps — it waits in poll()).
void nap_briefly() {
  timespec ts{0, 1000000L};
  ::nanosleep(&ts, nullptr);
}

// Reaps `pids`: gives each up to `grace_seconds` to exit on its own, then
// SIGKILLs and reaps the stragglers. Safe on already-dead processes; a zero
// grace is an immediate SIGKILL + reap.
void reap_children(std::vector<pid_t> pids, double grace_seconds) {
  const Deadline grace = Deadline::after(grace_seconds);
  for (;;) {
    bool pending = false;
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno != EINTR)) {
        pid = -1;  // reaped (or not our child to reap)
      } else {
        pending = true;
      }
    }
    if (!pending || grace.expired()) break;
    nap_briefly();
  }
  for (const pid_t pid : pids) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace

std::string ServiceHealth::to_json() const {
  std::string out = "{";
  const auto field = [&out](const char* name, std::size_t value) {
    if (out.size() > 1) out += ", ";
    out += strformat("\"%s\": %zu", name, value);
  };
  field("frames_submitted", frames_submitted);
  field("frames_completed", frames_completed);
  field("frames_lost", frames_lost);
  field("tiles_dispatched", tiles_dispatched);
  field("tiles_completed", tiles_completed);
  field("tile_redispatches", tile_redispatches);
  field("tiles_in_process", tiles_in_process);
  field("worker_crashes", worker_crashes);
  field("worker_stalls", worker_stalls);
  field("worker_respawns", worker_respawns);
  field("checksum_rejects", checksum_rejects);
  field("stale_responses", stale_responses);
  field("deadline_expired_tiles", deadline_expired_tiles);
  field("remote_connects", remote_connects);
  field("remote_reconnects", remote_reconnects);
  field("remote_disconnects", remote_disconnects);
  field("handshake_failures", handshake_failures);
  field("read_timeouts", read_timeouts);
  field("redispatches_on_disconnect", redispatches_on_disconnect);
  out += "}";
  return out;
}

DecodeService::DecodeService(std::size_t rows, std::size_t cols,
                             ServiceOptions opts)
    : opts_(validated(std::move(opts))),
      front_(TileGrid(rows, cols, opts_.tile_rows, opts_.tile_cols,
                      opts_.halo)),
      in_process_(front_.grid().padded_rows, front_.grid().padded_cols,
                  opts_.pipeline, opts_.solver) {
  FLEXCS_CHECK(shards() >= 1, "decode service needs at least one tile");
  links_.resize(opts_.workers + opts_.remote_workers);
  const Deadline::Clock::time_point now = Deadline::Clock::now();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].owns_pid = i < opts_.workers;
    links_[i].state_since = now;
  }
  for (std::size_t i = 0; i < opts_.workers; ++i) spawn_worker(i);
  if (opts_.remote_workers > 0) {
    listener_ = net::Listener::open(opts_.listen_host, opts_.listen_port);
    if (opts_.spawn_remote_loopback) spawn_loopback_remotes();
  }
}

DecodeService::~DecodeService() { close(); }

std::size_t DecodeService::live_workers() const {
  std::size_t n = 0;
  for (const Link& link : links_)
    n += link.owns_pid && link.state == Link::State::kHealthy ? 1 : 0;
  return n;
}

std::size_t DecodeService::healthy_remote_workers() const {
  std::size_t n = 0;
  for (const Link& link : links_)
    n += !link.owns_pid && link.state == Link::State::kHealthy ? 1 : 0;
  return n;
}

bool DecodeService::fleet_has_prospects(
    Deadline::Clock::time_point now) const {
  for (const Link& link : links_) {
    switch (link.state) {
      case Link::State::kHealthy:
        return true;
      case Link::State::kConnecting:
      case Link::State::kHandshaking:
      case Link::State::kReconnecting:
        // A link plausibly about to (re)connect counts, but only within the
        // grace window — past it, waiting would turn a partition into a hang.
        if (seconds_since(link.state_since, now) <=
            opts_.remote_connect_grace_seconds)
          return true;
        break;
      case Link::State::kDisconnected:
        break;
    }
  }
  return false;
}

WorkerConfig DecodeService::worker_config(std::size_t index) const {
  WorkerConfig cfg;
  cfg.padded_rows = grid().padded_rows;
  cfg.padded_cols = grid().padded_cols;
  cfg.pipeline = opts_.pipeline;
  cfg.solver = opts_.solver;
  cfg.seed = opts_.seed;
  if (index < opts_.fault_injection.size()) {
    const WorkerFaultInjection& f = opts_.fault_injection[index];
    if (links_[index].spawn_count == 0 || f.persist_across_respawn)
      cfg.faults = f;
  }
  return cfg;
}

void DecodeService::close_inherited_fds() {
  for (Link& link : links_) link.conn.close();
  listener_.close();
}

void DecodeService::spawn_worker(std::size_t index) {
  Link& link = links_[index];
  const WorkerConfig cfg = worker_config(index);
  int sv[2] = {-1, -1};
  FLEXCS_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
               "socketpair failed");
  const pid_t pid = ::fork();
  FLEXCS_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    // Worker child: keep only our end of the pair.
    ::close(sv[0]);
    close_inherited_fds();
    const int code = decode_worker_loop(sv[1], cfg);
    ::close(sv[1]);
    // _Exit: no atexit handlers, no static destructors — they belong to the
    // broker image this process was forked from.
    std::_Exit(code);
  }
  ::close(sv[1]);
  net::set_nonblocking(sv[0], true);
  link.pid = pid;
  link.conn = net::Connection(sv[0]);
  link.state = Link::State::kHealthy;
  link.state_since = Deadline::Clock::now();
  ++link.spawn_count;
}

void DecodeService::spawn_loopback_remotes() {
  for (std::size_t i = opts_.workers; i < links_.size(); ++i) {
    RemoteWorkerConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = listener_.port();
    cfg.worker = worker_config(i);
    const pid_t pid = ::fork();
    FLEXCS_CHECK(pid >= 0, "fork failed");
    if (pid == 0) {
      // Remote worker child: it reaches the broker through TCP only, so the
      // listener must go above all (holding it open would keep the port
      // alive past the broker's close()).
      close_inherited_fds();
      std::_Exit(remote_decode_worker_loop(cfg));
    }
    loopback_pids_.push_back(pid);
  }
}

void DecodeService::handle_link_failure(std::size_t index, FailureKind kind,
                                        const solvers::SolveOptions& ctrl) {
  Link& link = links_[index];
  // One failure, a per-kind counter: a forked worker crashes or stalls, a
  // TCP peer disconnects or times out; corruption reads the same on both.
  switch (kind) {
    case FailureKind::kDrop:
      ++(link.owns_pid ? health_.worker_crashes : health_.remote_disconnects);
      break;
    case FailureKind::kTimeout:
      ++(link.owns_pid ? health_.worker_stalls : health_.read_timeouts);
      break;
    case FailureKind::kCorrupt:
      ++health_.checksum_rejects;
      break;
  }
  const bool had_tile = link.busy;
  link.conn.close();
  link.busy = false;
  link.ping_outstanding = false;
  link.state_since = Deadline::Clock::now();
  if (link.owns_pid) {
    reap_children({link.pid}, 0.0);
    link.pid = -1;
    link.state = Link::State::kDisconnected;
    if (respawns_used_ < opts_.max_respawns) {
      ++respawns_used_;
      spawn_worker(index);
      ++health_.worker_respawns;
    }
  } else {
    // The peer process owns the re-dial; this side just waits for it — as a
    // prospect within the grace window, then as plain spare capacity.
    link.state = Link::State::kReconnecting;
  }
  if (had_tile) {
    if (!link.owns_pid) ++health_.redispatches_on_disconnect;
    fail_tile(link.job_tile, ctrl);
  }
}

void DecodeService::fail_tile(std::size_t tile,
                              const solvers::SolveOptions& ctrl) {
  TileState& ts = tiles_[tile];
  ts.stage = TileState::Stage::kPending;
  if (ts.attempts >= opts_.tile_retry_budget) {
    // Out of wire retries: the broker decodes it itself, right now.
    decode_tile_in_process(tile, ctrl);
    return;
  }
  // Exponential backoff before the next dispatch of this tile: attempt k
  // (1-based) waits base * 2^(k-1), capped.
  const double delay = std::min(
      kRetryBackoffCapSeconds,
      kRetryBackoffSeconds *
          std::pow(2.0, static_cast<double>(std::max(ts.attempts - 1, 0))));
  ts.eligible_at = Deadline::Clock::now() + to_duration(delay);
}

wire::TileRequest DecodeService::make_request(
    std::size_t tile, const solvers::SolveOptions& ctrl) const {
  wire::TileRequest req;
  req.frame_index = front_.frame_index();
  req.tile_index = tile;
  // An expired external deadline still maps to a positive wire value:
  // deadline_seconds <= 0 means "none" on the wire.
  if (!ctrl.deadline.unlimited())
    req.deadline_seconds = std::max(ctrl.deadline.remaining_seconds(), 1e-9);
  req.tile = front_.extract(tile);
  return req;
}

void DecodeService::decode_tile_in_process(std::size_t tile,
                                           const solvers::SolveOptions& ctrl) {
  // The worker's decode, plus the caller's cancel token (which cannot cross
  // the process boundary). An inert token does not perturb the solve, so
  // this path stays bit-identical to the worker path for the same tile.
  RobustPipeline::FrameResult result =
      decode_tile(in_process_, make_request(tile, ctrl),
                  opts_.seed, ctrl.cancel);
  complete_tile(tile, result.frame, std::move(result.report),
                /*in_process=*/true, /*remote=*/false);
}

void DecodeService::dispatch_tile(std::size_t index, std::size_t tile,
                                  const solvers::SolveOptions& ctrl) {
  Link& link = links_[index];
  wire::TileRequest req = make_request(tile, ctrl);
  req.seq = next_seq_++;

  TileState& ts = tiles_[tile];
  if (ts.attempts > 0) ++health_.tile_redispatches;
  ++ts.attempts;
  ts.stage = TileState::Stage::kDispatched;
  ++health_.tiles_dispatched;

  link.busy = true;
  link.job_tile = tile;
  link.seq = req.seq;
  link.dispatched_at = Deadline::Clock::now();
  link.ping_outstanding = false;  // a dispatch supersedes any idle probe
  link.heartbeat_seconds =
      req.deadline_seconds > 0.0
          ? std::max(opts_.heartbeat_floor_seconds,
                     kHeartbeatMultiplier * req.deadline_seconds +
                         kHeartbeatSlackSeconds)
          : opts_.heartbeat_floor_seconds;
  // A TCP peer can vanish without an EOF (half-open connection), so a busy
  // TCP dispatch always carries a timeout — the read timeout backstops a
  // disabled heartbeat. A socketpair always reports peer death as EOF.
  if (!link.owns_pid && link.heartbeat_seconds <= 0.0)
    link.heartbeat_seconds = opts_.remote_read_timeout_seconds;
  if (!link.conn.queue_message(wire::encode_tile_request(req))) {
    // The worker died before (or while) we wrote: the failure path requeues
    // the tile.
    handle_link_failure(index, FailureKind::kDrop, ctrl);
  }
}

void DecodeService::accept_remote_connections(
    Deadline::Clock::time_point now) {
  for (;;) {
    const int fd = listener_.accept_nonblocking();
    if (fd < 0) return;
    // Bind to a TCP link that is waiting for a connection; a disconnected
    // one is revivable (a healed partition re-adds capacity) but last in
    // line.
    std::size_t index = links_.size();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const Link::State st = links_[i].state;
      if (links_[i].owns_pid) continue;
      if (st == Link::State::kConnecting ||
          st == Link::State::kReconnecting) {
        index = i;
        break;
      }
      if (st == Link::State::kDisconnected && index == links_.size())
        index = i;
    }
    if (index == links_.size()) {
      // Fleet full: drop the connection; the peer backs off and retries.
      ::close(fd);
      continue;
    }
    Link& link = links_[index];
    link.conn = net::Connection(fd);
    link.state = Link::State::kHandshaking;
    link.state_since = now;
    link.last_activity = now;
    link.ping_outstanding = false;
  }
}

bool DecodeService::admit_hello(std::size_t index, const wire::Message& msg,
                                const solvers::SolveOptions& ctrl) {
  Link& link = links_[index];
  wire::HelloAck ack;
  ack.accepted = true;
  wire::HelloRequest hello;
  bool parsed = false;
  if (msg.type == wire::MessageType::kHello) {
    try {
      hello = wire::decode_hello(msg);
      parsed = true;
    } catch (const CheckError&) {
    }
  }
  if (!parsed) {
    ++health_.handshake_failures;
    link.conn.close();
    link.state = Link::State::kReconnecting;
    link.state_since = Deadline::Clock::now();
    return false;
  }
  if (hello.wire_version != wire::kVersion) {
    ack = {false, wire::HelloReject::kVersionMismatch};
  } else if ((hello.capabilities & wire::kCapTileDecode) == 0) {
    ack = {false, wire::HelloReject::kMissingCapability};
  } else if (hello.padded_rows != grid().padded_rows ||
             hello.padded_cols != grid().padded_cols) {
    ack = {false, wire::HelloReject::kGeometryMismatch};
  } else if (hello.seed != opts_.seed) {
    // A worker drawing patterns from a different base seed would break the
    // cross-host determinism contract — refuse it outright.
    ack = {false, wire::HelloReject::kSeedMismatch};
  } else if (link.ever_connected &&
             remote_reconnects_used_ >= opts_.max_remote_reconnects) {
    ack = {false, wire::HelloReject::kBudgetExhausted};
  }
  if (!ack.accepted) {
    ++health_.handshake_failures;
    link.conn.queue_message(wire::encode_hello_ack(ack));  // best effort
    link.conn.close();
    // A reasoned refusal is permanent for this peer (it exits rather than
    // re-dial the same parameters): no longer a prospect.
    link.state = Link::State::kDisconnected;
    link.state_since = Deadline::Clock::now();
    return false;
  }
  if (!link.conn.queue_message(wire::encode_hello_ack(ack))) {
    handle_link_failure(index, FailureKind::kDrop, ctrl);
    return false;
  }
  if (link.ever_connected) {
    ++health_.remote_reconnects;
    ++remote_reconnects_used_;
  } else {
    ++health_.remote_connects;
  }
  link.ever_connected = true;
  link.state = Link::State::kHealthy;
  link.state_since = Deadline::Clock::now();
  link.last_activity = link.state_since;
  return true;
}

void DecodeService::complete_tile(std::size_t tile, const la::Matrix& padded,
                                  RecoveryReport report, bool in_process,
                                  bool remote) {
  TileReport& tr = front_.complete(tile, padded, std::move(report));
  TileState& ts = tiles_[tile];
  ts.stage = TileState::Stage::kDone;
  tr.dispatch_attempts = ts.attempts;
  tr.in_process = in_process;
  tr.remote = remote;

  if (tr.report.deadline_expired) ++health_.deadline_expired_tiles;
  if (in_process) {
    ++health_.tiles_in_process;
  } else {
    ++health_.tiles_completed;
  }
}

void DecodeService::collect_link(std::size_t index, short revents,
                                 Deadline::Clock::time_point now,
                                 const solvers::SolveOptions& ctrl) {
  Link& link = links_[index];
  if ((revents & POLLOUT) != 0 && !link.conn.flush()) {
    handle_link_failure(index, FailureKind::kDrop, ctrl);
    return;
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
  const net::Connection::ReadStatus rs = link.conn.read_available();
  if (rs == net::Connection::ReadStatus::kProgress) link.last_activity = now;
  // Drain complete messages even when the peer closed right after writing
  // them — a finished tile should not be re-decoded just because its
  // connection died a microsecond later.
  for (;;) {
    wire::Message msg;
    const wire::DecodeStatus st = link.conn.next_message(msg);
    if (st == wire::DecodeStatus::kShort) break;
    if (st != wire::DecodeStatus::kOk) {
      // Bad magic / version / length / checksum: the byte stream has no
      // resync point, so the link is done for.
      handle_link_failure(index, FailureKind::kCorrupt, ctrl);
      return;
    }
    if (link.state == Link::State::kHandshaking) {
      if (!admit_hello(index, msg, ctrl)) return;
      continue;
    }
    if (msg.type == wire::MessageType::kPong) {
      link.ping_outstanding = false;
      continue;
    }
    // Anything but a well-formed response of our tile geometry — including
    // a payload that checksums cleanly but lies structurally — poisons the
    // stream just like a bad checksum.
    wire::TileResponse resp;
    bool valid = msg.type == wire::MessageType::kTileResponse;
    if (valid) {
      try {
        resp = wire::decode_tile_response(msg);
      } catch (const CheckError&) {
        valid = false;
      }
    }
    if (!valid || resp.tile.rows() != grid().padded_rows ||
        resp.tile.cols() != grid().padded_cols) {
      handle_link_failure(index, FailureKind::kCorrupt, ctrl);
      return;
    }
    if (link.busy && resp.seq == link.seq) {
      link.busy = false;
      const double observed =
          seconds_since(link.dispatched_at, Deadline::Clock::now());
      link.ewma_tile_seconds =
          link.ewma_tile_seconds <= 0.0
              ? observed
              : kEwmaAlpha * observed +
                    (1.0 - kEwmaAlpha) * link.ewma_tile_seconds;
      complete_tile(link.job_tile, resp.tile, std::move(resp.report),
                    /*in_process=*/false, /*remote=*/!link.owns_pid);
    } else {
      // A response for a dispatch we already gave up on (e.g. the answer of
      // a worker we declared stalled raced its teardown). The tile was (or
      // will be) decoded elsewhere; dropping this one keeps exactly one
      // completion per tile.
      ++health_.stale_responses;
    }
  }
  if (rs == net::Connection::ReadStatus::kClosed)
    handle_link_failure(index, FailureKind::kDrop, ctrl);
}

void DecodeService::pump(const solvers::SolveOptions& ctrl) {
  const Deadline::Clock::time_point now = Deadline::Clock::now();

  // --- lifecycle sweep: a link stuck waiting for a connection (or a valid
  // Hello) past the grace window stops being a prospect, so its tiles route
  // to the rest of the fleet or in-process instead of hanging on a
  // partition. The link stays revivable should a connection arrive later.
  for (Link& link : links_) {
    const bool waiting = link.state == Link::State::kConnecting ||
                         link.state == Link::State::kHandshaking ||
                         link.state == Link::State::kReconnecting;
    if (!waiting || seconds_since(link.state_since, now) <=
                        opts_.remote_connect_grace_seconds)
      continue;
    if (link.state == Link::State::kHandshaking) {
      ++health_.handshake_failures;  // connected but never said a valid Hello
      link.conn.close();
    }
    link.state = Link::State::kDisconnected;
    link.state_since = now;
  }

  // --- poll timeout: zero when there is dispatchable or fallback work now,
  // otherwise the nearest of heartbeat expiries and backoff gates, capped at
  // a 20 ms supervision tick.
  double wait_s = 0.02;
  bool idle_worker = false;
  for (const Link& link : links_) {
    if (link.state != Link::State::kHealthy) continue;
    if (!link.busy) {
      idle_worker = true;
      continue;
    }
    if (link.heartbeat_seconds > 0.0) {
      const double rem =
          link.heartbeat_seconds - seconds_since(link.dispatched_at, now);
      wait_s = std::min(wait_s, rem);
    }
  }
  const bool fleet_down = !fleet_has_prospects(now);
  for (const TileState& ts : tiles_) {
    if (ts.stage != TileState::Stage::kPending) continue;
    if (fleet_down || ctrl.cancel.cancelled() ||
        ts.attempts >= opts_.tile_retry_budget) {
      wait_s = 0.0;  // in-process fallback runs this round
    } else {
      const double rem = seconds_since(now, ts.eligible_at);
      wait_s = std::min(wait_s, idle_worker ? rem : 0.02);
    }
  }
  const int timeout_ms =
      wait_s <= 0.0 ? 0
                    : static_cast<int>(std::min(wait_s * 1000.0 + 1.0, 20.0));

  // --- poll + read + collect over every bound link connection (POLLOUT
  // only while its send buffer holds bytes the socket would not take
  // earlier), then the TCP listener.
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_link;  // link index per fds entry
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& link = links_[i];
    if (!link.conn.valid()) continue;
    pollfd p{};
    p.fd = link.conn.fd();
    p.events = POLLIN;
    if (link.conn.wants_write()) p.events |= POLLOUT;
    fds.push_back(p);
    fd_link.push_back(i);
  }
  if (listener_.listening()) {
    pollfd p{};
    p.fd = listener_.fd();
    p.events = POLLIN;
    fds.push_back(p);
  }
  if (!fds.empty()) {
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout_ms);
    if (rc > 0) {
      const Deadline::Clock::time_point read_now = Deadline::Clock::now();
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (i == fd_link.size()) {
          accept_remote_connections(read_now);
        } else if (links_[fd_link[i]].conn.fd() == fds[i].fd) {
          // (A failure earlier this round may have closed the link.)
          collect_link(fd_link[i], fds[i].revents, read_now, ctrl);
        }
      }
    }
  }

  // --- heartbeat scan: a dispatched tile unanswered past its timeout means
  // a wedged worker (the broker cannot tell a busy remote from a dead one;
  // it can only stop listening to it).
  const Deadline::Clock::time_point after_poll = Deadline::Clock::now();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    Link& link = links_[i];
    if (link.state != Link::State::kHealthy) continue;
    if (link.busy) {
      if (link.heartbeat_seconds > 0.0 &&
          seconds_since(link.dispatched_at, after_poll) >
              link.heartbeat_seconds) {
        handle_link_failure(i, FailureKind::kTimeout, ctrl);
      }
      continue;
    }
    // Idle keepalive, TCP only: TCP gives no EOF for a half-open peer, so an
    // idle connection is pinged and a missing pong read as a dead one. A
    // busy dispatch never pings — a single-threaded worker mid-solve cannot
    // answer, and its heartbeat already bounds the wait.
    if (link.owns_pid) continue;
    if (link.ping_outstanding) {
      if (seconds_since(link.ping_sent_at, after_poll) >
          opts_.remote_read_timeout_seconds) {
        handle_link_failure(i, FailureKind::kTimeout, ctrl);
      }
    } else if (seconds_since(link.last_activity, after_poll) >
               opts_.ping_interval_seconds) {
      const std::vector<std::uint8_t> ping =
          wire::encode_message(wire::MessageType::kPing, {});
      if (!link.conn.queue_message(ping)) {
        handle_link_failure(i, FailureKind::kDrop, ctrl);
      } else {
        link.ping_outstanding = true;
        link.ping_sent_at = after_poll;
      }
    }
  }

  // --- dispatch pending tiles (lowest tile first) to the idle healthy link
  // with the lowest EWMA tile latency, and run the in-process fallback for
  // everything that can no longer ride the fleet.
  for (std::size_t tile = 0; tile < tiles_.size(); ++tile) {
    const TileState& ts = tiles_[tile];
    if (ts.stage != TileState::Stage::kPending) continue;
    if (ctrl.cancel.cancelled() || !fleet_has_prospects(after_poll) ||
        ts.attempts >= opts_.tile_retry_budget) {
      decode_tile_in_process(tile, ctrl);
      continue;
    }
    if (seconds_since(after_poll, ts.eligible_at) > 0.0) continue;
    std::size_t best = links_.size();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const Link& link = links_[i];
      if (link.state != Link::State::kHealthy || link.busy) continue;
      if (best == links_.size() ||
          link.ewma_tile_seconds < links_[best].ewma_tile_seconds)
        best = i;
    }
    if (best == links_.size()) return;  // fleet saturated
    dispatch_tile(best, tile, ctrl);
  }
}

ServiceFrameResult DecodeService::process(const la::Matrix& frame,
                                          const solvers::SolveOptions& ctrl) {
  FLEXCS_CHECK(!closed_, "process on a closed DecodeService");
  front_.begin(frame);
  ++health_.frames_submitted;
  tiles_.assign(shards(), TileState{});

  while (front_.outstanding() > 0) pump(ctrl);

  ShardFrameResult done = front_.finish();
  ++health_.frames_completed;
  // The pump loop exits only once every tile is stitched, so a frame is
  // lost only when an earlier call threw — the invariant the supervision
  // tests pin at 0.
  health_.frames_lost = health_.frames_submitted - health_.frames_completed;
  return {std::move(done.frame), std::move(done.report), false};
}

void DecodeService::close() {
  if (closed_) return;
  closed_ = true;
  // Orderly: ask every connected worker to exit, and stop accepting (a
  // remote worker dialing a closed port fails fast and exhausts its connect
  // budget instead of lingering)...
  const std::vector<std::uint8_t> bye =
      wire::encode_message(wire::MessageType::kShutdown, {});
  std::vector<pid_t> children = std::move(loopback_pids_);
  loopback_pids_.clear();
  for (Link& link : links_) {
    if (link.conn.valid()) link.conn.queue_message(bye);  // best effort
    link.conn.close();
    link.state = Link::State::kDisconnected;
    if (link.pid > 0) children.push_back(link.pid);
    link.pid = -1;
  }
  listener_.close();
  // ...then give every child — forked or loopback — the grace window and
  // SIGKILL the stragglers (a wedged worker, or a loopback remote stuck in
  // its reconnect backoff that never saw the shutdown message).
  reap_children(std::move(children), kShutdownGraceSeconds);
}

}  // namespace flexcs::runtime
