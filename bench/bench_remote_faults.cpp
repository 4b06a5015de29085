// Network-fault x injection-rate x fleet-mix sweep through the remote (TCP)
// worker path of runtime::DecodeService. Every cell decodes the same clean
// thermal frames through a heterogeneous fleet — loopback-forked remote
// workers dialing the broker's listener, optionally alongside socketpair
// forked workers — while a deterministic network fault is injected into a
// fraction of the remote slots: refused connects, flapping peers,
// mid-message disconnects, in-flight byte corruption, stalled (half-open)
// connections, or a full partition (no remote ever connects).
//
// The acceptance shape this bench exists to demonstrate (EXPERIMENTS.md
// E14): under every fault kind at every injection rate the service loses
// zero frames, and because tile decodes are seeded from (seed, frame, tile)
// the stitched pixels are bit-identical to the fault-free run —
// rmse_vs_clean is exactly 1.0 in every cell. Network faults cost
// reconnects, timeouts, and re-dispatch latency, never pixels.
//
// What repeats and is gated: frames_lost and rmse_vs_clean. The ctest
// bench.remote_faults_floor reruns the full sweep and holds both columns,
// per (fault, rate, forked_workers, remote_workers) cell, to the reference
// in tests/data/. The connect, reconnect, disconnect, timeout, checksum
// reject and redispatch counts depend on how the scheduler interleaves the
// broker, its workers and the injected faults, so they vary between runs
// and are not gated; nor are the timings.
//
// Injection rate: the fraction of remote slots carrying the fault, rounded
// to a worker count (rate 0.5 with two remote slots injects one of them).
// The partition kind ignores the rate — no loopback worker is spawned at
// all, so the whole remote fleet is unreachable and the broker must degrade
// to the forked fleet or in-process decode after the connect grace window.
//
// Usage:
//   bench_remote_faults [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (remote-only fleet, three fault kinds, two
//             frames) used by the ctest smoke registration.
//   --json    machine-readable output instead of the text table.
//   --out     record path override (see bench_util.hpp).
//
// JSON schema (--json): stdout carries exactly one JSON array; one object
// per (fault kind, rate, fleet mix) cell, all keys always present:
//   {
//     "fault":             string  — none|refuse|flap|disconnect|corrupt|
//                                    stall|partition
//     "rate":              number  — target fraction of remote slots injected
//     "injected":          integer — remote slots actually injected
//     "forked_workers":    integer — socketpair worker processes
//     "remote_workers":    integer — remote (TCP) worker slots
//     "frames":            integer — frames decoded in the cell
//     "frames_lost":       integer — submitted but never stitched (target: 0)
//     "decode_seconds":    number  — summed wall time of the process()
//                                    calls, one per frame
//     "frames_per_second": number  — frames / decode_seconds
//     "p50_latency_ms":    number  — one process() call, entry -> stitched
//     "p99_latency_ms":    number
//     "rmse":              number  — mean stitched RMSE vs ground truth
//     "rmse_vs_clean":     number  — rmse / same-mix fault-free baseline
//                                    (1.0 = faults never touched pixels)
//     "remote_connects":   integer — first-time handshake admissions
//     "remote_reconnects": integer — re-admissions after a disconnect
//     "remote_disconnects":integer — connection losses absorbed
//     "handshake_failures":integer — rejected or malformed hellos
//     "read_timeouts":     integer — heartbeat / pong timeouts
//     "redispatches_on_disconnect": integer — in-flight tiles requeued
//     "checksum_rejects":  integer — corrupt wire messages torn down
//     "tile_redispatches": integer — dispatches after any failure
//     "tiles_in_process":  integer — broker-fallback decodes
//   }
//
// Full (non-smoke) --json runs additionally record the same array to
// BENCH_remote_faults.json at the repository root; smoke runs never touch
// that file so the ctest registration cannot overwrite a recorded sweep.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/latency.hpp"
#include "runtime/service.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

enum class FaultKind {
  kNone,
  kRefuse,
  kFlap,
  kDisconnect,
  kCorrupt,
  kStall,
  kPartition,
};

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRefuse: return "refuse";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kDisconnect: return "disconnect";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kStall: return "stall";
    case FaultKind::kPartition: return "partition";
  }
  return "unknown";
}

struct FleetMix {
  const char* name;
  std::size_t forked;
  std::size_t remote;
};

struct SweepConfig {
  std::size_t dim = 32;
  std::size_t tile = 16;
  std::size_t halo = 2;
  std::vector<FleetMix> mixes = {{"remote", 0, 2}, {"mixed", 2, 2}};
  // Applied to every kind except kNone (always rate 0) and kPartition
  // (always the whole remote fleet).
  std::vector<double> rates = {0.5, 1.0};
  std::vector<FaultKind> kinds = {
      FaultKind::kNone,       FaultKind::kRefuse,  FaultKind::kFlap,
      FaultKind::kDisconnect, FaultKind::kCorrupt, FaultKind::kStall,
      FaultKind::kPartition,
  };
  std::size_t frames = 4;
  int fista_iterations = 400;
  double fista_tol = 1e-6;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.mixes = {{"remote", 0, 2}};
  cfg.rates = {1.0};
  cfg.kinds = {FaultKind::kNone, FaultKind::kDisconnect, FaultKind::kCorrupt};
  cfg.frames = 2;
  return cfg;
}

struct FaultCell {
  FaultKind kind = FaultKind::kNone;
  double rate = 0.0;
  std::size_t injected = 0;
  std::size_t forked = 0;
  std::size_t remote = 0;
  std::size_t frames = 0;
  std::size_t frames_lost = 0;
  double decode_seconds = 0.0;
  double frames_per_second = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double rmse = 0.0;
  double rmse_vs_clean = 0.0;  // filled once the fault-free baseline is known
  std::size_t remote_connects = 0;
  std::size_t remote_reconnects = 0;
  std::size_t remote_disconnects = 0;
  std::size_t handshake_failures = 0;
  std::size_t read_timeouts = 0;
  std::size_t redispatches_on_disconnect = 0;
  std::size_t checksum_rejects = 0;
  std::size_t tile_redispatches = 0;
  std::size_t tiles_in_process = 0;
};

runtime::WorkerFaultInjection injection_for(FaultKind kind) {
  runtime::WorkerFaultInjection fault;
  switch (kind) {
    case FaultKind::kRefuse:
      fault.refuse_connects = 3;
      break;
    case FaultKind::kFlap:
      fault.flap_connects = 2;
      break;
    case FaultKind::kDisconnect:
      fault.truncate_after_tiles = 0;  // half-send the first response
      break;
    case FaultKind::kCorrupt:
      fault.corrupt_after_tiles = 0;  // flip a payload bit in flight
      break;
    case FaultKind::kStall:
      // Far beyond the broker's read timeout: recovery must come from the
      // heartbeat, not from the stall ending.
      fault.stall_after_tiles = 0;
      fault.stall_seconds = 30.0;
      break;
    case FaultKind::kNone:
    case FaultKind::kPartition:
      break;
  }
  return fault;
}

FaultCell run_cell(const SweepConfig& cfg, FaultKind kind, double rate,
                   const FleetMix& mix) {
  FaultCell cell;
  cell.kind = kind;
  cell.rate = kind == FaultKind::kPartition ? 1.0 : rate;
  cell.forked = mix.forked;
  cell.remote = mix.remote;
  cell.frames = cfg.frames;

  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  runtime::ServiceOptions opts;
  opts.tile_rows = opts.tile_cols = cfg.tile;
  opts.halo = cfg.halo;
  opts.workers = mix.forked;
  opts.remote_workers = mix.remote;
  opts.solver = std::make_shared<solvers::FistaSolver>(fopts);
  // Throughput and supervision are the subject: clean frames, plain decode
  // only, no debias re-fit. Identical settings in every cell.
  opts.pipeline.max_rung = runtime::Strategy::kPlainDecode;
  opts.pipeline.decoder.debias = false;
  opts.seed = 0x5eed;
  // Tight supervision so stall / partition cells recover in bench time
  // rather than at the production-default timeouts.
  opts.heartbeat_floor_seconds = 0.3;
  opts.remote_read_timeout_seconds = 0.3;
  opts.ping_interval_seconds = 0.1;
  opts.remote_connect_grace_seconds = kind == FaultKind::kPartition ? 0.3 : 2.0;
  opts.max_respawns = 1 << 20;
  opts.max_remote_reconnects = 1 << 20;

  if (kind == FaultKind::kPartition) {
    // The whole remote fleet is unreachable: nothing ever dials in.
    opts.spawn_remote_loopback = false;
    cell.injected = mix.remote;
  } else if (kind != FaultKind::kNone) {
    cell.injected =
        static_cast<std::size_t>(rate * static_cast<double>(mix.remote) + 0.5);
    // Faults index links: the forked links come first and stay clean.
    opts.fault_injection.resize(mix.forked);
    opts.fault_injection.resize(mix.forked + cell.injected,
                                injection_for(kind));
  }

  runtime::DecodeService service(cfg.dim, cfg.dim, opts);

  data::ThermalOptions topts;
  topts.rows = topts.cols = cfg.dim;
  const data::ThermalHandGenerator gen(topts);
  std::vector<la::Matrix> truths;
  for (std::size_t f = 0; f < cfg.frames; ++f) {
    Rng rng(100 + f);
    truths.push_back(gen.sample(rng).values);
  }

  // One process() call per frame; each call's wall time is that frame's
  // latency.
  std::vector<double> latencies;
  for (const la::Matrix& truth : truths) {
    const auto t0 = std::chrono::steady_clock::now();
    const runtime::ServiceFrameResult result = service.process(truth);
    latencies.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    cell.decode_seconds += latencies.back();
    cell.rmse += cs::rmse(result.frame, truth);
  }
  cell.frames_per_second =
      static_cast<double>(cfg.frames) / cell.decode_seconds;
  cell.rmse /= static_cast<double>(cfg.frames);
  cell.p50_latency_ms = 1e3 * runtime::latency_percentile(latencies, 0.50);
  cell.p99_latency_ms = 1e3 * runtime::latency_percentile(latencies, 0.99);

  const runtime::ServiceHealth h = service.health();
  cell.frames_lost = h.frames_lost;
  cell.remote_connects = h.remote_connects;
  cell.remote_reconnects = h.remote_reconnects;
  cell.remote_disconnects = h.remote_disconnects;
  cell.handshake_failures = h.handshake_failures;
  cell.read_timeouts = h.read_timeouts;
  cell.redispatches_on_disconnect = h.redispatches_on_disconnect;
  cell.checksum_rejects = h.checksum_rejects;
  cell.tile_redispatches = h.tile_redispatches;
  cell.tiles_in_process = h.tiles_in_process;
  return cell;
}

// Normalises every cell against its fleet mix's fault-free baseline. The
// determinism contract makes this exactly 1.0: a re-dispatched, fallback, or
// reconnect-served tile decodes bit-identically, so network faults change
// counters and latency, never pixels.
void fill_baselines(std::vector<FaultCell>& cells) {
  for (FaultCell& c : cells) {
    for (const FaultCell& base : cells) {
      if (base.forked == c.forked && base.remote == c.remote &&
          base.kind == FaultKind::kNone) {
        c.rmse_vs_clean = base.rmse > 0.0 ? c.rmse / base.rmse : 0.0;
        break;
      }
    }
  }
}

std::string to_json(const std::vector<FaultCell>& cells) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FaultCell& c = cells[i];
    out += strformat(
        "  {\"fault\": \"%s\", \"rate\": %.2f, \"injected\": %zu, "
        "\"forked_workers\": %zu, \"remote_workers\": %zu, "
        "\"frames\": %zu, \"frames_lost\": %zu, "
        "\"decode_seconds\": %.4f, \"frames_per_second\": %.4f, "
        "\"p50_latency_ms\": %.2f, \"p99_latency_ms\": %.2f, "
        "\"rmse\": %.6f, \"rmse_vs_clean\": %.6f, "
        "\"remote_connects\": %zu, \"remote_reconnects\": %zu, "
        "\"remote_disconnects\": %zu, \"handshake_failures\": %zu, "
        "\"read_timeouts\": %zu, \"redispatches_on_disconnect\": %zu, "
        "\"checksum_rejects\": %zu, \"tile_redispatches\": %zu, "
        "\"tiles_in_process\": %zu}%s\n",
        fault_name(c.kind), c.rate, c.injected, c.forked, c.remote, c.frames,
        c.frames_lost, c.decode_seconds, c.frames_per_second,
        c.p50_latency_ms, c.p99_latency_ms, c.rmse, c.rmse_vs_clean,
        c.remote_connects, c.remote_reconnects, c.remote_disconnects,
        c.handshake_failures, c.read_timeouts, c.redispatches_on_disconnect,
        c.checksum_rejects, c.tile_redispatches, c.tiles_in_process,
        i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void print_table(const std::vector<FaultCell>& cells, const SweepConfig& cfg) {
  std::printf(
      "Remote fault sweep — DecodeService over TCP, %zux%zu frames, tile "
      "%zu halo %zu, %zu frames per cell, FISTA\n",
      cfg.dim, cfg.dim, cfg.tile, cfg.halo, cfg.frames);
  Table t({"fault", "rate", "fleet", "lost", "conn", "reconn", "disc",
           "tmo", "crc", "inproc", "fps", "p99 ms", "rmse/clean"});
  for (const FaultCell& c : cells) {
    t.add_row({fault_name(c.kind), strformat("%.0f%%", 100.0 * c.rate),
               strformat("%zuf+%zur", c.forked, c.remote),
               strformat("%zu", c.frames_lost),
               strformat("%zu", c.remote_connects),
               strformat("%zu", c.remote_reconnects),
               strformat("%zu", c.remote_disconnects),
               strformat("%zu", c.read_timeouts),
               strformat("%zu", c.checksum_rejects),
               strformat("%zu", c.tiles_in_process),
               strformat("%.3f", c.frames_per_second),
               strformat("%.1f", c.p99_latency_ms),
               strformat("%.4f", c.rmse_vs_clean)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: zero lost frames under every network fault and rmse/clean "
      "exactly 1.0 — faults cost reconnects and latency, never pixels\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (!args.ok) {
    bench::print_bench_usage(argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  std::vector<FaultCell> cells;
  for (const FleetMix& mix : cfg.mixes) {
    for (const FaultKind kind : cfg.kinds) {
      if (kind == FaultKind::kNone || kind == FaultKind::kPartition) {
        cells.push_back(run_cell(cfg, kind, 0.0, mix));
        continue;
      }
      std::size_t last_injected = 0;
      for (const double rate : cfg.rates) {
        const std::size_t injected = static_cast<std::size_t>(
            rate * static_cast<double>(mix.remote) + 0.5);
        if (injected == 0 || injected == last_injected) continue;
        last_injected = injected;
        cells.push_back(run_cell(cfg, kind, rate, mix));
      }
    }
  }
  fill_baselines(cells);

  if (args.json) {
    const std::string out = to_json(cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_remote_faults.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
