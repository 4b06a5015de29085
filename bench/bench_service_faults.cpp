// Crash-rate x worker-count sweep through runtime::DecodeService. Every
// cell decodes the same clean thermal frames through a forked worker fleet
// whose workers are configured to SIGKILL themselves after serving K tiles
// (persisting across respawns, so the crash rate is sustained for the whole
// cell, not a one-shot event). The supervisor must absorb every crash:
// re-dispatch the lost tile, respawn the slot, and stitch the frame anyway.
//
// The acceptance shape this bench exists to demonstrate (EXPERIMENTS.md
// E13): at a 20% per-tile worker crash rate the service loses zero frames,
// and because tile decodes are seeded from (seed, frame, tile) the stitched
// pixels are bit-identical to the crash-free run — rmse_vs_clean is exactly
// 1.0 in every cell. Crashes cost latency (re-dispatch + respawn), never
// pixels.
//
// What repeats and is gated: frames_lost and rmse_vs_clean. The ctest
// bench.service_faults_floor reruns the full sweep and holds both columns,
// per (crash_rate, kill_after_tiles, workers) cell, to the reference in
// tests/data/. The worker_crashes, worker_respawns and tile_redispatches
// counts depend on how the scheduler interleaves the broker and its
// workers (which worker serves which tile, whether a kill lands before or
// after a dispatch), so they vary between runs and are not gated; nor are
// the timings.
//
// Crash-rate knob: a worker with kill_after_tiles = K serves K tiles and
// dies consuming the (K+1)-th, so the sustained per-dispatch crash rate is
// 1 / (K + 1): rate 0.5 -> K = 1, rate 0.2 -> K = 4, rate 0 -> no injection.
//
// Usage:
//   bench_service_faults [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (two crash rates, one fleet size, two
//             frames) used by the ctest smoke registration.
//   --json    machine-readable output instead of the text table.
//   --out     record path override (see bench_util.hpp).
//
// JSON schema (--json): stdout carries exactly one JSON array; one object
// per (crash rate, workers) cell, all keys always present:
//   {
//     "crash_rate":        number  — target per-dispatch crash probability
//     "kill_after_tiles":  integer — injected K (-1 = no injection)
//     "workers":           integer — forked worker processes in the fleet
//     "frames":            integer — frames decoded in the cell
//     "frames_lost":       integer — submitted but never stitched (target: 0)
//     "decode_seconds":    number  — summed wall time of the process()
//                                    calls, one per frame
//     "frames_per_second": number  — frames / decode_seconds
//     "p50_latency_ms":    number  — one process() call, entry -> stitched
//     "p99_latency_ms":    number
//     "rmse":              number  — mean stitched RMSE vs ground truth
//     "rmse_vs_clean":     number  — rmse / same-fleet crash-free baseline
//                                    (1.0 = crashes never touched pixels)
//     "worker_crashes":    integer — unexpected exits absorbed
//     "worker_respawns":   integer
//     "tile_redispatches": integer — dispatches after a failure
//     "tiles_in_process":  integer — broker-fallback decodes
//     "checksum_rejects":  integer — corrupt wire messages (expect 0 here)
//   }
//
// Full (non-smoke) --json runs additionally record the same array to
// BENCH_service_faults.json at the repository root; smoke runs never touch
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

struct SweepConfig {
  std::size_t dim = 32;
  std::size_t tile = 16;
  std::size_t halo = 2;
  std::vector<double> crash_rates = {0.0, 0.2, 0.5};
  std::vector<std::size_t> fleet_sizes = {1, 2, 4};
  std::size_t frames = 6;
  int fista_iterations = 400;
  double fista_tol = 1e-6;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.crash_rates = {0.0, 0.5};
  cfg.fleet_sizes = {2};
  cfg.frames = 2;
  return cfg;
}

struct FaultCell {
  double crash_rate = 0.0;
  int kill_after_tiles = -1;
  std::size_t workers = 0;
  std::size_t frames = 0;
  std::size_t frames_lost = 0;
  double decode_seconds = 0.0;
  double frames_per_second = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double rmse = 0.0;
  double rmse_vs_clean = 0.0;  // filled once the rate-0 baseline is known
  std::size_t worker_crashes = 0;
  std::size_t worker_respawns = 0;
  std::size_t tile_redispatches = 0;
  std::size_t tiles_in_process = 0;
  std::size_t checksum_rejects = 0;
};

// rate = 1 / (K + 1) per dispatched tile; rate 0 disables injection.
int kill_after_for_rate(double rate) {
  if (rate <= 0.0) return -1;
  return static_cast<int>(1.0 / rate + 0.5) - 1;
}

FaultCell run_cell(const SweepConfig& cfg, double rate, std::size_t workers) {
  FaultCell cell;
  cell.crash_rate = rate;
  cell.kill_after_tiles = kill_after_for_rate(rate);
  cell.workers = workers;
  cell.frames = cfg.frames;

  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  runtime::ServiceOptions opts;
  opts.tile_rows = opts.tile_cols = cfg.tile;
  opts.halo = cfg.halo;
  opts.workers = workers;
  opts.solver = std::make_shared<solvers::FistaSolver>(fopts);
  // Throughput and supervision are the subject: clean frames, plain decode
  // only, no debias re-fit. Identical settings in every cell.
  opts.pipeline.max_rung = runtime::Strategy::kPlainDecode;
  opts.pipeline.decoder.debias = false;
  opts.seed = 0x5eed;
  // Sustained crash rate: the budget must outlast the whole batch, and the
  // injection must follow every respawned process, on every slot.
  opts.max_respawns = 1 << 20;
  if (cell.kill_after_tiles >= 0) {
    runtime::WorkerFaultInjection fault;
    fault.kill_after_tiles = cell.kill_after_tiles;
    fault.persist_across_respawn = true;
    opts.fault_injection.assign(workers, fault);
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
  cell.worker_crashes = h.worker_crashes;
  cell.worker_respawns = h.worker_respawns;
  cell.tile_redispatches = h.tile_redispatches;
  cell.tiles_in_process = h.tiles_in_process;
  cell.checksum_rejects = h.checksum_rejects;
  return cell;
}

// Normalises every cell against its fleet size's crash-free baseline. The
// determinism contract makes this exactly 1.0: a re-dispatched tile decodes
// bit-identically, so crashes change counters and latency, never pixels.
void fill_baselines(std::vector<FaultCell>& cells) {
  for (FaultCell& c : cells) {
    for (const FaultCell& base : cells) {
      if (base.workers == c.workers && base.crash_rate == 0.0) {
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
        "  {\"crash_rate\": %.2f, \"kill_after_tiles\": %d, "
        "\"workers\": %zu, \"frames\": %zu, \"frames_lost\": %zu, "
        "\"decode_seconds\": %.4f, \"frames_per_second\": %.4f, "
        "\"p50_latency_ms\": %.2f, \"p99_latency_ms\": %.2f, "
        "\"rmse\": %.6f, \"rmse_vs_clean\": %.6f, "
        "\"worker_crashes\": %zu, \"worker_respawns\": %zu, "
        "\"tile_redispatches\": %zu, \"tiles_in_process\": %zu, "
        "\"checksum_rejects\": %zu}%s\n",
        c.crash_rate, c.kill_after_tiles, c.workers, c.frames,
        c.frames_lost, c.decode_seconds, c.frames_per_second,
        c.p50_latency_ms, c.p99_latency_ms, c.rmse, c.rmse_vs_clean,
        c.worker_crashes, c.worker_respawns, c.tile_redispatches,
        c.tiles_in_process, c.checksum_rejects,
        i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void print_table(const std::vector<FaultCell>& cells, const SweepConfig& cfg) {
  std::printf(
      "Service fault sweep — DecodeService, %zux%zu frames, tile %zu halo "
      "%zu, %zu frames per cell, FISTA\n",
      cfg.dim, cfg.dim, cfg.tile, cfg.halo, cfg.frames);
  Table t({"rate", "workers", "lost", "crash", "resp", "redisp", "inproc",
           "fps", "p50 ms", "p99 ms", "rmse", "rmse/clean"});
  for (const FaultCell& c : cells) {
    t.add_row({strformat("%.0f%%", 100.0 * c.crash_rate),
               strformat("%zu", c.workers), strformat("%zu", c.frames_lost),
               strformat("%zu", c.worker_crashes),
               strformat("%zu", c.worker_respawns),
               strformat("%zu", c.tile_redispatches),
               strformat("%zu", c.tiles_in_process),
               strformat("%.3f", c.frames_per_second),
               strformat("%.1f", c.p50_latency_ms),
               strformat("%.1f", c.p99_latency_ms),
               strformat("%.4f", c.rmse),
               strformat("%.4f", c.rmse_vs_clean)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: zero lost frames at every crash rate and rmse/clean exactly "
      "1.0 — crashes cost re-dispatch latency, never pixels\n");
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
  for (const double rate : cfg.crash_rates)
    for (const std::size_t workers : cfg.fleet_sizes)
      cells.push_back(run_cell(cfg, rate, workers));
  fill_baselines(cells);

  if (args.json) {
    const std::string out = to_json(cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_service_faults.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
