// Sharded-decode scaling sweep: array size x shard count through
// runtime::ShardedDecoder. Every cell decodes the same clean thermal
// frames; the monolithic baseline is the grid=1 cell (one tile covering the
// whole array, halo 0), so both arms run the identical solver configuration
// and the identical scatter/gather code path — the speedup measured here is
// the algorithmic tiling gain, not a code-path artefact.
//
// With a dense measurement matrix tiling won algorithmically: every solver
// iteration over the full frame cost O(M·N), and splitting into T tiles cut
// that ~T^2 while the tile count multiplied it back by only T. The decoder
// now applies A through O(N log N) transforms, so what tiling buys is
// different (EXPERIMENTS.md E17, E31):
//
//   - stitched RMSE below the monolithic decode's (rmse_vs_mono 0.46-0.73
//     at 4 and 16 shards, the same in every sweep: decodes are seeded);
//   - a lower per-frame latency (1 / frames_per_second): the monolithic
//     cell is one tile, so one of the pool's two workers idles, while a
//     tiled frame keeps both busy (0.20-0.95x the monolithic frame's
//     latency at 4 and 16 shards over three back-to-back sweeps; a cell
//     is 4 frames, so one sweep's ratios move by up to 3x).
//
// The acceptance shape: at 4+ shards the stitched RMSE stays at or below
// the monolithic baseline (the latency is not bought with seams or quality
// loss) and a frame's latency is below the monolithic frame's.
//
// Usage:
//   bench_shard_scale [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (32x32, two grids) used by the ctest
//             smoke registration; finishes in seconds.
//   --json    machine-readable output instead of the text table.
//   --out     record path override (see bench_util.hpp).
//
// JSON schema (--json): stdout carries exactly one JSON array; one object
// per (size, grid) cell, all keys always present:
//   {
//     "rows":                   integer — array rows (= cols, square sweep)
//     "cols":                   integer
//     "tile":                   integer — tile side before halo padding
//     "halo":                   integer — replicated-border pixels per side
//     "shards":                 integer — tiles per frame (grid^2)
//     "workers":                integer — worker threads in the pool
//     "frames":                 integer — frames decoded in the cell
//     "decode_seconds":         number  — summed wall time of the cell's
//                                         process() calls, one per frame
//                                         (construction excluded, both arms)
//     "frames_per_second":      number  — frames / decode_seconds
//     "speedup_vs_mono":        number  — frames_per_second over the same-
//                                         size grid=1 baseline
//     "rmse":                   number  — mean stitched RMSE vs ground truth
//     "rmse_vs_mono":           number  — rmse / monolithic baseline rmse
//     "tiles_accepted":         integer — tiles whose sanity check passed
//     "tiles_total":            integer — shards x frames
//     "decode_calls":           integer — solver runs summed over tiles
//     "mean_solver_iterations": number  — mean FISTA iterations per tile
//   }
//
// Full (non-smoke) --json runs additionally record the same array to
// BENCH_shard_scale.json at the repository root; smoke runs never touch
// that file so the ctest registration cannot overwrite a recorded sweep.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/shard.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

struct SweepConfig {
  std::vector<std::size_t> dims = {64, 128};
  // Tiles per side; shards = grid^2. grid 1 is the monolithic baseline and
  // runs halo 0 (a halo around the only tile would pad pure replication).
  std::vector<std::size_t> grids = {1, 2, 4};
  std::size_t halo = 2;  // sharded cells only
  std::size_t workers = 2;
  std::size_t frames = 4;
  // Both arms run the identical FISTA configuration and converge by
  // tolerance well inside the cap (probed: 49 iterations monolithic 128,
  // 60-70 per 64-pixel tile), so neither arm is iteration-starved.
  int fista_iterations = 400;
  double fista_tol = 1e-6;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.dims = {32};
  cfg.grids = {1, 2};
  cfg.frames = 2;
  return cfg;
}

struct ScaleCell {
  std::size_t dim = 0;
  std::size_t tile = 0;
  std::size_t halo = 0;
  std::size_t shards = 0;
  std::size_t workers = 0;
  std::size_t frames = 0;
  double decode_seconds = 0.0;
  double frames_per_second = 0.0;
  double speedup_vs_mono = 0.0;  // filled once the baseline cell is known
  double rmse = 0.0;
  double rmse_vs_mono = 0.0;
  std::size_t tiles_accepted = 0;
  std::size_t tiles_total = 0;
  int decode_calls = 0;
  double mean_solver_iterations = 0.0;
};

ScaleCell run_cell(const SweepConfig& cfg, std::size_t dim, std::size_t grid) {
  ScaleCell cell;
  cell.dim = dim;
  cell.tile = dim / grid;
  cell.halo = grid == 1 ? 0 : cfg.halo;
  cell.shards = grid * grid;
  cell.workers = cfg.workers;
  cell.frames = cfg.frames;

  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  runtime::ShardOptions opts;
  opts.tile_rows = opts.tile_cols = cell.tile;
  opts.halo = cell.halo;
  opts.stream.workers = cfg.workers;
  opts.stream.solver = std::make_shared<solvers::FistaSolver>(fopts);
  // Throughput is the subject: clean frames, plain decode only, no debias
  // re-fit. Identical settings in every cell, so cells compare fairly.
  opts.stream.pipeline.max_rung = runtime::Strategy::kPlainDecode;
  opts.stream.pipeline.decoder.debias = false;
  opts.stream.seed = 0xa11d;

  // Construction (Psi build, worker spawn) is excluded from the timing in
  // both arms: it is a once-per-geometry cost, not a per-frame one.
  runtime::ShardedDecoder sharded(dim, dim, opts);

  data::ThermalOptions topts;
  topts.rows = topts.cols = dim;
  const data::ThermalHandGenerator gen(topts);
  std::vector<la::Matrix> truths;
  for (std::size_t f = 0; f < cfg.frames; ++f) {
    Rng rng(100 + f);
    truths.push_back(gen.sample(rng).values);
  }

  // One process() call per frame, as a readout delivers them; each call's
  // wall time is that frame's latency.
  std::vector<runtime::ShardFrameResult> results;
  for (const la::Matrix& truth : truths) {
    const auto t0 = std::chrono::steady_clock::now();
    results.push_back(sharded.process(truth));
    cell.decode_seconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  }
  cell.frames_per_second =
      static_cast<double>(cfg.frames) / cell.decode_seconds;

  std::size_t tile_count = 0;
  for (std::size_t f = 0; f < results.size(); ++f) {
    const runtime::ShardReport& r = results[f].report;
    cell.rmse += cs::rmse(results[f].frame, truths[f]);
    cell.tiles_accepted += r.tiles_accepted;
    cell.tiles_total += r.tiles;
    cell.decode_calls += r.decode_calls;
    for (const runtime::TileReport& t : r.tile_reports) {
      cell.mean_solver_iterations += t.report.solver_iterations;
      ++tile_count;
    }
  }
  cell.rmse /= static_cast<double>(cfg.frames);
  if (tile_count > 0)
    cell.mean_solver_iterations /= static_cast<double>(tile_count);
  return cell;
}

// Normalises every cell against its size's monolithic (grid=1) baseline. The baseline cell reports 1.0 for both ratios by construction.
void fill_baselines(std::vector<ScaleCell>& cells) {
  for (ScaleCell& c : cells) {
    for (const ScaleCell& base : cells) {
      if (base.dim == c.dim && base.shards == 1) {
        c.speedup_vs_mono = c.frames_per_second / base.frames_per_second;
        c.rmse_vs_mono = base.rmse > 0.0 ? c.rmse / base.rmse : 0.0;
        break;
      }
    }
  }
}

std::string to_json(const std::vector<ScaleCell>& cells) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& c = cells[i];
    out += strformat(
        "  {\"rows\": %zu, \"cols\": %zu, \"tile\": %zu, \"halo\": %zu, "
        "\"shards\": %zu, \"workers\": %zu, "
        "\"frames\": %zu, \"decode_seconds\": %.4f, "
        "\"frames_per_second\": %.4f, \"speedup_vs_mono\": %.3f, "
        "\"rmse\": %.6f, \"rmse_vs_mono\": %.3f, \"tiles_accepted\": %zu, "
        "\"tiles_total\": %zu, \"decode_calls\": %d, "
        "\"mean_solver_iterations\": %.1f}%s\n",
        c.dim, c.dim, c.tile, c.halo, c.shards, c.workers, c.frames, c.decode_seconds, c.frames_per_second,
        c.speedup_vs_mono, c.rmse, c.rmse_vs_mono, c.tiles_accepted,
        c.tiles_total, c.decode_calls, c.mean_solver_iterations,
        i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void print_table(const std::vector<ScaleCell>& cells, const SweepConfig& cfg) {
  std::printf(
      "Sharded decode scaling — ShardedDecoder, %zu workers, %zu frames "
      "per cell, FISTA tol %.0e\n",
      cfg.workers, cfg.frames, cfg.fista_tol);
  Table t({"size", "tile", "halo", "shards", "sec", "fps",
           "speedup", "rmse", "rmse/mono", "iters"});
  for (const ScaleCell& c : cells) {
    t.add_row({strformat("%zu", c.dim), strformat("%zu", c.tile),
               strformat("%zu", c.halo), strformat("%zu", c.shards),
               strformat("%.2f", c.decode_seconds),
               strformat("%.3f", c.frames_per_second),
               strformat("%.2fx", c.speedup_vs_mono),
               strformat("%.4f", c.rmse),
               strformat("%.2f", c.rmse_vs_mono),
               strformat("%.0f", c.mean_solver_iterations)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: at 4+ shards the stitched rmse is at or below the monolithic "
      "rmse and a frame's latency (1/fps) is below the monolithic frame's\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (!args.ok) {
    bench::print_bench_usage(argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  std::vector<ScaleCell> cells;
  for (const std::size_t dim : cfg.dims)
    for (const std::size_t grid : cfg.grids)
      cells.push_back(run_cell(cfg, dim, grid));
  fill_baselines(cells);

  if (args.json) {
    const std::string out = to_json(cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_shard_scale.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
