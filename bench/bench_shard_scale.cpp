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
// now applies A matrix-free, through the folded DCT kernel's N²/2
// multiply-adds per 1-D pass, so what tiling buys is different
// (EXPERIMENTS.md E17, E31, E32, E35):
//
//   - stitched RMSE below the monolithic decode's (rmse_vs_mono 0.46-0.73
//     at 4 and 16 shards, the same in every sweep: decodes are seeded);
//   - a lower per-frame latency (1 / frames_per_second): the monolithic
//     cell is one tile, so one of the pool's two workers idles, while a
//     tiled frame keeps both busy.
//
// Timing: one short run per cell cannot be compared between records (a
// 4-frame cell moved up to 3x between back-to-back sweeps), so each size
// runs its cells as `repeats` interleaved rounds. A round runs every grid
// of the size once, rotating which grid goes first; a run builds a fresh
// decoder, decodes one untimed warm-up frame, then streams the frames in
// whole passes until at least `min_run_seconds` (1 s) have elapsed. A
// cell's fps is the median over its runs, recorded with its range, and its
// speedup is the median over rounds of the round's tiled fps / monolithic
// fps, recorded with its range.
//
// The acceptance shape: at 4+ shards the stitched RMSE stays at or below
// the monolithic baseline (the latency is not bought with seams or quality
// loss) and the median speedup is above 1, i.e. a frame's latency is below
// the monolithic frame's.
//
// Usage:
//   bench_shard_scale [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (32x32, two grids, one pass per run, two
//             rounds) used by the ctest smoke registration; finishes in
//             seconds.
//   --json    machine-readable output instead of the text table.
//   --out     record path override (see bench_util.hpp).
//
// JSON schema (--json): stdout carries exactly one JSON object,
//   {"provenance": object, "cells": [...]}: the provenance is
// bench::Provenance (bench_util.hpp: git_sha, git_dirty, build_type,
// compiler, nproc, utc_date), and "cells" holds one object per (size, grid)
// cell, all keys always present:
//   {
//     "rows":                   integer — array rows (= cols, square sweep)
//     "cols":                   integer
//     "tile":                   integer — tile side before halo padding
//     "halo":                   integer — replicated-border pixels per side
//     "shards":                 integer — tiles per frame (grid^2)
//     "workers":                integer — worker threads in the pool
//     "frames":                 integer — distinct frames per pass (warm-up
//                                         excluded)
//     "repeats":                integer — interleaved rounds (runs per cell)
//     "timed_seconds_min":      number  — shortest timed run of the cell
//                                         (construction and warm-up
//                                         excluded, both arms)
//     "frames_per_second":      number  — median over runs of frames
//                                         decoded / timed seconds, one
//                                         process() call per frame
//     "fps_min":                number  — slowest run
//     "fps_max":                number  — fastest run
//     "speedup_vs_mono":        number  — median over rounds of the round's
//                                         fps over the same-size grid=1
//                                         run's (1 for that cell)
//     "speedup_min":            number  — smallest per-round speedup
//     "speedup_max":            number  — largest per-round speedup
//     "rmse":                   number  — mean stitched RMSE vs ground
//                                         truth over one pass
//     "rmse_vs_mono":           number  — rmse / monolithic baseline rmse
//     "tiles_accepted":         integer — tiles whose sanity check passed,
//                                         over one pass
//     "tiles_total":            integer — shards x frames
//     "decode_calls":           integer — solver runs summed over tiles
//     "mean_solver_iterations": number  — mean FISTA iterations per tile
//   }
//
// Decodes are seeded, so every run of a cell decodes the same pixels; the
// pass statistics come from the first round.
//
// Full (non-smoke) --json runs additionally record the same object to
// BENCH_shard_scale.json at the repository root; smoke runs never touch
// that file so the ctest registration cannot overwrite a recorded sweep.
#include <algorithm>
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
#include "runtime/latency.hpp"
#include "runtime/shard.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

struct SweepConfig {
  std::vector<std::size_t> dims = {64, 128};
  // Tiles per side; shards = grid^2. The first grid, 1, is the monolithic
  // baseline and runs halo 0 (a halo around the only tile would pad pure
  // replication).
  std::vector<std::size_t> grids = {1, 2, 4};
  std::size_t halo = 2;  // sharded cells only
  std::size_t workers = 2;
  std::size_t frames = 4;  // distinct frames per pass (warm-up on top)
  // A run streams whole passes until this much time has elapsed.
  double min_run_seconds = 1.0;
  std::size_t repeats = 5;  // interleaved rounds per size
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
  cfg.min_run_seconds = 0.0;  // one pass
  cfg.repeats = 2;
  return cfg;
}

struct ScaleCell {
  std::size_t dim = 0;
  std::size_t tile = 0;
  std::size_t halo = 0;
  std::size_t shards = 0;
  std::size_t workers = 0;
  std::size_t frames = 0;
  std::size_t repeats = 0;
  double timed_seconds_min = 0.0;
  double frames_per_second = 0.0;  // median over runs
  double fps_min = 0.0;
  double fps_max = 0.0;
  double speedup_vs_mono = 0.0;  // median over rounds
  double speedup_min = 0.0;
  double speedup_max = 0.0;
  double rmse = 0.0;
  double rmse_vs_mono = 0.0;
  std::size_t tiles_accepted = 0;
  std::size_t tiles_total = 0;
  int decode_calls = 0;
  double mean_solver_iterations = 0.0;
};

// One timed run of a cell: its fps, plus the first pass's decode figures.
struct Run {
  double seconds = 0.0;
  double fps = 0.0;
  double rmse = 0.0;  // mean over the pass
  std::size_t tiles_accepted = 0;
  std::size_t tiles_total = 0;
  int decode_calls = 0;
  double mean_solver_iterations = 0.0;
};

runtime::ShardOptions shard_options(const SweepConfig& cfg, std::size_t dim,
                                    std::size_t grid) {
  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  runtime::ShardOptions opts;
  opts.tile_rows = opts.tile_cols = dim / grid;
  opts.halo = grid == 1 ? 0 : cfg.halo;
  opts.stream.workers = cfg.workers;
  opts.stream.solver = std::make_shared<solvers::FistaSolver>(fopts);
  // Throughput is the subject: clean frames, plain decode only, no debias
  // re-fit. Identical settings in every cell, so cells compare fairly.
  opts.stream.pipeline.max_rung = runtime::Strategy::kPlainDecode;
  opts.stream.pipeline.decoder.debias = false;
  opts.stream.seed = 0xa11d;
  return opts;
}

Run run_once(const SweepConfig& cfg, std::size_t dim, std::size_t grid,
             const std::vector<la::Matrix>& truths) {
  // Construction (plan build, worker spawn) and the warm-up frame are
  // excluded from the timing in both arms: they are once-per-decoder costs,
  // not per-frame ones.
  runtime::ShardedDecoder sharded(dim, dim, shard_options(cfg, dim, grid));
  (void)sharded.process(truths[0]);

  Run run;
  std::size_t timed = 0;
  std::size_t tile_count = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const bool first_pass = timed == 0;
    for (const la::Matrix& truth : truths) {
      // One process() call per frame, as a readout delivers them.
      const runtime::ShardFrameResult res = sharded.process(truth);
      ++timed;
      if (!first_pass) continue;
      run.rmse += cs::rmse(res.frame, truth);
      run.tiles_accepted += res.report.tiles_accepted;
      run.tiles_total += res.report.tiles;
      run.decode_calls += res.report.decode_calls;
      for (const runtime::TileReport& t : res.report.tile_reports) {
        run.mean_solver_iterations += t.report.solver_iterations;
        ++tile_count;
      }
    }
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  } while (run.seconds < cfg.min_run_seconds);
  run.fps = static_cast<double>(timed) / run.seconds;
  run.rmse /= static_cast<double>(truths.size());
  if (tile_count > 0)
    run.mean_solver_iterations /= static_cast<double>(tile_count);
  return run;
}

// Every cell of one size. cfg.grids[0] is 1: the monolithic baseline each
// round's speedups divide by.
std::vector<ScaleCell> run_size(const SweepConfig& cfg, std::size_t dim) {
  data::ThermalOptions topts;
  topts.rows = topts.cols = dim;
  const data::ThermalHandGenerator gen(topts);
  std::vector<la::Matrix> truths;
  for (std::size_t f = 0; f < cfg.frames; ++f) {
    Rng rng(100 + f);
    truths.push_back(gen.sample(rng).values);
  }

  const std::size_t n = cfg.grids.size();
  std::vector<std::vector<Run>> runs(n);  // [grid][round]
  for (std::size_t r = 0; r < cfg.repeats; ++r)
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t g = (k + r) % n;  // rotate the first grid
      runs[g].push_back(run_once(cfg, dim, cfg.grids[g], truths));
    }

  const std::vector<Run>& mono = runs[0];
  std::vector<ScaleCell> cells;
  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t grid = cfg.grids[g];
    const Run& first = runs[g].front();
    ScaleCell c;
    c.dim = dim;
    c.tile = dim / grid;
    c.halo = grid == 1 ? 0 : cfg.halo;
    c.shards = grid * grid;
    c.workers = cfg.workers;
    c.frames = cfg.frames;
    c.repeats = cfg.repeats;
    c.rmse = first.rmse;
    c.tiles_accepted = first.tiles_accepted;
    c.tiles_total = first.tiles_total;
    c.decode_calls = first.decode_calls;
    c.mean_solver_iterations = first.mean_solver_iterations;
    std::vector<double> fps, speedups;
    c.timed_seconds_min = first.seconds;
    for (std::size_t r = 0; r < runs[g].size(); ++r) {
      fps.push_back(runs[g][r].fps);
      c.timed_seconds_min = std::min(c.timed_seconds_min, runs[g][r].seconds);
      speedups.push_back(runs[g][r].fps / mono[r].fps);
    }
    // latency_percentile is the runtime's interpolating percentile; at 0.5
    // it is the median.
    c.frames_per_second = runtime::latency_percentile(fps, 0.5);
    c.fps_min = *std::min_element(fps.begin(), fps.end());
    c.fps_max = *std::max_element(fps.begin(), fps.end());
    c.speedup_vs_mono = runtime::latency_percentile(speedups, 0.5);
    c.speedup_min = *std::min_element(speedups.begin(), speedups.end());
    c.speedup_max = *std::max_element(speedups.begin(), speedups.end());
    c.rmse_vs_mono = c.rmse / mono.front().rmse;
    cells.push_back(c);
  }
  return cells;
}

std::string to_json(const bench::Provenance& provenance,
                    const std::vector<ScaleCell>& cells) {
  std::string out = "{\n\"provenance\": " + provenance.to_json() +
                    ",\n\"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& c = cells[i];
    out += strformat(
        "  {\"rows\": %zu, \"cols\": %zu, \"tile\": %zu, \"halo\": %zu, "
        "\"shards\": %zu, \"workers\": %zu, \"frames\": %zu, "
        "\"repeats\": %zu, \"timed_seconds_min\": %.3f, "
        "\"frames_per_second\": %.4f, \"fps_min\": %.4f, "
        "\"fps_max\": %.4f, \"speedup_vs_mono\": %.3f, "
        "\"speedup_min\": %.3f, \"speedup_max\": %.3f, "
        "\"rmse\": %.6f, \"rmse_vs_mono\": %.3f, \"tiles_accepted\": %zu, "
        "\"tiles_total\": %zu, \"decode_calls\": %d, "
        "\"mean_solver_iterations\": %.1f}%s\n",
        c.dim, c.dim, c.tile, c.halo, c.shards, c.workers, c.frames,
        c.repeats, c.timed_seconds_min, c.frames_per_second, c.fps_min,
        c.fps_max, c.speedup_vs_mono, c.speedup_min, c.speedup_max, c.rmse,
        c.rmse_vs_mono, c.tiles_accepted, c.tiles_total, c.decode_calls,
        c.mean_solver_iterations, i + 1 < cells.size() ? "," : "");
  }
  out += "]\n}\n";
  return out;
}

void print_table(const std::vector<ScaleCell>& cells, const SweepConfig& cfg) {
  std::printf(
      "Sharded decode scaling — ShardedDecoder, %zu workers, %zu frames "
      "per pass, >= %.1f s per run, medians of %zu interleaved rounds, "
      "FISTA tol %.0e\n",
      cfg.workers, cfg.frames, cfg.min_run_seconds, cfg.repeats,
      cfg.fista_tol);
  Table t({"size", "tile", "halo", "shards", "fps", "fps range", "speedup",
           "speedup range", "rmse", "rmse/mono", "iters"});
  for (const ScaleCell& c : cells) {
    t.add_row({strformat("%zu", c.dim), strformat("%zu", c.tile),
               strformat("%zu", c.halo), strformat("%zu", c.shards),
               strformat("%.1f", c.frames_per_second),
               strformat("%.1f-%.1f", c.fps_min, c.fps_max),
               strformat("%.2fx", c.speedup_vs_mono),
               strformat("%.2f-%.2fx", c.speedup_min, c.speedup_max),
               strformat("%.4f", c.rmse),
               strformat("%.2f", c.rmse_vs_mono),
               strformat("%.0f", c.mean_solver_iterations)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: at 4+ shards the stitched rmse is at or below the monolithic "
      "rmse and the median speedup is above 1x (a frame's latency is below "
      "the monolithic frame's)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (!args.ok) {
    bench::print_bench_usage(argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  const bench::Provenance provenance =
      bench::Provenance::collect(FLEXCS_SOURCE_DIR, FLEXCS_BUILD_TYPE);
  std::vector<ScaleCell> cells;
  for (const std::size_t dim : cfg.dims) {
    const std::vector<ScaleCell> size_cells = run_size(cfg, dim);
    cells.insert(cells.end(), size_cells.begin(), size_cells.end());
  }

  if (args.json) {
    const std::string out = to_json(provenance, cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_shard_scale.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
