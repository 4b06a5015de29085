// Event-driven readout sweep: scene activity level x (gated | ungated)
// through runtime::ShardedDecoder. Every cell streams the same synthetic
// scene — a thermal background in which a fixed subset of `active` tiles
// carries a moving hot blob while every other tile stays bit-identical frame
// to frame — through two decoders with the identical solver configuration
// and iteration budget. The ungated arm decodes every tile of every frame;
// the gated arm decodes only the tiles whose activity detector fired and
// serves the rest verbatim from the previous reconstruction.
//
// The acceptance shape this bench exists to demonstrate: at <= 25 % active
// tiles the gated arm delivers >= 3x the ungated steady-state frames/sec,
// its active-tile RMSE stays in the ungated quality regime (same solver,
// same budget — the speedup is bought with skipped work, not with quality),
// and every skipped tile is served bit-for-bit from the previous frame
// (skipped_bit_identical is true in every cell).
//
// Timing is steady-state: both arms first decode one warm-up frame (the
// gated arm's first frame is a forced full decode — there is nothing to
// serve stale yet), then the timed frames follow. The warm-up is excluded
// from the fps of both arms alike. One short timed run per arm is too noisy
// to compare the arms, so each cell runs them as `repeats` interleaved
// pairs, alternating which arm goes first, each arm with a fresh decoder and
// its own warm-up; the fps figures are per-arm medians and the ratio is the
// median of the per-pair ratios, recorded with their range.
//
// Usage:
//   bench_activity [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (32x32, 16 tiles, two activity levels) used
//             by the ctest smoke registration; finishes in seconds.
//   --json    machine-readable output instead of the text table.
//   --out     record path override (see bench_util.hpp).
//
// JSON schema (--json): stdout carries exactly one JSON array; one object
// per activity level, all keys always present:
//   {
//     "rows":                  integer — array rows (= cols, square sweep)
//     "cols":                  integer
//     "tile":                  integer — tile side (halo 0 in this sweep)
//     "tiles":                 integer — tiles per frame
//     "active_tiles":          integer — tiles carrying moving content
//     "active_fraction":       number  — active_tiles / tiles
//     "frames":                integer — timed frames per run (warm-up
//                                        excluded)
//     "repeats":               integer — interleaved (gated, ungated) pairs
//     "gated_fps":             number  — gated steady-state frames/sec,
//                                        median over repeats
//     "ungated_fps":           number  — same, ungated arm
//     "fps_ratio":             number  — median over repeats of the pair's
//                                        gated fps / ungated fps
//     "fps_ratio_min":         number  — smallest per-pair ratio
//     "fps_ratio_max":         number  — largest per-pair ratio
//     "gated_active_rmse":     number  — RMSE over active tiles vs truth
//     "ungated_active_rmse":   number  — same, ungated arm
//     "active_rmse_ratio":     number  — gated / ungated active-tile RMSE
//     "tiles_skipped":         integer — gated arm, summed over one run's
//                                        timed frames
//     "tiles_expected_skipped":integer — (tiles - active) x frames
//     "skipped_bit_identical": boolean — in every run, every skipped tile
//                                        matched the previous
//                                        reconstruction bit-for-bit
//     "gated_decode_calls":    integer — solver runs, one gated run's timed
//                                        frames
//     "ungated_decode_calls":  integer — same, ungated arm
//   }
//
// Decodes are seeded per tile, so the RMSE, skip and decode-call figures of
// every repeat are identical; only the timings differ between repeats.
//
// Full (non-smoke) --json runs additionally record the same array to
// BENCH_activity.json at the repository root; smoke runs never touch that
// file so the ctest registration cannot overwrite a recorded sweep.
#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "runtime/shard.hpp"
#include "runtime/stream.hpp"
#include "runtime/tile_grid.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

struct SweepConfig {
  std::size_t dim = 64;
  std::size_t tile = 16;  // 4x4 grid = 16 tiles
  std::vector<std::size_t> active_levels = {2, 4, 8, 16};
  std::size_t frames = 8;  // timed frames (one warm-up frame on top)
  std::size_t repeats = 5;  // interleaved (gated, ungated) pairs per cell
  std::size_t workers = 2;
  std::size_t queue_capacity = 32;
  double threshold = 0.05;
  double detector_fraction = 0.25;
  int fista_iterations = 400;
  double fista_tol = 1e-6;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.dim = 32;
  cfg.tile = 8;
  cfg.active_levels = {2, 8};
  cfg.frames = 3;
  cfg.repeats = 2;
  return cfg;
}

struct ActivityCell {
  std::size_t dim = 0;
  std::size_t tile = 0;
  std::size_t tiles = 0;
  std::size_t active_tiles = 0;
  std::size_t frames = 0;
  std::size_t repeats = 0;
  double gated_fps = 0.0;
  double ungated_fps = 0.0;
  double fps_ratio = 0.0;
  double fps_ratio_min = 0.0;
  double fps_ratio_max = 0.0;
  double gated_active_rmse = 0.0;
  double ungated_active_rmse = 0.0;
  double active_rmse_ratio = 0.0;
  std::size_t tiles_skipped = 0;
  std::size_t tiles_expected_skipped = 0;
  bool skipped_bit_identical = true;
  int gated_decode_calls = 0;
  int ungated_decode_calls = 0;
};

// The scene: a fixed thermal background; each active tile carries a hot
// Gaussian blob whose centre orbits the tile, so consecutive frames of an
// active tile differ strongly (the detector cannot miss it) while every
// inactive tile stays bit-identical to the previous frame.
std::vector<la::Matrix> make_scene(const runtime::TileGrid& grid,
                                   std::size_t active, std::size_t frames) {
  data::ThermalOptions topts;
  topts.rows = grid.rows;
  topts.cols = grid.cols;
  Rng rng(0xbe7c);
  const la::Matrix base = data::ThermalHandGenerator(topts).sample(rng).values;

  std::vector<la::Matrix> scene;
  scene.reserve(frames);
  const double radius = static_cast<double>(grid.tile_rows) / 4.0;
  const double sigma = static_cast<double>(grid.tile_rows) / 6.0;
  for (std::size_t f = 0; f < frames; ++f) {
    la::Matrix frame = base;
    for (std::size_t t = 0; t < active; ++t) {
      const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
      const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
      // Blob centre orbits the tile centre, one step per frame; the phase
      // offset per tile decorrelates neighbouring tiles' motion.
      const double phase =
          0.9 * static_cast<double>(f) + 0.7 * static_cast<double>(t);
      const double ci = static_cast<double>(grid.tile_rows) / 2.0 +
                        radius * std::cos(phase);
      const double cj = static_cast<double>(grid.tile_cols) / 2.0 +
                        radius * std::sin(phase);
      for (std::size_t i = 0; i < grid.tile_rows; ++i) {
        for (std::size_t j = 0; j < grid.tile_cols; ++j) {
          const double di = static_cast<double>(i) - ci;
          const double dj = static_cast<double>(j) - cj;
          const double bump =
              0.6 * std::exp(-(di * di + dj * dj) / (2.0 * sigma * sigma));
          double& px = frame(r0 + i, c0 + j);
          px = std::min(1.0, px + bump);
        }
      }
    }
    scene.push_back(std::move(frame));
  }
  return scene;
}

// RMSE over the active tiles only (the tiles both arms actually decode
// fresh every frame), averaged over the timed frames.
double active_tile_rmse(const runtime::TileGrid& grid, std::size_t active,
                        const std::vector<la::Matrix>& recon,
                        const std::vector<la::Matrix>& truth,
                        std::size_t first_timed) {
  double sum = 0.0;
  std::size_t terms = 0;
  for (std::size_t f = first_timed; f < recon.size(); ++f) {
    for (std::size_t t = 0; t < active; ++t) {
      const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
      const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
      double sq = 0.0;
      for (std::size_t i = 0; i < grid.tile_rows; ++i)
        for (std::size_t j = 0; j < grid.tile_cols; ++j) {
          const double d =
              recon[f](r0 + i, c0 + j) - truth[f](r0 + i, c0 + j);
          sq += d * d;
        }
      sum += std::sqrt(
          sq / static_cast<double>(grid.tile_rows * grid.tile_cols));
      ++terms;
    }
  }
  return terms > 0 ? sum / static_cast<double>(terms) : 0.0;
}

runtime::ShardOptions decoder_options(const SweepConfig& cfg, bool gated) {
  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  runtime::ShardOptions opts;
  opts.tile_rows = opts.tile_cols = cfg.tile;
  opts.halo = 0;
  opts.stream.workers = cfg.workers;
  opts.stream.queue_capacity = cfg.queue_capacity;
  opts.stream.solver = std::make_shared<solvers::FistaSolver>(fopts);
  // Throughput is the subject: clean frames, plain decode only, identical
  // iteration budget in both arms.
  opts.stream.pipeline.max_rung = runtime::Strategy::kPlainDecode;
  opts.stream.pipeline.decoder.debias = false;
  opts.stream.seed = 0xa11d;
  if (gated) {
    opts.gate.enabled = true;
    opts.gate.threshold = cfg.threshold;
    opts.gate.detector_fraction = cfg.detector_fraction;
    opts.gate.force_refresh_period = 0;  // activity is the only trigger
  }
  return opts;
}

// One timed run of one arm through a fresh decoder.
struct ArmRun {
  double fps = 0.0;
  double active_rmse = 0.0;
  int decode_calls = 0;
  std::size_t tiles_skipped = 0;
  bool skipped_bit_identical = true;
};

ArmRun run_arm(const SweepConfig& cfg, const runtime::TileGrid& grid,
               std::size_t active, const std::vector<la::Matrix>& scene,
               bool gated) {
  runtime::ShardedDecoder sharded(cfg.dim, cfg.dim,
                                  decoder_options(cfg, gated));
  ArmRun run;
  std::vector<la::Matrix> recon;
  recon.reserve(scene.size());
  recon.push_back(sharded.process(scene[0]).frame);  // warm-up, untimed

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t f = 1; f < scene.size(); ++f) {
    runtime::ShardFrameResult res = sharded.process(scene[f]);
    run.decode_calls += res.report.decode_calls;
    run.tiles_skipped += res.report.tiles_skipped;
    // Audit the staleness contract: every skipped tile's pixels must equal
    // the previous reconstruction bit for bit.
    for (std::size_t t = 0; t < grid.tiles(); ++t) {
      if (!res.report.tile_reports[t].served_stale) continue;
      const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
      const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
      for (std::size_t i = 0; i < grid.tile_rows; ++i)
        for (std::size_t j = 0; j < grid.tile_cols; ++j)
          if (res.frame(r0 + i, c0 + j) != recon.back()(r0 + i, c0 + j))
            run.skipped_bit_identical = false;
    }
    recon.push_back(std::move(res.frame));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  run.fps = static_cast<double>(cfg.frames) / seconds;
  run.active_rmse = active_tile_rmse(grid, active, recon, scene, 1);
  return run;
}

ActivityCell run_cell(const SweepConfig& cfg, std::size_t active) {
  const runtime::TileGrid grid(cfg.dim, cfg.dim, cfg.tile, cfg.tile, 0);
  ActivityCell cell;
  cell.dim = cfg.dim;
  cell.tile = cfg.tile;
  cell.tiles = grid.tiles();
  cell.active_tiles = active;
  cell.frames = cfg.frames;
  cell.repeats = cfg.repeats;
  cell.tiles_expected_skipped = (grid.tiles() - active) * cfg.frames;

  // Warm-up frame + timed frames, one scene shared by both arms.
  const std::vector<la::Matrix> scene =
      make_scene(grid, active, cfg.frames + 1);

  std::vector<double> gated_fps, ungated_fps, ratios;
  for (std::size_t r = 0; r < cfg.repeats; ++r) {
    // Alternate the order so a drift across the pair (clock, cache, other
    // load) does not always fall on the same arm.
    const bool gated_first = r % 2 == 0;
    const ArmRun first = run_arm(cfg, grid, active, scene, gated_first);
    const ArmRun second = run_arm(cfg, grid, active, scene, !gated_first);
    const ArmRun& gated = gated_first ? first : second;
    const ArmRun& ungated = gated_first ? second : first;
    gated_fps.push_back(gated.fps);
    ungated_fps.push_back(ungated.fps);
    ratios.push_back(gated.fps / ungated.fps);
    cell.skipped_bit_identical =
        cell.skipped_bit_identical && gated.skipped_bit_identical;
    if (r == 0) {
      cell.gated_active_rmse = gated.active_rmse;
      cell.ungated_active_rmse = ungated.active_rmse;
      cell.gated_decode_calls = gated.decode_calls;
      cell.ungated_decode_calls = ungated.decode_calls;
      cell.tiles_skipped = gated.tiles_skipped;
    }
  }
  // latency_percentile is the runtime's interpolating percentile; at 0.5
  // it is the median.
  cell.gated_fps = runtime::latency_percentile(gated_fps, 0.5);
  cell.ungated_fps = runtime::latency_percentile(ungated_fps, 0.5);
  cell.fps_ratio = runtime::latency_percentile(ratios, 0.5);
  cell.fps_ratio_min = *std::min_element(ratios.begin(), ratios.end());
  cell.fps_ratio_max = *std::max_element(ratios.begin(), ratios.end());
  cell.active_rmse_ratio = cell.ungated_active_rmse > 0.0
                               ? cell.gated_active_rmse /
                                     cell.ungated_active_rmse
                               : 0.0;
  return cell;
}

std::string to_json(const std::vector<ActivityCell>& cells) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ActivityCell& c = cells[i];
    out += strformat(
        "  {\"rows\": %zu, \"cols\": %zu, \"tile\": %zu, \"tiles\": %zu, "
        "\"active_tiles\": %zu, \"active_fraction\": %.4f, \"frames\": %zu, "
        "\"repeats\": %zu, \"gated_fps\": %.4f, \"ungated_fps\": %.4f, "
        "\"fps_ratio\": %.3f, \"fps_ratio_min\": %.3f, "
        "\"fps_ratio_max\": %.3f, "
        "\"gated_active_rmse\": %.6f, \"ungated_active_rmse\": %.6f, "
        "\"active_rmse_ratio\": %.3f, \"tiles_skipped\": %zu, "
        "\"tiles_expected_skipped\": %zu, \"skipped_bit_identical\": %s, "
        "\"gated_decode_calls\": %d, \"ungated_decode_calls\": %d}%s\n",
        c.dim, c.dim, c.tile, c.tiles, c.active_tiles,
        static_cast<double>(c.active_tiles) / static_cast<double>(c.tiles),
        c.frames, c.repeats, c.gated_fps, c.ungated_fps, c.fps_ratio,
        c.fps_ratio_min, c.fps_ratio_max,
        c.gated_active_rmse, c.ungated_active_rmse, c.active_rmse_ratio,
        c.tiles_skipped, c.tiles_expected_skipped,
        c.skipped_bit_identical ? "true" : "false", c.gated_decode_calls,
        c.ungated_decode_calls, i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void print_table(const std::vector<ActivityCell>& cells,
                 const SweepConfig& cfg) {
  std::printf(
      "Event-driven readout — ShardedDecoder, %zu workers, %zu timed frames "
      "per run, medians of %zu interleaved pairs, threshold %.2f, detector "
      "fraction %.2f\n",
      cfg.workers, cfg.frames, cfg.repeats, cfg.threshold,
      cfg.detector_fraction);
  Table t({"tiles", "active", "gated fps", "ungated fps", "ratio [min, max]",
           "act rmse (g)", "act rmse (u)", "skipped", "bit-ident"});
  for (const ActivityCell& c : cells) {
    t.add_row({strformat("%zu", c.tiles), strformat("%zu", c.active_tiles),
               strformat("%.3f", c.gated_fps),
               strformat("%.3f", c.ungated_fps),
               strformat("%.2fx [%.2f, %.2f]", c.fps_ratio, c.fps_ratio_min,
                         c.fps_ratio_max),
               strformat("%.4f", c.gated_active_rmse),
               strformat("%.4f", c.ungated_active_rmse),
               strformat("%zu/%zu", c.tiles_skipped,
                         c.tiles_expected_skipped),
               c.skipped_bit_identical ? "yes" : "NO"});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: at <= 25%% active tiles the gated arm delivers >= 3x the "
      "ungated frames/sec with active-tile rmse in the ungated regime and "
      "every skipped tile served bit-identically\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (!args.ok) {
    bench::print_bench_usage(argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  std::vector<ActivityCell> cells;
  for (const std::size_t active : cfg.active_levels)
    cells.push_back(run_cell(cfg, active));

  if (args.json) {
    const std::string out = to_json(cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_activity.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
