// Fault-matrix sweep: fault kind x severity x recovery strategy, driven
// through the runtime::RobustPipeline escalation ladder. Each matrix cell
// caps the ladder at one strategy (opts.max_rung) and streams a few faulted
// thermal frames through it, so the table shows what every rung buys — and
// costs — against every fault kind of cs/faults.hpp.
//
// Usage:
//   bench_fault_matrix [--smoke] [--json] [--out PATH]
//
//   --smoke   tiny configuration (16x16, one frame, one severity, rungs 0-1)
//             used by the ctest smoke registration; finishes in seconds.
//   --json    machine-readable output instead of the text table.
//
// JSON schema (--json): stdout carries exactly one JSON array; one object
// per (kind, severity, strategy) cell, all keys always present:
//   {
//     "kind":              string  — cs::fault_kind_name, e.g. "stuck-pixel"
//     "severity":          number  — the severity knob for that kind (below)
//     "strategy":          string  — runtime::strategy_name of the ladder
//                                    ceiling for this cell
//     "frames":            integer — frames averaged
//     "rmse":              number  — mean RMSE vs ground truth
//     "accept_rate":       number  — fraction of frames whose ground-truth-
//                                    free sanity check passed
//     "decode_calls":      number  — mean sparse-solver calls per frame
//     "escalation_depth":  number  — mean rungs climbed beyond plain decode
//     "solver_iterations": number  — mean inner-solver iterations of the
//                                    chosen candidate per frame (a
//                                    resampling candidate counts every
//                                    round)
//     "decode_seconds":    number  — mean wall-clock seconds per frame
//   }
//
// Full (non-smoke) --json runs additionally record the same array to
// BENCH_fault_matrix.json at the repository root; smoke runs never touch
// that file so the ctest registration cannot overwrite a recorded sweep.
//
// Severity mapping per kind (the "rate" axis of the sweep):
//   stuck-pixel           fraction of pixels stuck
//   line                  severity ignored; one stuck-high row
//   flicker               per-frame flicker probability
//   readout-noise         Gaussian sigma
//   gain-drift            gain drift per frame
//   adc-saturation        rails at [severity, 1 - severity]
//   dropped-measurements  fraction of measurement slots lost
//
// FISTA is the decode solver throughout, the trimmed rungs' residual screen
// included (a FISTA solve at the screen's strong λ). The ladder's acceptance
// check reads the shape of each decode's fit (support ratio, spectral tail,
// trimmed share; EXPERIMENTS.md E19), not the solver's convergence flag:
// with adaptive restart FISTA converges on clean and corrupted frames alike.
//
// The recorded sweep is a robustness floor: the ctest
// `bench.fault_matrix_floor` fails when any cell's RMSE exceeds 1.02x the
// reference record in tests/data/BENCH_fault_matrix_reference.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/faults.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/pipeline.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

struct SweepConfig {
  std::size_t dim = 32;
  int frames = 2;
  std::vector<double> severities = {0.02, 0.05, 0.10};
  std::vector<runtime::Strategy> strategies = {
      runtime::Strategy::kPlainDecode, runtime::Strategy::kTrimmedDecode,
      runtime::Strategy::kFreshPatternRetry, runtime::Strategy::kResample};
  int resample_rounds = 4;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.dim = 16;
  cfg.frames = 1;
  cfg.severities = {0.05};
  cfg.strategies = {runtime::Strategy::kPlainDecode,
                    runtime::Strategy::kTrimmedDecode};
  cfg.resample_rounds = 2;
  return cfg;
}

constexpr cs::FaultKind kKinds[] = {
    cs::FaultKind::kStuckPixel,    cs::FaultKind::kLine,
    cs::FaultKind::kFlicker,       cs::FaultKind::kReadoutNoise,
    cs::FaultKind::kGainDrift,     cs::FaultKind::kAdcSaturation,
    cs::FaultKind::kDroppedMeasurements,
};

// Frame-level scenario for the kind (empty for measurement-level kinds).
cs::FaultScenario frame_scenario(cs::FaultKind kind, double severity,
                                 std::size_t dim) {
  switch (kind) {
    case cs::FaultKind::kStuckPixel:
      return cs::FaultScenario(
          {cs::StuckPixelFault{severity, cs::DefectPolarity::kRandom, 99}});
    case cs::FaultKind::kLine: {
      cs::LineFault lf;
      lf.orientation = cs::LineOrientation::kRow;
      lf.line = dim / 3;
      lf.mode = cs::LineFailureMode::kStuckHigh;
      return cs::FaultScenario({lf});
    }
    case cs::FaultKind::kFlicker:
      return cs::FaultScenario(
          {cs::FlickerFault{severity, cs::DefectPolarity::kRandom, 99}});
    case cs::FaultKind::kReadoutNoise:
      return cs::FaultScenario({cs::ReadoutNoiseFault{severity, 99}});
    case cs::FaultKind::kGainDrift: {
      cs::GainDriftFault gd;
      gd.drift_per_frame = severity;
      gd.seed = 99;
      return cs::FaultScenario({gd});
    }
    case cs::FaultKind::kAdcSaturation:
    case cs::FaultKind::kDroppedMeasurements:
      return {};
  }
  return {};
}

// Measurement-level scenario for the kind (empty for frame-level kinds).
cs::FaultScenario measurement_scenario(cs::FaultKind kind, double severity) {
  switch (kind) {
    case cs::FaultKind::kAdcSaturation: {
      cs::AdcSaturationFault sat;
      sat.lo = severity;
      sat.hi = 1.0 - severity;
      return cs::FaultScenario({sat});
    }
    case cs::FaultKind::kDroppedMeasurements:
      return cs::FaultScenario({cs::DroppedMeasurementFault{severity, 99}});
    default:
      return {};
  }
}

struct Cell {
  cs::FaultKind kind;
  double severity = 0.0;
  runtime::Strategy strategy;
  int frames = 0;
  double rmse = 0.0;
  double accept_rate = 0.0;
  double decode_calls = 0.0;
  double escalation_depth = 0.0;
  double solver_iterations = 0.0;
  double decode_seconds = 0.0;
};

Cell run_cell(const SweepConfig& cfg, cs::FaultKind kind, double severity,
              runtime::Strategy ceiling) {
  Cell cell;
  cell.kind = kind;
  cell.severity = severity;
  cell.strategy = ceiling;
  cell.frames = cfg.frames;

  runtime::RobustPipelineOptions opts;
  opts.max_rung = ceiling;
  opts.budget.resample_rounds = cfg.resample_rounds;
  opts.measurement_faults = measurement_scenario(kind, severity);
  runtime::RobustPipeline pipe(
      cfg.dim, cfg.dim, opts, std::make_shared<solvers::FistaSolver>());

  const cs::FaultScenario faults = frame_scenario(kind, severity, cfg.dim);
  data::ThermalOptions topts;
  topts.rows = topts.cols = cfg.dim;
  const data::ThermalHandGenerator gen(topts);

  Rng frame_rng(7);
  Rng pipe_rng(11);
  for (int f = 0; f < cfg.frames; ++f) {
    const la::Matrix truth = gen.sample(frame_rng).values;
    const la::Matrix corrupted =
        faults.has_frame_faults()
            ? faults.corrupt_frame(truth, static_cast<std::size_t>(f)).values
            : truth;
    const auto res =
        pipe.process(corrupted, static_cast<std::size_t>(f), pipe_rng);
    cell.rmse += cs::rmse(res.frame, truth);
    cell.accept_rate += res.report.accepted ? 1.0 : 0.0;
    cell.decode_calls += res.report.decode_calls;
    cell.escalation_depth += res.report.escalation_depth;
    cell.solver_iterations += res.report.solver_iterations;
    cell.decode_seconds += res.report.decode_seconds;
  }
  const double n = static_cast<double>(cfg.frames);
  cell.rmse /= n;
  cell.accept_rate /= n;
  cell.decode_calls /= n;
  cell.escalation_depth /= n;
  cell.solver_iterations /= n;
  cell.decode_seconds /= n;
  return cell;
}

std::string to_json(const std::vector<Cell>& cells) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out += strformat(
        "  {\"kind\": \"%s\", \"severity\": %.4f, \"strategy\": \"%s\", "
        "\"frames\": %d, \"rmse\": %.6f, \"accept_rate\": %.4f, "
        "\"decode_calls\": %.2f, \"escalation_depth\": %.2f, "
        "\"solver_iterations\": %.1f, \"decode_seconds\": %.6f}%s\n",
        cs::fault_kind_name(c.kind), c.severity,
        runtime::strategy_name(c.strategy), c.frames, c.rmse, c.accept_rate,
        c.decode_calls, c.escalation_depth, c.solver_iterations,
        c.decode_seconds, i + 1 < cells.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void print_table(const std::vector<Cell>& cells, const SweepConfig& cfg) {
  std::printf(
      "Fault matrix — RobustPipeline ladder capped per strategy "
      "(%zux%zu, %d frame(s) per cell, FISTA)\n",
      cfg.dim, cfg.dim, cfg.frames);
  Table t({"fault kind", "severity", "strategy", "rmse", "accept",
           "calls", "depth", "iters", "sec"});
  for (const Cell& c : cells) {
    t.add_row({cs::fault_kind_name(c.kind), strformat("%.2f", c.severity),
               runtime::strategy_name(c.strategy), strformat("%.4f", c.rmse),
               strformat("%.0f%%", 100.0 * c.accept_rate),
               strformat("%.1f", c.decode_calls),
               strformat("%.1f", c.escalation_depth),
               strformat("%.0f", c.solver_iterations),
               strformat("%.4f", c.decode_seconds)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: higher rungs trade decode calls for lower RMSE on sparse "
      "faults; dense noise is absorbed, not escalated\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (!args.ok) {
    bench::print_bench_usage(argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  std::vector<Cell> cells;
  for (const cs::FaultKind kind : kKinds) {
    // Line faults have no severity axis; sweep them once.
    const bool has_severity = kind != cs::FaultKind::kLine;
    const std::vector<double> severities =
        has_severity ? cfg.severities
                     : std::vector<double>{cfg.severities.front()};
    for (const double severity : severities)
      for (const runtime::Strategy strategy : cfg.strategies)
        cells.push_back(run_cell(cfg, kind, severity, strategy));
  }

  if (args.json) {
    const std::string out = to_json(cells);
    std::fputs(out.c_str(), stdout);
    if (bench::should_record(args))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_fault_matrix.json"));
  } else {
    print_table(cells, cfg);
  }
  return 0;
}
