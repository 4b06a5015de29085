// Dense vs matrix-free measurement-operator sweep, plus a per-apply
// transform microbenchmark.
//
// Decode sweep: both arms decode the same thermal frame from the same
// sampling pattern with the same FISTA configuration; the only difference is
// the operator representation — dense A = Φ_M·Ψ (N x N Ψ materialised and
// row-selected by the golden helper in tests/golden.hpp, solved through
// FistaSolver::solve(Matrix)) versus cs::Decoder's SubsampledTransformOperator
// (FFT-based 1-D DCT plans / in-place Haar lifting, gather/scatter per
// apply).
//
// Operator memory: the dense figure is analytic (exact and platform
// independent, computable even for sizes whose dense arm never runs):
//   dense:    8 * (N² + M·N) bytes   (Ψ plus the cached measurement matrix)
// The implicit figure is the operator's own cached_state_bytes() — the DCT
// plan tables (bit-reversal + twiddles, O(rows + cols), for pow2 sides; the
// folded half-tables, O(rows² + cols²), for the others); Haar caches
// nothing. Per-apply scratch is O(N) and thread-local.
//
// Per-apply microbench (the `per_apply_*` sections): for each 1-D length,
// one DCT-II and one DCT-III pass through three kernels — the naive O(n²)
// cosine-sum (dsp::dct1d/idct1d, the golden reference), the cached dense
// factor matvec (the pre-plan implicit kernel), and the plan
// (dsp::Dct1dPlan: the Makhoul FFT for pow2 lengths, the even/odd-folded
// kernel otherwise) — with per-call wall time, speedups, and the
// max fast-vs-naive error. The lengths include 20 and 36, the halo-padded
// 16 and 32 px tiles the runtime actually decodes, so the non-pow2 kernel
// is measured too. For each grid size and basis, the measured per-apply
// / per-adjoint cost of the full SubsampledTransformOperator via its own
// ApplyStats metering. The `per_kernel_isa` section times the 2-D DCT-II +
// DCT-III pair at the runtime's 20×20 and 36×36 tiles through each ISA
// build of the folded kernel (baseline and AVX2, dsp/fold_kernel.hpp) in
// interleaved blocks, and `kernel_isa` records which one this host's
// decodes run.
//
// Usage:
//   bench_operator [--smoke] [--json] [--out PATH] [--micro]
//
//   --smoke   tiny configuration (16x16) used by the ctest smoke
//             registrations; finishes in well under a second.
//   --json    machine-readable output instead of the text tables.
//   --micro   per-apply microbenchmark only (skips the decode sweep; never
//             records to the default BENCH_operator.json path, so a partial
//             run cannot clobber a recorded full sweep).
//
// JSON schema (--json): stdout carries exactly one JSON object:
//   {
//     "kernel_isa": string  — "avx2" | "baseline": the folded kernel's ISA
//                             on this host (dsp::kernel_isa())
//     "decode": [            // one object per (size, mode) decode cell
//       {
//         "rows":                integer — array rows (= cols, square sweep)
//         "cols":                integer
//         "mode":                string  — "dense" | "implicit"
//         "m":                   integer — measurements (pattern size)
//         "n":                   integer — pixels (rows * cols)
//         "fraction":            number  — m / n
//         "build_seconds":       number  — decoder construction + operator
//                                          cache fill (dense: + spectral
//                                          warm-up)
//         "decode_seconds":      number  — the decode call alone
//         "iterations":          integer — solver iterations
//         "converged":           boolean
//         "rmse":                number  — reconstruction RMSE vs truth
//         "residual_norm":       number  — ||A x - y||_2 at the solution
//         "operator_bytes":      integer — operator memory (above)
//         "mem_ratio_vs_dense":  number  — analytic dense bytes / this
//                                          cell's bytes (1.0 for dense)
//         "rmse_delta_vs_dense": number or null — |rmse - dense-arm rmse|;
//                                          null when the size has no dense
//                                          arm to compare (no sentinels)
//       }, ...
//     ],
//     "per_apply_1d": [      // one object per (length, DCT direction)
//       {
//         "n":                  integer — 1-D transform length
//         "kind":               string  — "dct2" (forward) | "dct3"
//         "naive_ms":           number  — per-call ms, O(n²) cosine sum
//         "factor_ms":          number  — per-call ms, dense factor matvec
//         "fast_ms":            number  — per-call ms, FFT plan
//         "speedup_vs_naive":   number  — naive_ms / fast_ms
//         "speedup_vs_factor":  number  — factor_ms / fast_ms
//         "max_abs_err":        number  — max |fast - naive| on one input
//       }, ...
//     ],
//     "per_apply_operator": [ // one object per (grid size, basis)
//       {
//         "dim":        integer — square grid dimension
//         "basis":      string  — "dct2d" | "haar2d"
//         "m":          integer — measurements (pattern size)
//         "apply_ms":   number  — per-apply ms (operator's ApplyStats)
//         "adjoint_ms": number  — per-adjoint ms
//         "reps":       integer — timed repetitions per direction
//       }, ...
//     ],
//     "per_kernel_isa": [    // one object per square grid dim (20, 36)
//       {
//         "dim":          integer — grid dimension
//         "baseline_us":  number  — per-pair µs, baseline build (median
//                                   over blocks)
//         "avx2_us":      number or null — per-pair µs, AVX2 build; null on
//                                   a host without AVX2 (not run)
//         "speedup":      number or null — median over blocks of the
//                                   block's baseline_us / avx2_us
//         "speedup_q1", "speedup_q3": number or null — its quartiles
//         "blocks":       integer — interleaved blocks (order alternates)
//         "reps":         integer — pairs per variant per block
//       }, ...
//     ]
//   }
// A --micro run emits the same object with "decode": [].
//
// Full (non-smoke, non-micro) --json runs additionally record the object to
// BENCH_operator.json at the repository root; smoke runs never touch that
// file so the ctest registrations cannot overwrite a recorded sweep.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/decoder.hpp"
#include "cs/metrics.hpp"
#include "cs/sampling.hpp"
#include "data/thermal.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/fold_kernel.hpp"
#include "golden.hpp"
#include "la/matrix.hpp"
#include "solvers/fista.hpp"

namespace {

using namespace flexcs;

struct SweepConfig {
  // Sizes that run both arms, and sizes that run implicit-only (the dense
  // arm is priced analytically there — the point is that it never runs).
  // 64x64 already shows the dense-vs-implicit equality; a dense 128x128 arm
  // would build a 2.8 GB operator to show it again.
  std::vector<std::size_t> both_dims = {32, 64};
  std::vector<std::size_t> implicit_only_dims = {128, 256};
  // Per-apply microbench sizes: 1-D lengths and square grid dims. 20 and 36
  // are the runtime's halo-padded tile sizes (non-pow2 plan path).
  std::vector<std::size_t> micro_dims = {20, 32, 36, 64, 128, 256};
  // Per-ISA A/B grids (the runtime's tiles) and interleaved blocks.
  std::vector<std::size_t> isa_dims = {20, 36};
  int isa_blocks = 15;
  double fraction = 0.3;
  // Tight tolerance: the equal-RMSE gate compares the two arms at 1e-6, so
  // both must converge well past the comparison threshold.
  int fista_iterations = 4000;
  double fista_tol = 1e-8;
};

SweepConfig smoke_config() {
  SweepConfig cfg;
  cfg.both_dims = {16};
  cfg.implicit_only_dims = {};
  cfg.micro_dims = {16, 20};
  cfg.isa_dims = {20};
  cfg.isa_blocks = 5;
  cfg.fraction = 0.4;
  cfg.fista_iterations = 1000;
  cfg.fista_tol = 1e-7;
  return cfg;
}

struct OperatorCell {
  std::size_t dim = 0;
  bool implicit = false;
  std::size_t m = 0;
  std::size_t n = 0;
  double build_seconds = 0.0;
  double decode_seconds = 0.0;
  int iterations = 0;
  bool converged = false;
  double rmse = 0.0;
  double residual_norm = 0.0;
  std::size_t operator_bytes = 0;
  double mem_ratio_vs_dense = 1.0;
  bool has_dense_delta = false;  // false: no dense arm at this size
  double rmse_delta_vs_dense = 0.0;
};

std::size_t dense_operator_bytes(std::size_t n, std::size_t m) {
  return 8 * (n * n + m * n);
}

OperatorCell run_cell(const SweepConfig& cfg, std::size_t dim, bool implicit) {
  OperatorCell cell;
  cell.dim = dim;
  cell.implicit = implicit;

  // Same pattern, frame, and measurements in both arms at a given size:
  // seeds depend only on the size, never on the mode.
  Rng pattern_rng(0x0b5e + dim);
  const cs::SamplingPattern p =
      cs::random_pattern(dim, dim, cfg.fraction, pattern_rng);
  cell.m = p.m();
  cell.n = p.n();

  data::ThermalOptions topts;
  topts.rows = topts.cols = dim;
  Rng frame_rng(100 + dim);
  const la::Matrix truth = data::ThermalHandGenerator(topts).sample(frame_rng).values;
  const la::Vector y = cs::apply_pattern(p, truth.flatten());

  solvers::FistaOptions fopts;
  fopts.max_iterations = cfg.fista_iterations;
  fopts.tol = cfg.fista_tol;

  const auto fista = std::make_shared<solvers::FistaSolver>(fopts);
  cs::DecoderOptions dopts;
  // Plain decode only: no debias re-fit, no clamp, so the recorded RMSE is
  // the solver's own solution quality and the two arms compare exactly.
  dopts.debias = false;
  dopts.clamp01 = false;

  // Build phase: the dense arm pays the N x N Ψ, its row selection and the
  // spectral-norm power iteration that serves as its Lipschitz hint; the
  // implicit arm pays the decoder's operator cache fill, whose exact norm
  // (1, a tight frame) decode passes to FISTA itself. Once-per-geometry
  // cost, separated from decode.
  const auto b0 = std::chrono::steady_clock::now();
  const cs::Decoder decoder(dim, dim, dopts, fista);
  la::Matrix dense_a;
  if (implicit) {
    decoder.measurement_operator(p);  // cached per pattern; decode reuses it
  } else {
    dense_a = golden::measurement_matrix(dopts.basis, p);
    dopts.solve.operator_norm_hint = la::spectral_norm(dense_a);
  }
  const auto b1 = std::chrono::steady_clock::now();
  cell.build_seconds = std::chrono::duration<double>(b1 - b0).count();

  // Implicit cells report the operator's measured cached state (DCT plan
  // tables); dense cells their analytic footprint.
  cell.operator_bytes =
      implicit ? decoder.measurement_operator(p)->cached_state_bytes()
               : dense_operator_bytes(cell.n, cell.m);
  cell.mem_ratio_vs_dense =
      static_cast<double>(dense_operator_bytes(cell.n, cell.m)) /
      static_cast<double>(std::max<std::size_t>(1, cell.operator_bytes));

  // The dense arm is the decoder's solve + synthesis through the explicit
  // matrix (FistaSolver::solve(Matrix, ...)).
  const auto t0 = std::chrono::steady_clock::now();
  const cs::DecodeResult res =
      implicit ? decoder.decode(p, y)
               : golden::decode(dense_a, p, y, *fista, dopts);
  const auto t1 = std::chrono::steady_clock::now();
  cell.decode_seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.iterations = res.solver_iterations;
  cell.converged = res.converged;
  cell.residual_norm = res.residual_norm;
  cell.rmse = cs::rmse(res.frame, truth);
  return cell;
}

// Fills rmse_delta_vs_dense for every cell whose size also ran the dense
// arm; dense cells compare against themselves (delta 0 by definition).
// Sizes without a dense arm keep has_dense_delta == false (JSON null).
void fill_deltas(std::vector<OperatorCell>& cells) {
  for (OperatorCell& c : cells) {
    for (const OperatorCell& base : cells) {
      if (base.dim == c.dim && !base.implicit) {
        c.has_dense_delta = true;
        c.rmse_delta_vs_dense = std::fabs(c.rmse - base.rmse);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-apply microbenchmark.
// ---------------------------------------------------------------------------

struct Micro1dCell {
  std::size_t n = 0;
  bool forward = true;  // DCT-II; false: DCT-III
  double naive_ms = 0.0;
  double factor_ms = 0.0;
  double fast_ms = 0.0;
  double max_abs_err = 0.0;
};

struct MicroOpCell {
  std::size_t dim = 0;
  dsp::BasisKind basis = dsp::BasisKind::kDct2D;
  std::size_t m = 0;
  double apply_ms = 0.0;
  double adjoint_ms = 0.0;
  int reps = 0;
};

// Keeps the timed kernels observable so the optimiser cannot drop them.
volatile double g_sink = 0.0;

template <typename F>
double time_ms_per_call(int reps, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  double sum = 0.0;
  for (int r = 0; r < reps; ++r) sum += f();
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = g_sink + sum;
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         static_cast<double>(reps);
}

std::vector<Micro1dCell> run_micro_1d(const SweepConfig& cfg) {
  std::vector<Micro1dCell> cells;
  for (const std::size_t n : cfg.micro_dims) {
    Rng rng(0xd0c7 + n);
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform() - 0.5;

    const dsp::Dct1dPlan plan(n);
    dsp::DctWorkspace ws;
    const la::Matrix factor = dsp::dct_matrix(n);
    la::Vector out(n);

    // The naive cosine-sum recomputes cos() per element, so it gets fewer
    // repetitions than the table-driven kernels at the same length.
    const int reps_naive =
        static_cast<int>(std::max<std::size_t>(5, 20000 / n));
    const int reps_fast =
        static_cast<int>(std::max<std::size_t>(200, 200000 / n));

    for (const bool forward : {true, false}) {
      Micro1dCell c;
      c.n = n;
      c.forward = forward;
      c.naive_ms = time_ms_per_call(reps_naive, [&] {
        out = forward ? dsp::dct1d(x) : dsp::idct1d(x);
        return out[0];
      });
      c.factor_ms = time_ms_per_call(reps_fast, [&] {
        // DCT-II is factor · x; DCT-III (the inverse) is factorᵀ · x.
        out = forward ? la::matvec(factor, x) : la::matvec_t(factor, x);
        return out[0];
      });
      c.fast_ms = time_ms_per_call(reps_fast, [&] {
        if (forward)
          plan.forward(x.data(), out.data(), ws);
        else
          plan.inverse(x.data(), out.data(), ws);
        return out[0];
      });
      const la::Vector ref = forward ? dsp::dct1d(x) : dsp::idct1d(x);
      la::Vector fast(n);
      if (forward)
        plan.forward(x.data(), fast.data(), ws);
      else
        plan.inverse(x.data(), fast.data(), ws);
      for (std::size_t i = 0; i < n; ++i)
        c.max_abs_err = std::max(c.max_abs_err, std::fabs(fast[i] - ref[i]));
      cells.push_back(c);
    }
  }
  return cells;
}

std::vector<MicroOpCell> run_micro_operator(const SweepConfig& cfg) {
  std::vector<MicroOpCell> cells;
  for (const std::size_t dim : cfg.micro_dims) {
    Rng pattern_rng(0x0b5e + dim);
    const cs::SamplingPattern p =
        cs::random_pattern(dim, dim, cfg.fraction, pattern_rng);
    for (const dsp::BasisKind basis :
         {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
      const cs::SubsampledTransformOperator op(basis, p);
      Rng rng(0xa991 + dim);
      la::Vector x(op.cols());
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform() - 0.5;
      la::Vector y(op.rows());
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = rng.uniform() - 0.5;

      MicroOpCell c;
      c.dim = dim;
      c.basis = basis;
      c.m = p.m();
      c.reps = static_cast<int>(std::max<std::size_t>(10, 20000 / dim));
      // Warm the thread-local scratch so the first-apply allocation is not
      // billed to the steady-state per-apply figure.
      g_sink = g_sink + op.apply(x)[0] + op.apply_adjoint(y)[0];

      const auto s0 = op.apply_stats();
      for (int r = 0; r < c.reps; ++r) g_sink = g_sink + op.apply(x)[0];
      for (int r = 0; r < c.reps; ++r)
        g_sink = g_sink + op.apply_adjoint(y)[0];
      const auto s1 = op.apply_stats();
      c.apply_ms = (s1.apply_seconds - s0.apply_seconds) * 1e3 /
                   static_cast<double>(s1.applies - s0.applies);
      c.adjoint_ms = (s1.adjoint_seconds - s0.adjoint_seconds) * 1e3 /
                     static_cast<double>(s1.adjoints - s0.adjoints);
      cells.push_back(c);
    }
  }
  return cells;
}

struct IsaCell {
  std::size_t dim = 0;
  bool has_avx2 = false;  // false: only the baseline build ran
  double baseline_us = 0.0;
  double avx2_us = 0.0;
  double speedup = 0.0, speedup_q1 = 0.0, speedup_q3 = 0.0;
  int blocks = 0;
  int reps = 0;
};

// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The folded kernel's baseline and AVX2 builds, each running the 2-D
// DCT-II + DCT-III pair that dct2d_apply + idct2d_apply run on a dim×dim
// grid (row pass, then column pass, each direction), timed in interleaved
// blocks whose order alternates so drift in the host's speed hits both.
std::vector<IsaCell> run_micro_isa(const SweepConfig& cfg) {
  const bool has_avx2 = std::strcmp(dsp::kernel_isa(), "avx2") == 0;
  std::vector<IsaCell> cells;
  for (const std::size_t dim : cfg.isa_dims) {
    const dsp::Dct1dPlan plan(dim);
    const std::size_t n = dim * dim;
    Rng rng(0x15a0 + dim);
    std::vector<double> grid(n), a(n), b(n), fold(n), half(n);
    for (double& v : grid) v = rng.uniform() - 0.5;
    const auto pass = [&](dsp::FoldKernel kernel, const double* in,
                          double* out, bool rows, bool invert) {
      kernel(dsp::FoldJob{dsp::fold_tables(plan), in, out, fold.data(),
                          half.data(), dim, dim, rows, invert});
    };
    const auto pair = [&](dsp::FoldKernel kernel) {
      pass(kernel, grid.data(), a.data(), true, false);
      pass(kernel, a.data(), b.data(), false, false);
      pass(kernel, b.data(), a.data(), true, true);
      pass(kernel, a.data(), b.data(), false, true);
      return b[0];
    };

    IsaCell c;
    c.dim = dim;
    c.has_avx2 = has_avx2;
    c.blocks = cfg.isa_blocks;
    c.reps = static_cast<int>(std::max<std::size_t>(20, 400000 / n));
    const dsp::FoldKernel base = &dsp::fold_baseline::fold_kernel;
    const dsp::FoldKernel avx2 = &dsp::fold_avx2::fold_kernel;
    const auto time_us = [&](dsp::FoldKernel kernel) {
      return 1e3 * time_ms_per_call(c.reps, [&] { return pair(kernel); });
    };
    // Warm caches and scratch before the first timed block.
    g_sink = g_sink + pair(base);
    if (has_avx2) g_sink = g_sink + pair(avx2);
    std::vector<double> base_us, avx2_us, ratio;
    for (int blk = 0; blk < c.blocks; ++blk) {
      if (!has_avx2) {
        base_us.push_back(time_us(base));
        continue;
      }
      double t_base = 0.0, t_avx2 = 0.0;
      if (blk % 2 == 0) {
        t_base = time_us(base);
        t_avx2 = time_us(avx2);
      } else {
        t_avx2 = time_us(avx2);
        t_base = time_us(base);
      }
      base_us.push_back(t_base);
      avx2_us.push_back(t_avx2);
      ratio.push_back(t_base / t_avx2);
    }
    c.baseline_us = quantile(base_us, 0.5);
    if (has_avx2) {
      c.avx2_us = quantile(avx2_us, 0.5);
      c.speedup = quantile(ratio, 0.5);
      c.speedup_q1 = quantile(ratio, 0.25);
      c.speedup_q3 = quantile(ratio, 0.75);
    }
    cells.push_back(c);
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string to_json(const std::vector<OperatorCell>& cells,
                    const std::vector<Micro1dCell>& micro1d,
                    const std::vector<MicroOpCell>& microop,
                    const std::vector<IsaCell>& micro_isa) {
  std::string out = strformat("{\n\"kernel_isa\": \"%s\",\n\"decode\": [\n",
                              dsp::kernel_isa());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OperatorCell& c = cells[i];
    const std::string delta =
        c.has_dense_delta ? strformat("%.3e", c.rmse_delta_vs_dense)
                          : std::string("null");
    out += strformat(
        "  {\"rows\": %zu, \"cols\": %zu, \"mode\": \"%s\", \"m\": %zu, "
        "\"n\": %zu, \"fraction\": %.4f, \"build_seconds\": %.4f, "
        "\"decode_seconds\": %.4f, \"iterations\": %d, \"converged\": %s, "
        "\"rmse\": %.9f, \"residual_norm\": %.3e, \"operator_bytes\": %zu, "
        "\"mem_ratio_vs_dense\": %.1f, \"rmse_delta_vs_dense\": %s}%s\n",
        c.dim, c.dim, c.implicit ? "implicit" : "dense", c.m, c.n,
        static_cast<double>(c.m) / static_cast<double>(c.n), c.build_seconds,
        c.decode_seconds, c.iterations, c.converged ? "true" : "false",
        c.rmse, c.residual_norm, c.operator_bytes, c.mem_ratio_vs_dense,
        delta.c_str(), i + 1 < cells.size() ? "," : "");
  }
  out += "],\n\"per_apply_1d\": [\n";
  for (std::size_t i = 0; i < micro1d.size(); ++i) {
    const Micro1dCell& c = micro1d[i];
    out += strformat(
        "  {\"n\": %zu, \"kind\": \"%s\", \"naive_ms\": %.6f, "
        "\"factor_ms\": %.6f, \"fast_ms\": %.6f, "
        "\"speedup_vs_naive\": %.1f, \"speedup_vs_factor\": %.1f, "
        "\"max_abs_err\": %.3e}%s\n",
        c.n, c.forward ? "dct2" : "dct3", c.naive_ms, c.factor_ms, c.fast_ms,
        c.naive_ms / c.fast_ms, c.factor_ms / c.fast_ms, c.max_abs_err,
        i + 1 < micro1d.size() ? "," : "");
  }
  out += "],\n\"per_apply_operator\": [\n";
  for (std::size_t i = 0; i < microop.size(); ++i) {
    const MicroOpCell& c = microop[i];
    out += strformat(
        "  {\"dim\": %zu, \"basis\": \"%s\", \"m\": %zu, "
        "\"apply_ms\": %.4f, \"adjoint_ms\": %.4f, \"reps\": %d}%s\n",
        c.dim, c.basis == dsp::BasisKind::kDct2D ? "dct2d" : "haar2d", c.m,
        c.apply_ms, c.adjoint_ms, c.reps,
        i + 1 < microop.size() ? "," : "");
  }
  out += "],\n\"per_kernel_isa\": [\n";
  for (std::size_t i = 0; i < micro_isa.size(); ++i) {
    const IsaCell& c = micro_isa[i];
    const auto num = [&](double v) {
      return c.has_avx2 ? strformat("%.3f", v) : std::string("null");
    };
    out += strformat(
        "  {\"dim\": %zu, \"baseline_us\": %.3f, \"avx2_us\": %s, "
        "\"speedup\": %s, \"speedup_q1\": %s, \"speedup_q3\": %s, "
        "\"blocks\": %d, \"reps\": %d}%s\n",
        c.dim, c.baseline_us, num(c.avx2_us).c_str(), num(c.speedup).c_str(),
        num(c.speedup_q1).c_str(), num(c.speedup_q3).c_str(), c.blocks,
        c.reps,
        i + 1 < micro_isa.size() ? "," : "");
  }
  out += "]\n}\n";
  return out;
}

std::string human_bytes(std::size_t bytes) {
  if (bytes >= (std::size_t{1} << 30))
    return strformat("%.1f GB", static_cast<double>(bytes) / (1 << 30));
  if (bytes >= (std::size_t{1} << 20))
    return strformat("%.1f MB", static_cast<double>(bytes) / (1 << 20));
  return strformat("%.1f KB", static_cast<double>(bytes) / (1 << 10));
}

void print_decode_table(const std::vector<OperatorCell>& cells,
                        const SweepConfig& cfg) {
  std::printf(
      "Dense vs matrix-free measurement operator — cs::Decoder, FISTA "
      "tol %.0e, sampling fraction %.2f\n",
      cfg.fista_tol, cfg.fraction);
  Table t({"size", "mode", "m", "build s", "decode s", "iters", "rmse",
           "op mem", "mem ratio", "|Δrmse|"});
  for (const OperatorCell& c : cells) {
    t.add_row({strformat("%zu", c.dim), c.implicit ? "implicit" : "dense",
               strformat("%zu", c.m), strformat("%.2f", c.build_seconds),
               strformat("%.2f", c.decode_seconds),
               strformat("%d", c.iterations), strformat("%.6f", c.rmse),
               human_bytes(c.operator_bytes),
               strformat("%.0fx", c.mem_ratio_vs_dense),
               c.has_dense_delta ? strformat("%.1e", c.rmse_delta_vs_dense)
                                 : std::string("n/a")});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "shape: at 64x64 the implicit decode matches the dense rmse within "
      "1e-6 at >= 10x lower operator memory; 128x128 and 256x256 decode "
      "implicit-only (dense would need %s at 256x256)\n",
      human_bytes(dense_operator_bytes(256 * 256,
                                       static_cast<std::size_t>(
                                           cfg.fraction * 256 * 256)))
          .c_str());
}

void print_micro_tables(const std::vector<Micro1dCell>& micro1d,
                        const std::vector<MicroOpCell>& microop,
                        const std::vector<IsaCell>& micro_isa) {
  std::printf(
      "\nPer-apply 1-D DCT kernels — naive cosine sum vs cached dense "
      "factor vs FFT plan (per-call ms)\n");
  Table t1({"n", "kind", "naive ms", "factor ms", "fast ms", "vs naive",
            "vs factor", "max err"});
  for (const Micro1dCell& c : micro1d) {
    t1.add_row({strformat("%zu", c.n), c.forward ? "dct2" : "dct3",
                strformat("%.6f", c.naive_ms), strformat("%.6f", c.factor_ms),
                strformat("%.6f", c.fast_ms),
                strformat("%.1fx", c.naive_ms / c.fast_ms),
                strformat("%.1fx", c.factor_ms / c.fast_ms),
                strformat("%.1e", c.max_abs_err)});
  }
  std::printf("%s", t1.to_text().c_str());

  std::printf(
      "\nPer-apply measurement operator — SubsampledTransformOperator "
      "ApplyStats (per-call ms)\n");
  Table t2({"dim", "basis", "m", "apply ms", "adjoint ms", "reps"});
  for (const MicroOpCell& c : microop) {
    t2.add_row({strformat("%zu", c.dim),
                c.basis == dsp::BasisKind::kDct2D ? "dct2d" : "haar2d",
                strformat("%zu", c.m), strformat("%.4f", c.apply_ms),
                strformat("%.4f", c.adjoint_ms), strformat("%d", c.reps)});
  }
  std::printf("%s", t2.to_text().c_str());

  std::printf(
      "\nFolded kernel per ISA build — 2-D DCT-II + DCT-III pair, median "
      "over interleaved blocks (this host runs: %s)\n",
      dsp::kernel_isa());
  Table t3({"dim", "baseline us", "avx2 us", "speedup [q1, q3]", "blocks"});
  for (const IsaCell& c : micro_isa) {
    t3.add_row({strformat("%zu", c.dim), strformat("%.3f", c.baseline_us),
                c.has_avx2 ? strformat("%.3f", c.avx2_us) : "n/a",
                c.has_avx2 ? strformat("%.2fx [%.2f, %.2f]", c.speedup,
                                       c.speedup_q1, c.speedup_q3)
                           : "n/a",
                strformat("%d", c.blocks)});
  }
  std::printf("%s", t3.to_text().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // --micro is local to this bench: strip it before the shared parser (which
  // rejects unknown flags).
  bool micro_only = false;
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0)
      micro_only = true;
    else
      filtered.push_back(argv[i]);
  }
  const bench::BenchArgs args =
      bench::parse_bench_args(static_cast<int>(filtered.size()),
                              filtered.data());
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--json] [--out PATH] [--micro]\n",
                 argv[0]);
    return 2;
  }
  const SweepConfig cfg = args.smoke ? smoke_config() : SweepConfig{};

  std::vector<OperatorCell> cells;
  if (!micro_only) {
    for (const std::size_t dim : cfg.both_dims) {
      cells.push_back(run_cell(cfg, dim, /*implicit=*/false));
      cells.push_back(run_cell(cfg, dim, /*implicit=*/true));
    }
    for (const std::size_t dim : cfg.implicit_only_dims)
      cells.push_back(run_cell(cfg, dim, /*implicit=*/true));
    fill_deltas(cells);
  }
  const std::vector<Micro1dCell> micro1d = run_micro_1d(cfg);
  const std::vector<MicroOpCell> microop = run_micro_operator(cfg);
  const std::vector<IsaCell> micro_isa = run_micro_isa(cfg);

  if (args.json) {
    const std::string out = to_json(cells, micro1d, microop, micro_isa);
    std::fputs(out.c_str(), stdout);
    // A micro-only run carries an empty decode section; recording it to the
    // default path would clobber a recorded full sweep, so it only records
    // under an explicit --out.
    if (bench::should_record(args) && (!micro_only || !args.out.empty()))
      bench::record_json(out, bench::record_path(
          args, FLEXCS_SOURCE_DIR "/BENCH_operator.json"));
  } else {
    if (!micro_only) print_decode_table(cells, cfg);
    print_micro_tables(micro1d, microop, micro_isa);
  }
  return 0;
}
