// Ablation: the decoder's sparse-recovery solver (DESIGN.md E8).
//
// The paper notes the L1 decode "can be re-formulated as a linear
// programming problem" (our bp-lp solver) but any sparse solver works.
// This bench compares the library's solvers on (a) exact recovery of
// synthetic sparse signals and (b) end-to-end frame reconstruction, plus a
// DCT-vs-Haar basis ablation.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/decoder.hpp"
#include "cs/encoder.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "la/operator.hpp"
#include "solvers/solver.hpp"

namespace {

using namespace flexcs;

la::Matrix gaussian_sensing(std::size_t m, std::size_t n, Rng& rng) {
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t c = 0; c < n; ++c) {
    double nn = 0.0;
    for (std::size_t r = 0; r < m; ++r) nn += a(r, c) * a(r, c);
    nn = std::sqrt(nn);
    for (std::size_t r = 0; r < m; ++r) a(r, c) /= nn;
  }
  return a;
}

void print_tables() {
  // --- (a) Exact recovery on synthetic sparse problems.
  {
    std::printf("Solver ablation — sparse recovery, M=64 N=128 K=8 "
                "(mean over 5 trials)\n");
    Table t({"solver", "rel. error", "rel. error (debiased)", "time (ms)"});
    for (const auto& name : solvers::solver_names()) {
      double err = 0.0, err_db = 0.0, ms = 0.0;
      const int trials = 5;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(37 + trial);
        const la::Matrix a = gaussian_sensing(64, 128, rng);
        la::Vector x0(128, 0.0);
        for (std::size_t idx : rng.sample_without_replacement(128, 8))
          x0[idx] = rng.normal() + (rng.bernoulli(0.5) ? 1.0 : -1.0);
        const la::Vector b = matvec(a, x0);
        const auto solver = solvers::make_solver(name);
        const auto t0 = std::chrono::steady_clock::now();
        solvers::SolveResult r = solver->solve(a, b);
        const auto t1 = std::chrono::steady_clock::now();
        ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
        err += (r.x - x0).norm2() / x0.norm2();
        const la::Vector db = solvers::debias_on_support(
            la::DenseOperator::borrowed(a), b, r.x, 1e-3);
        err_db += (db - x0).norm2() / x0.norm2();
      }
      t.add_row({name, strformat("%.2e", err / trials),
                 strformat("%.2e", err_db / trials),
                 strformat("%.2f", ms / trials)});
    }
    std::printf("%s\n", t.to_text().c_str());
  }

  // --- (b) End-to-end frame decode (32x32 thermal frame, 50 % sampling).
  {
    std::printf("Decoder ablation — thermal frame, 50%% sampling "
                "(bp-lp omitted: LP tableau too large at N=1024)\n");
    Table t({"solver", "frame RMSE", "time (ms)"});
    Rng rng(11);
    data::ThermalHandGenerator gen;
    const la::Matrix truth = gen.sample(rng).values;
    const cs::SamplingPattern p = cs::random_pattern(32, 32, 0.5, rng);
    const la::Vector y = cs::Encoder().encode(truth, p, rng);
    for (const auto& name : solvers::solver_names()) {
      if (name == "bp-lp" || name == "ista") continue;  // too slow at N=1024
      std::shared_ptr<const solvers::SparseSolver> solver =
          solvers::make_solver(name);
      const cs::Decoder decoder(32, 32, cs::DecoderOptions{}, solver);
      const auto t0 = std::chrono::steady_clock::now();
      const cs::DecodeResult r = decoder.decode(p, y);
      const auto t1 = std::chrono::steady_clock::now();
      t.add_row({name, strformat("%.4f", cs::rmse(r.frame, truth)),
                 strformat("%.0f",
                           std::chrono::duration<double, std::milli>(t1 - t0)
                               .count())});
    }
    std::printf("%s\n", t.to_text().c_str());
  }

  // --- (c) Basis ablation: DCT (paper default) vs Haar wavelet.
  {
    std::printf("Basis ablation — frame RMSE at several sampling rates\n");
    Table t({"sampling", "DCT basis", "Haar basis"});
    data::ThermalHandGenerator gen;
    for (double frac : {0.4, 0.5, 0.6}) {
      double e_dct = 0.0, e_haar = 0.0;
      for (int trial = 0; trial < 3; ++trial) {
        Rng rng(70 + trial);
        const la::Matrix truth = gen.sample(rng).values;
        const cs::SamplingPattern p = cs::random_pattern(32, 32, frac, rng);
        const la::Vector y = cs::Encoder().encode(truth, p, rng);
        const cs::Decoder dct_dec(32, 32);
        cs::DecoderOptions hopts;
        hopts.basis = dsp::BasisKind::kHaar2D;
        const cs::Decoder haar_dec(32, 32, hopts);
        e_dct += cs::rmse(dct_dec.decode(p, y).frame, truth);
        e_haar += cs::rmse(haar_dec.decode(p, y).frame, truth);
      }
      t.add_row({strformat("%.0f%%", 100.0 * frac),
                 strformat("%.4f", e_dct / 3.0),
                 strformat("%.4f", e_haar / 3.0)});
    }
    std::printf("%s\n", t.to_text().c_str());
  }
}

void BM_Solve_Omp_64x128(benchmark::State& state) {
  Rng rng(1);
  const la::Matrix a = gaussian_sensing(64, 128, rng);
  la::Vector x0(128, 0.0);
  for (std::size_t idx : rng.sample_without_replacement(128, 8))
    x0[idx] = rng.normal() + 1.0;
  const la::Vector b = matvec(a, x0);
  const auto solver = solvers::make_solver("omp");
  for (auto _ : state) benchmark::DoNotOptimize(solver->solve(a, b));
}
BENCHMARK(BM_Solve_Omp_64x128);

void BM_Solve_Fista_64x128(benchmark::State& state) {
  Rng rng(2);
  const la::Matrix a = gaussian_sensing(64, 128, rng);
  la::Vector x0(128, 0.0);
  for (std::size_t idx : rng.sample_without_replacement(128, 8))
    x0[idx] = rng.normal() + 1.0;
  const la::Vector b = matvec(a, x0);
  const auto solver = solvers::make_solver("fista");
  for (auto _ : state) benchmark::DoNotOptimize(solver->solve(a, b));
}
BENCHMARK(BM_Solve_Fista_64x128)->Unit(benchmark::kMillisecond);

void BM_Solve_Admm_64x128(benchmark::State& state) {
  Rng rng(3);
  const la::Matrix a = gaussian_sensing(64, 128, rng);
  la::Vector x0(128, 0.0);
  for (std::size_t idx : rng.sample_without_replacement(128, 8))
    x0[idx] = rng.normal() + 1.0;
  const la::Vector b = matvec(a, x0);
  const auto solver = solvers::make_solver("admm");
  for (auto _ : state) benchmark::DoNotOptimize(solver->solve(a, b));
}
BENCHMARK(BM_Solve_Admm_64x128)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
