// Reproduces Fig. 6a: temperature-imaging RMSE with and without compressed
// sensing, sweeping the sparse-error rate (0-20 %) and the sampling
// percentage (45-60 %). Defects are assumed identified by test and excluded
// from sampling (the paper's Sec. 4.2 setting).
//
// Paper shape: without CS the RMSE grows steeply with the error rate
// (~0.20 at 10 %); with CS it stays low (~0.05 at 10 %) and rises only
// slightly up to 20 %; more sampling helps with diminishing returns, with
// the floor set by the Eq. 2 measurement-error term.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/metrics.hpp"
#include "cs/pipeline.hpp"
#include "data/thermal.hpp"
#include "solvers/admm.hpp"

namespace {

using namespace flexcs;

constexpr int kFramesPerCell = 4;

// The paper-reproduction record decodes with ADMM-BPDN, the solver it was
// taken with; the library default is FISTA.
cs::Decoder admm_decoder() {
  return cs::Decoder(32, 32, cs::DecoderOptions{},
                     std::make_shared<solvers::AdmmLassoSolver>());
}

void print_tables() {
  data::ThermalHandGenerator generator;
  // Per-measurement read noise (the eps of Eq. 2): this is what bounds the
  // paper's Fig. 6a RMSE floor near 0.05 and what makes higher sampling
  // percentages pay off (the measurement term scales as sqrt(N/M) eps).
  cs::EncoderOptions eopts;
  eopts.measurement_noise = 0.03;
  const cs::Encoder encoder(eopts);
  const cs::Decoder decoder = admm_decoder();
  const double error_rates[] = {0.0, 0.05, 0.10, 0.15, 0.20};
  const double samplings[] = {0.45, 0.50, 0.55, 0.60};

  std::printf("Fig. 6a — temperature-imaging RMSE (mean over %d frames)\n",
              kFramesPerCell);
  Table t({"sparse errors", "no CS", "CS 45%", "CS 50%", "CS 55%",
           "CS 60%"});
  for (const double rate : error_rates) {
    double rmse_no_cs = 0.0;
    double rmse_cs[4] = {0.0, 0.0, 0.0, 0.0};
    for (int f = 0; f < kFramesPerCell; ++f) {
      Rng rng(1000 + f);  // same frames/defects across sampling columns
      const la::Matrix truth = generator.sample(rng).values;
      cs::DefectOptions dopts;
      dopts.rate = rate;
      const cs::CorruptedFrame corrupted =
          cs::inject_defects(truth, dopts, rng);
      rmse_no_cs += cs::rmse(corrupted.values, truth);
      for (int s = 0; s < 4; ++s) {
        const la::Matrix rec = cs::reconstruct_oracle(
            corrupted, samplings[s], encoder, decoder, rng);
        rmse_cs[s] += cs::rmse(rec, truth);
      }
    }
    t.add_row({strformat("%.0f%%", 100.0 * rate),
               strformat("%.3f", rmse_no_cs / kFramesPerCell),
               strformat("%.3f", rmse_cs[0] / kFramesPerCell),
               strformat("%.3f", rmse_cs[1] / kFramesPerCell),
               strformat("%.3f", rmse_cs[2] / kFramesPerCell),
               strformat("%.3f", rmse_cs[3] / kFramesPerCell)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("paper headline: 10%% errors -> RMSE 0.20 without CS, "
              "0.05 with CS\n\n");
}

void BM_Fig6aSingleDecode(benchmark::State& state) {
  Rng rng(1);
  data::ThermalHandGenerator generator;
  const la::Matrix truth = generator.sample(rng).values;
  const cs::Encoder encoder;
  const cs::Decoder decoder = admm_decoder();
  const cs::SamplingPattern pattern = cs::random_pattern(32, 32, 0.5, rng);
  const la::Vector y = encoder.encode(truth, pattern, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(pattern, y));
  }
}
BENCHMARK(BM_Fig6aSingleDecode)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
