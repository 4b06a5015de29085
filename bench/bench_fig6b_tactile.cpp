// Reproduces Fig. 6b: tactile-sensor object-recognition accuracy with and
// without compressed sensing, sweeping the sparse-error rate and the
// sampling percentage.
//
// Paper setup (Sec. 4.2): 26 objects, 32x32 tactile frames, ResNet with max
// pooling and dropout, Adam + categorical cross-entropy, lr reduced by 10x
// on plateau, best-validation weights kept. Paper headline: at ~10 % sparse
// errors, accuracy drops to 65 % without CS but reaches 84 % with CS.
//
// The classifier trains on the synthetic 26-class glove set at startup
// (several minutes on one core). Set FLEXCS_QUICK=1 to run a reduced
// 8-class version.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "cs/metrics.hpp"
#include "cs/pipeline.hpp"
#include "data/tactile.hpp"
#include "ml/trainer.hpp"
#include "solvers/solver.hpp"

namespace {

using namespace flexcs;

void print_tables() {
  const bool quick = std::getenv("FLEXCS_QUICK") != nullptr;
  const int num_classes = quick ? 8 : 26;
  const int train_per_class = quick ? 10 : 14;
  const int test_per_class = quick ? 4 : 5;
  const int epochs = quick ? 15 : 24;

  Rng rng(42);
  data::TactileGenerator generator;
  data::Dataset train, test;
  train.rows = test.rows = train.cols = test.cols = 32;
  train.num_classes = test.num_classes = num_classes;
  for (int c = 0; c < num_classes; ++c) {
    for (int i = 0; i < train_per_class; ++i)
      train.frames.push_back(generator.sample_class(c, rng));
    for (int i = 0; i < test_per_class; ++i)
      test.frames.push_back(generator.sample_class(c, rng));
  }

  std::printf("Fig. 6b — training the %d-class tactile classifier "
              "(%zu train / %zu test frames, %d epochs)...\n",
              num_classes, train.size(), test.size(), epochs);
  ml::Network net = ml::make_mini_resnet(32, num_classes, rng);
  ml::TrainOptions topts;
  topts.epochs = epochs;
  topts.adam.lr = 2e-3;
  topts.augment_defect_rate = 0.02;
  const ml::TrainResult tr = ml::train_classifier(net, train, test, topts, rng);
  std::printf("clean validation accuracy: %.3f\n\n", tr.best_val_accuracy);

  const cs::Encoder encoder;
  // Oracle-excluded measurements are clean, where the greedy OMP decoder
  // reaches the lowest frame RMSE of the library's solvers (E8). It reads
  // matrix entries, so each decode materialises the M x N operator; at
  // 32x32 that costs ~6x an ADMM decode (~0.3 s vs ~0.05 s, E8).
  const cs::Decoder decoder(32, 32, cs::DecoderOptions{},
                            solvers::make_solver("omp"));
  std::vector<int> labels;
  for (const auto& f : test.frames) labels.push_back(f.label);

  std::printf("Fig. 6b — classification accuracy vs sparse errors "
              "(CS at 50%% sampling)\n");
  Table t({"sparse errors", "no CS", "CS 50%"});
  const double samplings[] = {0.50};
  for (const double rate : {0.0, 0.05, 0.10, 0.20}) {
    Rng erng(777);
    std::vector<la::Matrix> corrupted;
    std::vector<cs::CorruptedFrame> cfs;
    for (const auto& f : test.frames) {
      cs::DefectOptions dopts;
      dopts.rate = rate;
      cfs.push_back(cs::inject_defects(f.values, dopts, erng));
      corrupted.push_back(cfs.back().values);
    }
    std::vector<std::string> row;
    row.push_back(strformat("%.0f%%", 100.0 * rate));
    row.push_back(strformat(
        "%.3f", ml::evaluate_frames(net, corrupted, labels).accuracy));
    for (const double sampling : samplings) {
      std::vector<la::Matrix> recon;
      for (const auto& cf : cfs)
        recon.push_back(
            cs::reconstruct_oracle(cf, sampling, encoder, decoder, erng));
      row.push_back(strformat(
          "%.3f", ml::evaluate_frames(net, recon, labels).accuracy));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("paper headline: 10%% errors -> 65%% without CS, 84%% with "
              "CS (~20%% boost)\n\n");
}

void BM_ClassifierInference(benchmark::State& state) {
  Rng rng(1);
  ml::Network net = ml::make_mini_resnet(32, 26, rng);
  data::TactileGenerator gen;
  std::vector<la::Matrix> frames{gen.sample(rng).values};
  std::vector<int> labels{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::evaluate_frames(net, frames, labels));
  }
}
BENCHMARK(BM_ClassifierInference)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
