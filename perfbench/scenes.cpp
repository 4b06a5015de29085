#include "scenes.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "cs/faults.hpp"
#include "data/thermal.hpp"

namespace perfbench {
namespace {

using flexcs::Rng;
using flexcs::la::Matrix;

constexpr std::size_t kTactileDim = 128;
constexpr std::size_t kDefectDim = 32;
constexpr double kPi = 3.14159265358979323846;
constexpr std::uint64_t kLapFrames = 40;
constexpr double kOrbitRadius = 8.0;
constexpr std::uint64_t kFramesPerPanel = 10;

// SplitMix64 finalizer over a combined pair: derives every seed in the scenes.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seed-stream tags, so the scene's random draws never share a stream.
enum Stream : std::uint64_t {
  kFrameStream = 1,
  kContactStream = 2,
  kStuckStream = 3,
  kFlickerStream = 4,
};

Matrix thermal_values(std::uint64_t seed, std::uint64_t index,
                      std::size_t dim) {
  flexcs::data::ThermalOptions opts;
  opts.rows = dim;
  opts.cols = dim;
  Rng rng(mix(mix(seed, kFrameStream), index));
  return flexcs::data::ThermalHandGenerator(opts).sample(rng).values;
}

// Adds amp * exp(-d^2 / 2 sigma^2) around (ci, cj), over a 4-sigma window.
void add_blob(Matrix& m, double ci, double cj, double sigma, double amp) {
  const double reach = 4.0 * sigma;
  const auto lo = [](double v) {
    return static_cast<std::size_t>(std::max(0.0, std::floor(v)));
  };
  const auto hi = [](double v, std::size_t n) {
    return static_cast<std::size_t>(
        std::clamp(std::ceil(v), 0.0, static_cast<double>(n)));
  };
  for (std::size_t i = lo(ci - reach); i < hi(ci + reach, m.rows()); ++i) {
    for (std::size_t j = lo(cj - reach); j < hi(cj + reach, m.cols()); ++j) {
      const double di = static_cast<double>(i) - ci;
      const double dj = static_cast<double>(j) - cj;
      m(i, j) += amp * std::exp(-(di * di + dj * dj) / (2.0 * sigma * sigma));
    }
  }
}

}  // namespace

SceneFrame thermal_frame(std::uint64_t seed, std::uint64_t index,
                         std::size_t dim) {
  SceneFrame f;
  f.clean = thermal_values(seed, index, dim);
  f.input = f.clean;
  return f;
}

SceneFrame tactile_frame(std::uint64_t seed, std::uint64_t index) {
  const double dim = static_cast<double>(kTactileDim);
  Matrix m(kTactileDim, kTactileDim, 0.05);

  // Static background: a shallow diagonal gradient and four broad pressure
  // bumps.
  for (std::size_t i = 0; i < kTactileDim; ++i)
    for (std::size_t j = 0; j < kTactileDim; ++j)
      m(i, j) += 0.04 * static_cast<double>(i + j) / (2.0 * dim);
  const double bumps[4][4] = {{24.0, 100.0, 14.0, 0.06},
                              {100.0, 24.0, 18.0, 0.05},
                              {64.0, 64.0, 22.0, 0.04},
                              {110.0, 110.0, 12.0, 0.07}};
  for (const auto& b : bumps) add_blob(m, b[0], b[1], b[2], b[3]);

  // Two contacts circling two tile corners in opposite directions, radius
  // 8 px, one lap per kLapFrames frames (~1.26 px per frame). Each contact
  // reaches into the four tiles round its corner and revisits each of them
  // well within the gate's refresh period; the other eight tiles hold only
  // the static background. The seed picks the frame of the lap the contacts
  // start at, so a run of whole laps presses exactly the same places on
  // every seed, in a rotated order.
  Rng start(mix(seed, kContactStream));
  const std::uint64_t step =
      (start.uniform_index(kLapFrames) + index) % kLapFrames;
  const double phase = 2.0 * kPi * static_cast<double>(step) /
                       static_cast<double>(kLapFrames);
  const double corners[2] = {32.0, 96.0};
  for (int k = 0; k < 2; ++k) {
    const double dir = k == 0 ? 1.0 : -1.0;
    add_blob(m, corners[k] + kOrbitRadius * std::sin(dir * phase),
             corners[k] + kOrbitRadius * std::cos(dir * phase), 4.0, 0.65);
  }

  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = std::clamp(m.data()[i], 0.0, 1.0);
  SceneFrame f;
  f.clean = m;
  f.input = std::move(m);
  return f;
}

SceneFrame defect_frame(std::uint64_t seed, std::uint64_t index) {
  // A run walks a line of panels, kFramesPerPanel frames each: every panel
  // has its own persistent stuck-pixel map, so one run averages the decode
  // over several defect layouts instead of hinging on a single one.
  const std::uint64_t panel = index / kFramesPerPanel;
  flexcs::cs::StuckPixelFault stuck;
  stuck.rate = 0.10;
  stuck.seed = mix(mix(seed, kStuckStream), panel);
  flexcs::cs::FlickerFault flicker;
  flicker.rate = 0.01;
  flicker.seed = mix(seed, kFlickerStream);
  const flexcs::cs::FaultScenario faults({stuck, flicker});

  SceneFrame f;
  f.clean = thermal_values(seed, index, kDefectDim);
  f.input = faults.corrupt_frame(f.clean, static_cast<std::size_t>(index))
                .values;
  return f;
}

}  // namespace perfbench
