#include "cs/faults.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/check.hpp"

namespace flexcs::cs {
namespace {

template <typename T>
struct IsMeasurementFault : std::false_type {};
template <>
struct IsMeasurementFault<AdcSaturationFault> : std::true_type {};
template <>
struct IsMeasurementFault<DroppedMeasurementFault> : std::true_type {};

// Derives a per-frame stream from a fault seed so transient kinds re-draw
// every frame while staying reproducible. SplitMix64-style mixing keeps
// nearby frame indices decorrelated.
Rng frame_rng(std::uint64_t seed, std::size_t frame_index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(frame_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

void check_frame_mask(const la::Matrix& frame, const std::vector<bool>& mask) {
  FLEXCS_CHECK(!frame.empty(), "fault applied to an empty frame");
  FLEXCS_CHECK(mask.size() == frame.size(), "fault mask size mismatch");
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckPixel: return "stuck-pixel";
    case FaultKind::kLine: return "line";
    case FaultKind::kFlicker: return "flicker";
    case FaultKind::kReadoutNoise: return "readout-noise";
    case FaultKind::kGainDrift: return "gain-drift";
    case FaultKind::kAdcSaturation: return "adc-saturation";
    case FaultKind::kDroppedMeasurements: return "dropped-measurements";
  }
  return "unknown";
}

void StuckPixelFault::apply(la::Matrix& frame, std::size_t /*frame_index*/,
                            std::vector<bool>& mask) const {
  check_frame_mask(frame, mask);
  FLEXCS_CHECK(rate >= 0.0 && rate <= 1.0, "stuck-pixel rate must be in [0,1]");
  // Persistent: same stream for every frame, so locations and stuck values
  // never move.
  Rng rng(seed);
  const std::vector<bool> defect =
      random_defect_mask(frame.rows(), frame.cols(), rate, rng);
  for (std::size_t i = 0; i < defect.size(); ++i) {
    if (!defect[i]) continue;
    frame.data()[i] = stuck_value(polarity, rng);
    mask[i] = true;
  }
}

void LineFault::apply(la::Matrix& frame, std::size_t frame_index,
                      std::vector<bool>& mask) const {
  check_frame_mask(frame, mask);
  const bool row = orientation == LineOrientation::kRow;
  FLEXCS_CHECK(line < (row ? frame.rows() : frame.cols()),
               "line fault index out of range");
  Rng rng = frame_rng(seed, mode == LineFailureMode::kOpen ? frame_index : 0);
  const std::size_t count = row ? frame.cols() : frame.rows();
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t r = row ? line : k;
    const std::size_t c = row ? k : line;
    switch (mode) {
      case LineFailureMode::kStuckLow: frame(r, c) = 0.0; break;
      case LineFailureMode::kStuckHigh: frame(r, c) = 1.0; break;
      case LineFailureMode::kOpen: frame(r, c) = rng.uniform(); break;
    }
    mask[r * frame.cols() + c] = true;
  }
}

void FlickerFault::apply(la::Matrix& frame, std::size_t frame_index,
                         std::vector<bool>& mask) const {
  check_frame_mask(frame, mask);
  FLEXCS_CHECK(rate >= 0.0 && rate <= 1.0, "flicker rate must be in [0,1]");
  Rng rng = frame_rng(seed, frame_index);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (!rng.bernoulli(rate)) continue;
    frame.data()[i] = stuck_value(polarity, rng);
    mask[i] = true;
  }
}

void ReadoutNoiseFault::apply(la::Matrix& frame, std::size_t frame_index,
                              std::vector<bool>& mask) const {
  check_frame_mask(frame, mask);
  FLEXCS_CHECK(sigma >= 0.0, "readout noise sigma must be non-negative");
  Rng rng = frame_rng(seed, frame_index);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame.data()[i] += rng.normal(0.0, sigma);
}

void GainDriftFault::apply(la::Matrix& frame, std::size_t frame_index,
                           std::vector<bool>& mask) const {
  check_frame_mask(frame, mask);
  FLEXCS_CHECK(mask_threshold >= 0.0, "gain-drift mask threshold < 0");
  // Per-pixel drift rates are fixed device properties: drawn from the seed
  // alone, then scaled by the frame index.
  Rng rng(seed);
  const double t = static_cast<double>(frame_index);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const double z = rng.normal();
    const double gain = 1.0 + drift_per_frame * t * (1.0 + pixel_spread * z);
    frame.data()[i] *= gain;
    if (std::abs(gain - 1.0) > mask_threshold) mask[i] = true;
  }
}

void AdcSaturationFault::apply(la::Vector& y, std::size_t /*frame_index*/,
                               std::vector<bool>& saturated) const {
  FLEXCS_CHECK(lo < hi, "ADC saturation range is empty");
  FLEXCS_CHECK(saturated.size() == y.size(), "saturation mask size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double clamped = std::clamp(y[i], lo, hi);
    if (clamped != y[i]) {  // flexcs-lint: allow(float-equality)
      y[i] = clamped;
      saturated[i] = true;
    }
  }
}

void DroppedMeasurementFault::apply(const la::Vector& y,
                                    std::size_t frame_index,
                                    std::vector<bool>& dropped) const {
  FLEXCS_CHECK(rate >= 0.0 && rate <= 1.0, "drop rate must be in [0,1]");
  FLEXCS_CHECK(dropped.size() == y.size(), "drop mask size mismatch");
  Rng rng = frame_rng(seed, frame_index);
  const std::size_t count = static_cast<std::size_t>(
      rate * static_cast<double>(y.size()) + 0.5);
  for (std::size_t idx : rng.sample_without_replacement(y.size(), count))
    dropped[idx] = true;
}

FaultKind fault_kind(const Fault& fault) {
  return std::visit([](const auto& f) { return f.kind; }, fault);
}

bool fault_is_persistent(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckPixel:
    case FaultKind::kLine:
    case FaultKind::kGainDrift:
      return true;
    default:
      return false;
  }
}

bool fault_is_measurement_level(FaultKind kind) {
  return kind == FaultKind::kAdcSaturation ||
         kind == FaultKind::kDroppedMeasurements;
}

FaultScenario::FaultScenario(std::vector<Fault> faults)
    : faults_(std::move(faults)) {}

void FaultScenario::add(Fault fault) { faults_.push_back(std::move(fault)); }

bool FaultScenario::has_frame_faults() const {
  for (const auto& f : faults_)
    if (!fault_is_measurement_level(fault_kind(f))) return true;
  return false;
}

bool FaultScenario::has_measurement_faults() const {
  for (const auto& f : faults_)
    if (fault_is_measurement_level(fault_kind(f))) return true;
  return false;
}

FaultedFrame FaultScenario::corrupt_frame(const la::Matrix& frame,
                                          std::size_t frame_index) const {
  FLEXCS_CHECK(!frame.empty(), "corrupt_frame on an empty frame");
  FLEXCS_CHECK(la::all_finite(frame), "corrupt_frame: non-finite input pixel");
  FaultedFrame out;
  out.values = frame;
  out.mask.assign(frame.size(), false);
  out.persistent.assign(frame.size(), false);

  std::vector<bool> scratch(frame.size(), false);
  for (const auto& fault : faults_) {
    const FaultKind kind = fault_kind(fault);
    if (fault_is_measurement_level(kind)) continue;
    std::fill(scratch.begin(), scratch.end(), false);
    std::visit(
        [&](const auto& f) {
          if constexpr (!IsMeasurementFault<std::decay_t<decltype(f)>>::value) {
            f.apply(out.values, frame_index, scratch);
          }
        },
        fault);
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      if (!scratch[i]) continue;
      out.mask[i] = true;
      if (fault_is_persistent(kind)) out.persistent[i] = true;
    }
  }
  for (std::size_t i = 0; i < out.mask.size(); ++i)
    if (out.mask[i]) ++out.corrupted_count;
  return out;
}

FaultedMeasurements FaultScenario::corrupt_measurements(
    const la::Vector& y, const SamplingPattern& pattern,
    std::size_t frame_index) const {
  FLEXCS_CHECK(y.size() == pattern.m(),
               "corrupt_measurements: y/pattern size mismatch");
  FLEXCS_CHECK(la::all_finite(y), "corrupt_measurements: non-finite entry");

  la::Vector values = y;
  std::vector<bool> saturated(y.size(), false);
  std::vector<bool> dropped(y.size(), false);
  for (const auto& fault : faults_) {
    if (const auto* sat = std::get_if<AdcSaturationFault>(&fault)) {
      sat->apply(values, frame_index, saturated);
    } else if (const auto* drop = std::get_if<DroppedMeasurementFault>(&fault)) {
      drop->apply(values, frame_index, dropped);
    }
  }

  FaultedMeasurements out;
  out.pattern.rows = pattern.rows;
  out.pattern.cols = pattern.cols;
  std::vector<double> kept;
  kept.reserve(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (saturated[i]) ++out.saturated_count;
    if (dropped[i]) {
      out.dropped.push_back(i);
      continue;
    }
    out.pattern.indices.push_back(pattern.indices[i]);
    kept.push_back(values[i]);
  }
  out.values = la::Vector(std::move(kept));
  return out;
}

}  // namespace flexcs::cs
