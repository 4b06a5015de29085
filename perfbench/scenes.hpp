// Input frames of the three workloads. Every frame is a pure function of
// (seed, frame index), so a run can generate frame i just before it is
// decoded instead of holding the whole run in memory, and two runs with the
// same seed feed the program identical inputs.
#pragma once

#include <cstdint>

#include "la/matrix.hpp"

namespace perfbench {

/// One acquisition: the clean scene (the reference for RMSE) and the readout
/// the decoder receives (the clean scene with the panel's faults applied).
struct SceneFrame {
  flexcs::la::Matrix clean;
  flexcs::la::Matrix input;
};

/// Independent thermal-hand frames, dim x dim, no faults.
SceneFrame thermal_frame(std::uint64_t seed, std::uint64_t index,
                         std::size_t dim);

/// A 128x128 tactile skin: a static pressure background plus two contacts
/// sliding ~1.3 px per frame round two tile corners; the seed sets where on
/// their circles they start.
SceneFrame tactile_frame(std::uint64_t seed, std::uint64_t index);

/// 32x32 thermal frames on defective panels: each block of ten frames comes
/// from one panel with a persistent 10 % stuck-pixel map, plus 1 % per-frame
/// flicker.
SceneFrame defect_frame(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
