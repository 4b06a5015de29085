// Sparse-error injection: the paper's model of device defects and transient
// errors (Sec. 4.2). Defective pixels read out "extreme results, either very
// high or almost zero currents", so a corrupted pixel is stuck at 0 or 1.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "la/matrix.hpp"

namespace flexcs::cs {

enum class DefectPolarity {
  kStuckLow,    // all defects read 0
  kStuckHigh,   // all defects read 1
  kRandom,      // each defect is 0 or 1 with probability 1/2 (paper default)
};

struct DefectOptions {
  double rate = 0.1;  // fraction of pixels affected (paper sweeps 0 - 0.20)
  DefectPolarity polarity = DefectPolarity::kRandom;
};

/// The value a defective pixel reads: 0 or 1 by `polarity`, drawing one
/// bernoulli(0.5) from `rng` for kRandom and nothing otherwise.
double stuck_value(DefectPolarity polarity, Rng& rng);

/// A corrupted frame plus the ground-truth defect locations.
struct CorruptedFrame {
  la::Matrix values;        // frame with defects applied
  std::vector<bool> mask;   // row-major; true = defective pixel
  std::size_t defect_count = 0;
};

/// Applies permanent defects to a frame.
CorruptedFrame inject_defects(const la::Matrix& frame,
                              const DefectOptions& opts, Rng& rng);

/// Applies the given defect mask (for persistent device defects that stay
/// fixed across frames): masked pixels are overwritten with their stuck
/// value (drawn per pixel from `polarity` using `rng`).
la::Matrix apply_defect_mask(const la::Matrix& frame,
                             const std::vector<bool>& mask,
                             DefectPolarity polarity, Rng& rng);

/// Draws a persistent defect mask over a rows x cols array.
std::vector<bool> random_defect_mask(std::size_t rows, std::size_t cols,
                                     double rate, Rng& rng);

}  // namespace flexcs::cs
