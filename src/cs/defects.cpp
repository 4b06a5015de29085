#include "cs/defects.hpp"

#include "common/check.hpp"

namespace flexcs::cs {

double stuck_value(DefectPolarity polarity, Rng& rng) {
  switch (polarity) {
    case DefectPolarity::kStuckLow: return 0.0;
    case DefectPolarity::kStuckHigh: return 1.0;
    case DefectPolarity::kRandom: return rng.bernoulli(0.5) ? 1.0 : 0.0;
  }
  return 0.0;
}

std::vector<bool> random_defect_mask(std::size_t rows, std::size_t cols,
                                     double rate, Rng& rng) {
  FLEXCS_CHECK(rate >= 0.0 && rate <= 1.0, "defect rate must be in [0,1]");
  const std::size_t n = rows * cols;
  std::vector<bool> mask(n, false);
  const std::size_t count =
      static_cast<std::size_t>(rate * static_cast<double>(n) + 0.5);
  for (std::size_t idx : rng.sample_without_replacement(n, count))
    mask[idx] = true;
  return mask;
}

la::Matrix apply_defect_mask(const la::Matrix& frame,
                             const std::vector<bool>& mask,
                             DefectPolarity polarity, Rng& rng) {
  FLEXCS_CHECK(mask.size() == frame.size(), "defect mask size mismatch");
  la::Matrix out = frame;
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) out.data()[i] = stuck_value(polarity, rng);
  return out;
}

CorruptedFrame inject_defects(const la::Matrix& frame,
                              const DefectOptions& opts, Rng& rng) {
  CorruptedFrame cf;
  cf.mask = random_defect_mask(frame.rows(), frame.cols(), opts.rate, rng);
  cf.values = apply_defect_mask(frame, cf.mask, opts.polarity, rng);
  for (bool b : cf.mask)
    if (b) ++cf.defect_count;
  return cf;
}

}  // namespace flexcs::cs
