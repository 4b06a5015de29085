// Internal to flexcs_dsp: the even/odd-folded DCT kernel behind
// Dct1dPlan::fold_pass, compiled from fold_kernel.cpp once at the baseline
// ISA (fold_baseline) and once with -mavx2 (fold_avx2). Each copy's vector
// width follows its ISA: 2 doubles (SSE2) in fold_baseline, 4 in fold_avx2.
// fold_pass picks one per process; fft.hpp says why both give the same
// bits. Tests and the operator bench include this header to run both entry
// points side by side; nothing else should.
#pragma once

#include <cstddef>

namespace flexcs::dsp {

/// One fold_pass call, its workspace already sized (fft.cpp has the
/// layouts): `tables` is a plan's [E | Eᵀ | O | Oᵀ], `fold` holds n·lanes
/// doubles, and `half` n·lanes more when the pass is a row pass (either
/// direction: the rows' transposed panels go through it). Every output is
/// a sum from +0.0 with its terms added in ascending order (fft.hpp), in
/// both entry points alike.
struct FoldJob {
  const double* tables;
  const double* in;
  double* out;
  double* fold;
  double* half;
  std::size_t n;
  std::size_t lanes;
  bool rows;
  bool invert;
};

using FoldKernel = void (*)(const FoldJob&);

class Dct1dPlan;
/// A non-pow2 plan's [E | Eᵀ | O | Oᵀ] tables, for running the entry points
/// below directly. Defined in fft.cpp.
const double* fold_tables(const Dct1dPlan& plan);

namespace fold_baseline {
void fold_kernel(const FoldJob& job);
}
namespace fold_avx2 {
void fold_kernel(const FoldJob& job);
}

}  // namespace flexcs::dsp
