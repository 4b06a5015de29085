// The naive orthonormal 1-D DCT-II / DCT-III and the dense DCT matrix.
//
// The DCT is the sparsifying transform of Sec. 2 / Sec. 3.1 of the paper:
// body-sensing frames are ~50 % sparse after a 2-D DCT. The fast 2-D
// transform is dsp::BasisTransform (basis.hpp) over the folded plans of
// fft.hpp; these direct sums and products are the golden references the
// plans and Ψ are tested against.
#pragma once

#include "la/matrix.hpp"

namespace flexcs::dsp {

/// 1-D orthonormal DCT-II. X[u] = a_u * sum_n x[n] cos(pi (2n+1) u / 2N),
/// a_0 = sqrt(1/N), a_u = sqrt(2/N) otherwise.
la::Vector dct1d(const la::Vector& x);

/// 1-D orthonormal inverse DCT (DCT-III). Exact inverse of dct1d.
la::Vector idct1d(const la::Vector& X);

/// The N x N orthonormal 1-D DCT-II analysis matrix D with X = D x.
la::Matrix dct_matrix(std::size_t n);

}  // namespace flexcs::dsp
