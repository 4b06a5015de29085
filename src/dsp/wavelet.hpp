// Orthonormal Haar wavelet transform (1-D and separable 2-D, multi-level).
//
// The paper notes that other sparsifying bases (Fourier, wavelets) work as
// well as the DCT; we provide Haar as the ablation basis.
#pragma once

#include "la/matrix.hpp"

namespace flexcs::dsp {

/// Maximum number of Haar levels for a length (how often it divides by 2).
std::size_t max_haar_levels(std::size_t n);

/// 1-D orthonormal Haar analysis. `levels` must be <= max_haar_levels(n);
/// n must be divisible by 2^levels.
la::Vector haar1d(const la::Vector& x, std::size_t levels);

/// Inverse of haar1d.
la::Vector ihaar1d(const la::Vector& coeffs, std::size_t levels);

/// Separable 2-D Haar: rows then columns at each level (square layout).
la::Matrix haar2d(const la::Matrix& img, std::size_t levels);

/// Inverse of haar2d.
la::Matrix ihaar2d(const la::Matrix& coeffs, std::size_t levels);

// Fast in-place 2-D Haar kernels (lifting-style butterflies on raw buffers),
// the kernels of dsp::BasisTransform's Haar basis.
//
// Bit-identical to haar2d/ihaar2d above — same butterfly, same visiting
// order — but without per-step temporary vectors or per-column strided
// walks: each row runs in place with one half-length scratch, and the column
// pass is restructured as row-pair sweeps so every inner loop is contiguous.
// haar2d/ihaar2d stay as the golden reference they are tested against.
// `scratch` is grown on demand and reusable across calls.

/// In-place separable 2-D analysis on a rows×cols row-major buffer.
void haar2d_inplace(double* a, std::size_t rows, std::size_t cols,
                    std::size_t levels, std::vector<double>& scratch);

/// Inverse of haar2d_inplace.
void ihaar2d_inplace(double* a, std::size_t rows, std::size_t cols,
                     std::size_t levels, std::vector<double>& scratch);

}  // namespace flexcs::dsp
