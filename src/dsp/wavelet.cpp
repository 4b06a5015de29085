#include "dsp/wavelet.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace flexcs::dsp {
namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

// Single analysis level on the first `len` entries: averages to the front
// half, details to the back half.
void haar_step(la::Vector& v, std::size_t len) {
  la::Vector tmp(len);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    tmp[i] = (v[2 * i] + v[2 * i + 1]) * kInvSqrt2;
    tmp[half + i] = (v[2 * i] - v[2 * i + 1]) * kInvSqrt2;
  }
  for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
}

void ihaar_step(la::Vector& v, std::size_t len) {
  la::Vector tmp(len);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    tmp[2 * i] = (v[i] + v[half + i]) * kInvSqrt2;
    tmp[2 * i + 1] = (v[i] - v[half + i]) * kInvSqrt2;
  }
  for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
}

void check_levels(std::size_t n, std::size_t levels) {
  FLEXCS_CHECK(levels <= max_haar_levels(n),
               "too many Haar levels for this length");
}

// In-place butterfly on v[0..len): averages land in the front half in place
// (destination index i never passes its source pair 2i, 2i+1), details go
// through scratch and are copied into the back half afterwards.
void haar_step_inplace(double* v, std::size_t len, double* scratch) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const double a = v[2 * i], b = v[2 * i + 1];
    scratch[i] = (a - b) * kInvSqrt2;
    v[i] = (a + b) * kInvSqrt2;
  }
  for (std::size_t i = 0; i < half; ++i) v[half + i] = scratch[i];
}

void ihaar_step_inplace(double* v, std::size_t len, double* scratch) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) scratch[i] = v[half + i];
  // Descending: the interleaved writes at 2i, 2i+1 stay ahead of the
  // not-yet-read approximations below index i.
  for (std::size_t i = half; i-- > 0;) {
    const double a = v[i], d = scratch[i];
    v[2 * i] = (a + d) * kInvSqrt2;
    v[2 * i + 1] = (a - d) * kInvSqrt2;
  }
}

// Column analysis step on the rlen×clen active region of a row-major buffer
// with row stride `stride`, restructured as row-pair sweeps so the inner
// loops are contiguous (SIMD-friendly) instead of stride-`stride` walks.
void haar_col_step(double* a, std::size_t rlen, std::size_t clen,
                   std::size_t stride, double* scratch) {
  const std::size_t half = rlen / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const double* p0 = a + (2 * i) * stride;
    const double* p1 = a + (2 * i + 1) * stride;
    double* avg = a + i * stride;
    double* det = scratch + i * clen;
    for (std::size_t c = 0; c < clen; ++c) {
      const double x = p0[c], y = p1[c];
      det[c] = (x - y) * kInvSqrt2;
      avg[c] = (x + y) * kInvSqrt2;
    }
  }
  for (std::size_t i = 0; i < half; ++i) {
    double* dst = a + (half + i) * stride;
    const double* src = scratch + i * clen;
    for (std::size_t c = 0; c < clen; ++c) dst[c] = src[c];
  }
}

void ihaar_col_step(double* a, std::size_t rlen, std::size_t clen,
                    std::size_t stride, double* scratch) {
  const std::size_t half = rlen / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const double* src = a + (half + i) * stride;
    double* dst = scratch + i * clen;
    for (std::size_t c = 0; c < clen; ++c) dst[c] = src[c];
  }
  for (std::size_t i = half; i-- > 0;) {
    const double* app = a + i * stride;
    const double* det = scratch + i * clen;
    double* r0 = a + (2 * i) * stride;
    double* r1 = a + (2 * i + 1) * stride;
    for (std::size_t c = 0; c < clen; ++c) {
      const double s = app[c], d = det[c];
      const double lo = (s + d) * kInvSqrt2;
      const double hi = (s - d) * kInvSqrt2;
      r0[c] = lo;
      r1[c] = hi;
    }
  }
}

}  // namespace

std::size_t max_haar_levels(std::size_t n) {
  std::size_t levels = 0;
  while (n > 1 && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

la::Vector haar1d(const la::Vector& x, std::size_t levels) {
  check_levels(x.size(), levels);
  la::Vector v = x;
  std::size_t len = x.size();
  for (std::size_t l = 0; l < levels; ++l) {
    haar_step(v, len);
    len /= 2;
  }
  return v;
}

la::Vector ihaar1d(const la::Vector& coeffs, std::size_t levels) {
  check_levels(coeffs.size(), levels);
  la::Vector v = coeffs;
  std::size_t len = coeffs.size() >> levels;
  for (std::size_t l = 0; l < levels; ++l) {
    len *= 2;
    ihaar_step(v, len);
  }
  return v;
}

la::Matrix haar2d(const la::Matrix& img, std::size_t levels) {
  check_levels(img.rows(), levels);
  check_levels(img.cols(), levels);
  la::Matrix m = img;
  std::size_t rlen = img.rows(), clen = img.cols();
  for (std::size_t l = 0; l < levels; ++l) {
    // Rows.
    for (std::size_t r = 0; r < rlen; ++r) {
      la::Vector row(clen);
      for (std::size_t c = 0; c < clen; ++c) row[c] = m(r, c);
      haar_step(row, clen);
      for (std::size_t c = 0; c < clen; ++c) m(r, c) = row[c];
    }
    // Columns.
    for (std::size_t c = 0; c < clen; ++c) {
      la::Vector col(rlen);
      for (std::size_t r = 0; r < rlen; ++r) col[r] = m(r, c);
      haar_step(col, rlen);
      for (std::size_t r = 0; r < rlen; ++r) m(r, c) = col[r];
    }
    rlen /= 2;
    clen /= 2;
  }
  return m;
}

la::Matrix ihaar2d(const la::Matrix& coeffs, std::size_t levels) {
  check_levels(coeffs.rows(), levels);
  check_levels(coeffs.cols(), levels);
  la::Matrix m = coeffs;
  std::size_t rlen = coeffs.rows() >> levels;
  std::size_t clen = coeffs.cols() >> levels;
  for (std::size_t l = 0; l < levels; ++l) {
    rlen *= 2;
    clen *= 2;
    // Undo columns first (inverse order of analysis).
    for (std::size_t c = 0; c < clen; ++c) {
      la::Vector col(rlen);
      for (std::size_t r = 0; r < rlen; ++r) col[r] = m(r, c);
      ihaar_step(col, rlen);
      for (std::size_t r = 0; r < rlen; ++r) m(r, c) = col[r];
    }
    for (std::size_t r = 0; r < rlen; ++r) {
      la::Vector row(clen);
      for (std::size_t c = 0; c < clen; ++c) row[c] = m(r, c);
      ihaar_step(row, clen);
      for (std::size_t c = 0; c < clen; ++c) m(r, c) = row[c];
    }
  }
  return m;
}

void haar2d_inplace(double* a, std::size_t rows, std::size_t cols,
                    std::size_t levels, std::vector<double>& scratch) {
  check_levels(rows, levels);
  check_levels(cols, levels);
  const std::size_t need = std::max(cols / 2, (rows / 2) * cols);
  if (scratch.size() < need) scratch.resize(need);
  std::size_t rlen = rows, clen = cols;
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t r = 0; r < rlen; ++r)
      haar_step_inplace(a + r * cols, clen, scratch.data());
    haar_col_step(a, rlen, clen, cols, scratch.data());
    rlen /= 2;
    clen /= 2;
  }
}

void ihaar2d_inplace(double* a, std::size_t rows, std::size_t cols,
                     std::size_t levels, std::vector<double>& scratch) {
  check_levels(rows, levels);
  check_levels(cols, levels);
  const std::size_t need = std::max(cols / 2, (rows / 2) * cols);
  if (scratch.size() < need) scratch.resize(need);
  std::size_t rlen = rows >> levels;
  std::size_t clen = cols >> levels;
  for (std::size_t l = 0; l < levels; ++l) {
    rlen *= 2;
    clen *= 2;
    // Undo columns first (inverse order of analysis), then rows.
    ihaar_col_step(a, rlen, clen, cols, scratch.data());
    for (std::size_t r = 0; r < rlen; ++r)
      ihaar_step_inplace(a + r * cols, clen, scratch.data());
  }
}

}  // namespace flexcs::dsp
