#include "dsp/basis.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "dsp/dct.hpp"
#include "dsp/wavelet.hpp"

namespace flexcs::dsp {

std::string to_string(BasisKind kind) {
  switch (kind) {
    case BasisKind::kDct2D: return "dct2d";
    case BasisKind::kHaar2D: return "haar2d";
  }
  return "unknown";
}

BasisTransform::BasisTransform(BasisKind basis, std::size_t rows,
                               std::size_t cols)
    : basis_(basis), rows_(rows), cols_(cols) {
  FLEXCS_CHECK(rows_ > 0 && cols_ > 0, "BasisTransform: empty grid");
  switch (basis_) {
    case BasisKind::kDct2D:
      row_plan_.emplace(cols_);
      if (rows_ != cols_) col_plan_.emplace(rows_);
      return;
    case BasisKind::kHaar2D:
      haar_levels_ =
          std::min(max_haar_levels(rows_), max_haar_levels(cols_));
      FLEXCS_CHECK(haar_levels_ >= 1, "Haar basis requires even dimensions");
      return;
  }
  FLEXCS_CHECK(false, "unknown basis kind");
}

std::size_t BasisTransform::memory_bytes() const {
  std::size_t bytes = 0;
  if (row_plan_) bytes += row_plan_->memory_bytes();
  if (col_plan_) bytes += col_plan_->memory_bytes();
  return bytes;
}

void BasisTransform::analyze(const double* in, double* out,
                             BasisWorkspace& ws) const {
  switch (basis_) {
    case BasisKind::kDct2D:
      dct2d_apply(row_plan(), col_plan(), in, out, rows_, cols_, ws.dct);
      return;
    case BasisKind::kHaar2D:
      // The lifting runs in place, so it analyses a copy of `in`, or `in`
      // itself when the caller asked for an in-place transform.
      if (in != out) std::copy(in, in + rows_ * cols_, out);
      haar2d_inplace(out, rows_, cols_, haar_levels_, ws.haar);
      return;
  }
}

void BasisTransform::synthesize(const double* in, double* out,
                                BasisWorkspace& ws) const {
  switch (basis_) {
    case BasisKind::kDct2D:
      idct2d_apply(row_plan(), col_plan(), in, out, rows_, cols_, ws.dct);
      return;
    case BasisKind::kHaar2D:
      if (in != out) std::copy(in, in + rows_ * cols_, out);
      ihaar2d_inplace(out, rows_, cols_, haar_levels_, ws.haar);
      return;
  }
}

la::Matrix synthesis_matrix(BasisKind kind, std::size_t rows,
                            std::size_t cols) {
  FLEXCS_CHECK(rows > 0 && cols > 0, "synthesis_matrix of empty grid");
  const std::size_t n = rows * cols;

  if (kind == BasisKind::kDct2D) {
    // Ψ[(a·cols+b), (u·cols+v)] = Dr(u,a) · Dc(v,b): exactly Eq. 5 of the
    // paper in the square case, built from the separable 1-D DCT matrices.
    const la::Matrix dr = dct_matrix(rows);
    const la::Matrix dc = dct_matrix(cols);
    la::Matrix psi(n, n);
    for (std::size_t a = 0; a < rows; ++a) {
      for (std::size_t b = 0; b < cols; ++b) {
        const std::size_t pix = a * cols + b;
        for (std::size_t u = 0; u < rows; ++u) {
          const double dru = dr(u, a);
          for (std::size_t v = 0; v < cols; ++v) {
            psi(pix, u * cols + v) = dru * dc(v, b);
          }
        }
      }
    }
    return psi;
  }

  // Haar: apply the reference inverse transform to each unit coefficient
  // impulse, at the level count the grid's transform runs.
  const std::size_t levels = BasisTransform(kind, rows, cols).haar_levels();
  la::Matrix psi(n, n);
  la::Matrix impulse(rows, cols, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    impulse.fill(0.0);
    impulse(k / cols, k % cols) = 1.0;
    const la::Matrix atom = ihaar2d(impulse, levels);
    for (std::size_t p = 0; p < n; ++p)
      psi(p, k) = atom(p / cols, p % cols);
  }
  return psi;
}

la::Matrix analyze(BasisKind kind, const la::Matrix& frame) {
  const BasisTransform transform(kind, frame.rows(), frame.cols());
  la::Matrix out(frame.rows(), frame.cols());
  BasisWorkspace ws;
  transform.analyze(frame.data(), out.data(), ws);
  return out;
}

la::Matrix synthesize(BasisKind kind, const la::Matrix& coeffs) {
  const BasisTransform transform(kind, coeffs.rows(), coeffs.cols());
  la::Matrix out(coeffs.rows(), coeffs.cols());
  BasisWorkspace ws;
  transform.synthesize(coeffs.data(), out.data(), ws);
  return out;
}

}  // namespace flexcs::dsp
