// The paper's sparsifying basis Ψ (Eqs. 4–7), generalised to rectangular
// arrays, for both DCT and Haar bases: the fast 2-D transform every decode
// runs (BasisTransform) and the dense matrix the tests check it against.
//
// Convention: a frame is a rows x cols matrix vectorised row-major into
// y (N = rows*cols). Coefficients x live on the same grid vectorised
// row-major. Ψ is the *synthesis* operator, y = Ψ · x (Eq. 3); since both
// bases are orthonormal, the analysis operator is Ψ^T.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dsp/fft.hpp"
#include "la/matrix.hpp"

namespace flexcs::dsp {

enum class BasisKind {
  kDct2D,   // the paper's default (Eq. 4-7)
  kHaar2D,  // ablation basis (requires even dimensions)
};

std::string to_string(BasisKind kind);

/// Reusable scratch for BasisTransform: the DCT plans' workspace and the
/// in-place Haar half-plane. Buffers grow on demand and are never shrunk;
/// keep one per thread so hot loops do not reallocate.
struct BasisWorkspace {
  DctWorkspace dct;
  std::vector<double> haar;
};

/// The 2-D transform Ψ of one (basis, rows, cols) grid. The DCT basis holds
/// the 1-D plans of its two axes (dsp::Dct1dPlan; a square grid builds one
/// plan and runs it on both), the Haar basis its level count, the most
/// levels both dimensions divide into (in-place lifting, dsp::haar2d_inplace;
/// bit-equal to haar2d/ihaar2d). The geometry is checked once, here: Haar
/// needs even dimensions. Immutable once built, so every operator over the
/// grid and every thread can share one instance.
class BasisTransform {
 public:
  BasisTransform(BasisKind basis, std::size_t rows, std::size_t cols);

  BasisKind basis() const { return basis_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Haar levels (0 for the DCT basis).
  std::size_t haar_levels() const { return haar_levels_; }
  /// Bytes of DCT plan tables (Haar needs none).
  std::size_t memory_bytes() const;

  /// Coefficients x = Ψᵀ·frame of a rows×cols row-major buffer. `in` and
  /// `out` are rows*cols doubles; `in == out` transforms in place, to the
  /// same bits (the DCT's row pass reads all of `in` into the workspace
  /// before its column pass writes `out`, and the Haar lifting runs in place
  /// anyway). Partial overlap is not allowed.
  void analyze(const double* in, double* out, BasisWorkspace& ws) const;
  /// Frame = Ψ·x, the inverse of analyze. `in == out` is allowed, as there.
  void synthesize(const double* in, double* out, BasisWorkspace& ws) const;

 private:
  const Dct1dPlan& row_plan() const { return *row_plan_; }
  const Dct1dPlan& col_plan() const {
    return col_plan_ ? *col_plan_ : *row_plan_;
  }

  BasisKind basis_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t haar_levels_ = 0;
  std::optional<Dct1dPlan> row_plan_;  // spans cols; DCT basis only
  std::optional<Dct1dPlan> col_plan_;  // spans rows; non-square grids only
};

/// Dense N x N synthesis matrix Ψ with y = Ψ x, built independently of
/// BasisTransform (Eq. 5 products of dct_matrix factors; ihaar2d atoms), so
/// tests can use it as the reference. Orthonormal.
la::Matrix synthesis_matrix(BasisKind kind, std::size_t rows, std::size_t cols);

/// One-shot analysis of a frame: builds the grid's BasisTransform and runs it.
la::Matrix analyze(BasisKind kind, const la::Matrix& frame);

/// One-shot synthesis of a coefficient grid.
la::Matrix synthesize(BasisKind kind, const la::Matrix& coeffs);

}  // namespace flexcs::dsp
