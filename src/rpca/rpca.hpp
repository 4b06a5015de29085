// Robust Principal Component Analysis via Principal Component Pursuit,
// solved with the inexact augmented Lagrange multiplier method
// (Lin, Chen & Ma 2010; the paper's reference [29] is the NIPS'09 RPCA work).
//
// Decomposes an observation matrix D into a low-rank part L and a sparse
// outlier part S: D = L + S. The paper's Sec. 4.3 uses this to *detect and
// exclude* defective pixels before random sampling.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "runtime/deadline.hpp"

namespace flexcs::rpca {

struct RpcaOptions {
  double lambda = 0.0;   // 0 => 1/sqrt(max(rows, cols)), the standard choice
  double tol = 1e-7;     // ||D - L - S||_F / ||D||_F stopping threshold
  int max_iterations = 200;
  // Cooperative control, polled once per ALM iteration: when either fires,
  // decompose() returns the current (L, S) split with deadline_expired set
  // (both start at zero, so an immediate expiry yields L = S = 0).
  runtime::Deadline deadline;
  runtime::CancelToken cancel;
};

struct RpcaResult {
  la::Matrix low_rank;   // L
  la::Matrix sparse;     // S
  int iterations = 0;
  bool converged = false;
  bool deadline_expired = false;  // stopped by deadline / cancellation
  std::size_t rank = 0;  // rank of L at the final iteration
};

/// Runs principal component pursuit on D.
RpcaResult decompose(const la::Matrix& d, const RpcaOptions& opts = {});

/// Flags entries whose sparse-component magnitude exceeds
/// rel_threshold * max|S| as outliers. Returns a row-major boolean mask.
std::vector<bool> outlier_mask(const la::Matrix& sparse,
                               double rel_threshold = 0.3);

/// Convenience for the paper's pipeline: given a batch of vectorised frames
/// (one frame per column of `d`), returns a per-entry outlier mask of the
/// same shape computed from the RPCA sparse component.
std::vector<bool> detect_outliers(const la::Matrix& d,
                                  const RpcaOptions& opts = {},
                                  double rel_threshold = 0.3);

}  // namespace flexcs::rpca
