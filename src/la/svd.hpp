// Singular value decomposition via one-sided Jacobi rotations, plus the
// singular-value soft-thresholding operator used by RPCA.
#pragma once

#include <functional>

#include "la/matrix.hpp"

namespace flexcs::la {

/// Cooperative stop hook for bounded iterations (cf. CgOptions::should_stop):
/// polled once per Jacobi sweep; returning true exits early with the current
/// partially-converged factors. Deadline-aware callers (the RPCA ladder
/// rung) wire their Deadline/CancelToken in here so a long SVD cannot blow a
/// frame budget from inside one sweep loop.
using SvdStopHook = std::function<bool()>;

/// Thin SVD A = U diag(s) V^T with singular values in descending order.
/// For an m x n input, U is m x k, V is n x k with k = min(m, n).
struct SvdResult {
  Matrix u;
  Vector s;
  Matrix v;
};

/// One-sided Jacobi SVD. Accurate for the small/medium dense matrices used in
/// this library (sensor frames up to a few thousand entries per side).
SvdResult svd(const Matrix& a, double tol = 1e-12, int max_sweeps = 60,
              const SvdStopHook& should_stop = {});

/// Reconstructs U diag(s) V^T.
Matrix svd_reconstruct(const SvdResult& r);

/// Singular-value soft-thresholding: U shrink(s, tau) V^T, the proximal
/// operator of the nuclear norm used by RPCA's low-rank update.
/// Returns the shrunk matrix and reports the resulting rank.
Matrix sv_shrink(const Matrix& a, double tau, std::size_t* rank_out = nullptr,
                 const SvdStopHook& should_stop = {});

/// Effective rank: number of singular values > tol * s_max.
std::size_t effective_rank(const Matrix& a, double tol = 1e-10);

}  // namespace flexcs::la
