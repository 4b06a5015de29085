#include "solvers/cosamp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace flexcs::solvers {
namespace {

// Indices of the k largest-magnitude entries of v.
std::vector<std::size_t> top_k(const la::Vector& v, std::size_t k) {
  std::vector<std::size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  k = std::min(k, v.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&v](std::size_t a, std::size_t b) {
                      return std::fabs(v[a]) > std::fabs(v[b]);
                    });
  idx.resize(k);
  return idx;
}

// Least squares over the columns in `support`; returns coefficients aligned
// with `support`. Solves the ridge-stabilised normal equations by conjugate
// gradient, embedding the support coefficients into a full-length vector for
// each normal apply, so no operator is read entry by entry.
la::Vector lstsq_on_support(const la::LinearOperator& a, const la::Vector& b,
                            const std::vector<std::size_t>& support) {
  // Every normal apply reuses `full` (zero off the support) and `normal`.
  la::Vector full(a.cols(), 0.0);
  la::Vector normal(a.cols());
  const double bound = a.norm_upper_bound();
  const double ridge = 1e-10 * std::max(1.0, bound * bound);
  const auto apply_normal = [&](const la::Vector& c, la::Vector& out) {
    for (std::size_t j = 0; j < support.size(); ++j) full[support[j]] = c[j];
    a.apply_normal(full, normal);
    for (std::size_t j = 0; j < c.size(); ++j)
      out[j] = normal[support[j]] + ridge * c[j];
  };
  const la::Vector atb = a.apply_adjoint(b);
  la::Vector rhs(support.size());
  for (std::size_t j = 0; j < support.size(); ++j) rhs[j] = atb[support[j]];
  la::CgOptions cg;
  cg.tol = 1e-12;
  cg.max_iterations =
      static_cast<int>(std::max<std::size_t>(200, support.size()));
  return la::cg_solve(apply_normal, rhs, cg).x;
}

}  // namespace

SolveResult CosampSolver::solve_impl(const la::LinearOperator& a,
                                     const la::Vector& b,
                                     const SolveOptions& ctrl) const {
  validate_solve_inputs(a, b, "CoSaMP");
  const std::size_t m = a.rows(), n = a.cols();
  // Target sparsity K: one support entry per kMeasurementsPerAtom reads.
  constexpr std::size_t kMeasurementsPerAtom = 4;
  const std::size_t k = m / kMeasurementsPerAtom;

  SolveResult result;
  result.x = la::Vector(n, 0.0);
  const double bnorm = b.norm2();
  if (bnorm == 0.0 || k == 0) {
    result.converged = true;
    return result;
  }
  if (ctrl.should_stop()) {
    result.deadline_expired = true;
    result.residual_norm = bnorm;
    return result;
  }

  la::Vector x(n, 0.0);
  la::Vector residual = b;
  double prev_res = bnorm;

  for (int it = 0; it < opts_.max_iterations; ++it) {
    if (ctrl.should_stop()) {
      result.deadline_expired = true;
      break;
    }
    // Identify: union of current support with the 2K strongest proxies.
    const la::Vector proxy = a.apply_adjoint(residual);
    std::vector<std::size_t> candidates = top_k(proxy, 2 * k);
    for (std::size_t j = 0; j < n; ++j)
      if (x[j] != 0.0) candidates.push_back(j);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (candidates.size() > m) {
      // Keep the candidate set solvable in least squares.
      la::Vector mags(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i)
        mags[i] = std::fabs(proxy[candidates[i]]) +
                  std::fabs(x[candidates[i]]);
      const auto keep = top_k(mags, m);
      std::vector<std::size_t> trimmed;
      trimmed.reserve(m);
      for (std::size_t i : keep) trimmed.push_back(candidates[i]);
      std::sort(trimmed.begin(), trimmed.end());
      candidates = std::move(trimmed);
    }

    // Estimate on the merged support, then prune to the K largest.
    const la::Vector coef = lstsq_on_support(a, b, candidates);
    la::Vector dense(n, 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      dense[candidates[i]] = coef[i];
    const auto kept = top_k(dense, k);
    x.fill(0.0);
    for (std::size_t j : kept) x[j] = dense[j];

    // Update residual.
    residual = b - a.apply(x);
    const double res = residual.norm2();
    result.iterations = it + 1;
    if (res / bnorm < opts_.residual_tol) {
      result.converged = true;
      break;
    }
    if (res > prev_res * (1.0 - 1e-6)) break;  // stalled
    prev_res = res;
  }

  result.x = x;
  result.residual_norm = residual.norm2();
  if (!result.converged)
    result.converged = result.residual_norm / bnorm < opts_.residual_tol;
  return result;
}

}  // namespace flexcs::solvers
