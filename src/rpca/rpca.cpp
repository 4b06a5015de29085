#include "rpca/rpca.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "la/svd.hpp"
#include "solvers/fista.hpp"

namespace flexcs::rpca {

RpcaResult decompose(const la::Matrix& d, const RpcaOptions& opts) {
  FLEXCS_CHECK(!d.empty(), "RPCA of empty matrix");
  const std::size_t m = d.rows(), n = d.cols();
  const auto should_stop = [&opts] {
    return opts.deadline.expired() || opts.cancel.cancelled();
  };
  if (should_stop()) {
    RpcaResult early;
    early.low_rank = la::Matrix(m, n, 0.0);
    early.sparse = la::Matrix(m, n, 0.0);
    early.deadline_expired = true;
    return early;
  }

  const double lambda =
      opts.lambda > 0.0
          ? opts.lambda
          : 1.0 / std::sqrt(static_cast<double>(std::max(m, n)));
  const double d_fro = std::max(1e-300, d.norm_fro());
  // Inexact ALM penalty schedule (Lin, Chen & Ma 2010): mu starts at
  // kMuScale / ||D||_2 and grows by kMuGrowth per iteration, capped at 1e7
  // times its start.
  constexpr double kMuScale = 1.25;
  constexpr double kMuGrowth = 1.5;
  double mu = kMuScale / la::spectral_norm(d);
  const double mu_max = mu * 1e7;

  RpcaResult r;
  r.low_rank = la::Matrix(m, n, 0.0);
  r.sparse = la::Matrix(m, n, 0.0);
  la::Matrix y(m, n, 0.0);  // scaled dual variable

  for (int it = 0; it < opts.max_iterations; ++it) {
    if (should_stop()) {
      r.deadline_expired = true;
      break;
    }
    // L-update: singular value shrinkage of (D - S + Y/mu). The stop hook
    // reaches inside the SVD's sweep loop, so a fired deadline cuts the
    // frame mid-factorisation instead of waiting out up to 60 sweeps.
    la::Matrix work = d;
    work -= r.sparse;
    for (std::size_t i = 0; i < work.size(); ++i)
      work.data()[i] += y.data()[i] / mu;
    r.low_rank = la::sv_shrink(work, 1.0 / mu, &r.rank, should_stop);

    // S-update: entrywise soft threshold of (D - L + Y/mu).
    work = d;
    work -= r.low_rank;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const double v = work.data()[i] + y.data()[i] / mu;
      r.sparse.data()[i] = solvers::soft_threshold(v, lambda / mu);
    }

    // Dual ascent on the residual Z = D - L - S.
    double res2 = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double z = d.data()[i] - r.low_rank.data()[i] - r.sparse.data()[i];
      y.data()[i] += mu * z;
      res2 += z * z;
    }
    mu = std::min(mu * kMuGrowth, mu_max);
    r.iterations = it + 1;
    if (std::sqrt(res2) / d_fro < opts.tol) {
      r.converged = true;
      break;
    }
  }
  return r;
}

std::vector<bool> outlier_mask(const la::Matrix& sparse,
                               double rel_threshold) {
  FLEXCS_CHECK(rel_threshold > 0.0 && rel_threshold < 1.0,
               "rel_threshold must be in (0,1)");
  const double maxabs = sparse.norm_max();
  std::vector<bool> mask(sparse.size(), false);
  if (maxabs == 0.0) return mask;
  const double thr = rel_threshold * maxabs;
  for (std::size_t i = 0; i < sparse.size(); ++i)
    mask[i] = std::fabs(sparse.data()[i]) >= thr;
  return mask;
}

std::vector<bool> detect_outliers(const la::Matrix& d,
                                  const RpcaOptions& opts,
                                  double rel_threshold) {
  const RpcaResult r = decompose(d, opts);
  return outlier_mask(r.sparse, rel_threshold);
}

}  // namespace flexcs::rpca
