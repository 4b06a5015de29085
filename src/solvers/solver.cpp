#include "solvers/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "solvers/admm.hpp"
#include "solvers/bp_lp.hpp"
#include "solvers/cosamp.hpp"
#include "solvers/fista.hpp"
#include "solvers/irls.hpp"
#include "solvers/omp.hpp"

namespace flexcs::solvers {

SolveResult SparseSolver::solve(const la::Matrix& a,
                                const la::Vector& b) const {
  return solve(a, b, SolveOptions{});
}

SolveResult SparseSolver::solve(const la::Matrix& a, const la::Vector& b,
                                const SolveOptions& ctrl) const {
  return solve(la::DenseOperator::borrowed(a), b, ctrl);
}

SolveResult SparseSolver::solve(const la::LinearOperator& a,
                                const la::Vector& b) const {
  return solve(a, b, SolveOptions{});
}

namespace {

// Relative residual ||S c - A_Sᵀ b|| / ||A_Sᵀ b|| at which the debias re-fit
// stops. On the decoder's transform operators its coefficients land within
// ~1e-9·||fit||_inf of a Cholesky re-fit of the gathered Gram matrix and its
// pixels within ~2e-8, far below a tile's reconstruction error (RMSE ~5e-3).
constexpr double kRefitTol = 1e-9;

// Partial-iterate guarantee: an interrupted solve must never hand back
// something worse than not solving at all. Non-monotone solvers (FISTA
// momentum, ADMM splitting) can be mid-overshoot when the deadline fires,
// so fall back to the zero vector if the iterate lost to it.
void enforce_partial_iterate(const la::LinearOperator& a, const la::Vector& b,
                             SolveResult& result) {
  if (!result.deadline_expired) return;
  result.converged = false;
  const double bnorm = b.norm2();
  if (!la::all_finite(result.x) || !(result.residual_norm <= bnorm)) {
    result.x = la::Vector(a.cols(), 0.0);
    result.residual_norm = bnorm;
  }
}

// The support a debias re-fit runs on, ascending: the entries of x above
// `threshold`, trimmed to the strongest `max_size` (the operator's rows) so
// the least squares stays over-determined.
std::vector<std::size_t> pick_support(const la::Vector& x, double threshold,
                                      std::size_t max_size) {
  std::vector<std::size_t> support;
  for (std::size_t j = 0; j < x.size(); ++j)
    if (std::fabs(x[j]) > threshold) support.push_back(j);
  if (support.size() > max_size) {
    std::sort(support.begin(), support.end(),
              [&x](std::size_t i, std::size_t j) {
                return std::fabs(x[i]) > std::fabs(x[j]);
              });
    support.resize(max_size);
    std::sort(support.begin(), support.end());
  }
  return support;
}

}  // namespace

SolveResult SparseSolver::solve(const la::LinearOperator& a,
                                const la::Vector& b,
                                const SolveOptions& ctrl) const {
  const auto start = runtime::Deadline::Clock::now();
  SolveResult result = solve_impl(a, b, ctrl);
  result.solve_seconds =
      std::chrono::duration<double>(runtime::Deadline::Clock::now() - start)
          .count();
  enforce_partial_iterate(a, b, result);
  return result;
}

std::vector<SolveResult> SparseSolver::solve_batch(
    const la::LinearOperator& a, const std::vector<la::Vector>& bs,
    const SolveOptions& ctrl) const {
  FLEXCS_CHECK(!bs.empty(), "solve_batch: empty batch");
  const auto start = runtime::Deadline::Clock::now();
  std::vector<SolveResult> results = solve_batch_impl(a, bs, ctrl);
  FLEXCS_CHECK(results.size() == bs.size(),
               "solve_batch: result count mismatch");
  const double total =
      std::chrono::duration<double>(runtime::Deadline::Clock::now() - start)
          .count();
  const double share = total / static_cast<double>(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].solve_seconds = share;
    enforce_partial_iterate(a, bs[i], results[i]);
  }
  return results;
}

std::vector<SolveResult> SparseSolver::solve_batch_impl(
    const la::LinearOperator& a, const std::vector<la::Vector>& bs,
    const SolveOptions& ctrl) const {
  std::vector<SolveResult> results;
  results.reserve(bs.size());
  for (const la::Vector& b : bs) results.push_back(solve_impl(a, b, ctrl));
  return results;
}

void validate_solve_inputs(const la::LinearOperator& a, const la::Vector& b,
                           const char* who) {
  const std::string name(who);
  FLEXCS_CHECK(!a.empty(), name + ": empty measurement operator");
  FLEXCS_CHECK(a.rows() == b.size(),
               name + ": A is " + std::to_string(a.rows()) + "x" +
                   std::to_string(a.cols()) + " but b has " +
                   std::to_string(b.size()) + " entries");
  FLEXCS_CHECK(la::all_finite(b), name + ": non-finite measurement in b");
  if (const la::Matrix* m = a.dense())
    FLEXCS_CHECK(la::all_finite(*m), name + ": non-finite entry in A");
}

la::Vector debias_on_support(const la::LinearOperator& a, const la::Vector& b,
                             const la::Vector& x, double threshold,
                             const std::function<bool()>& should_stop) {
  if (should_stop && should_stop()) return {};
  FLEXCS_CHECK(a.cols() == x.size() && a.rows() == b.size(),
               "debias: shape mismatch");
  const std::vector<std::size_t> support = pick_support(x, threshold, a.rows());
  if (support.empty()) return la::Vector(x.size(), 0.0);

  // Ridge-regularised normal equations on the support (its columns can be
  // linearly dependent, e.g. Haar atoms whose footprint was never sampled),
  // solved by conjugate gradient through embed/gather instead of
  // materialising the support columns: S c = A_Sᵀ A_S c + ridge·c with
  // A_S c = A·embed(c). Every normal apply reuses the two full-length buffers and writes into
  // CG's own, so a CG iteration allocates nothing; `full` stays zero off the
  // support.
  la::Vector full(a.cols(), 0.0);
  la::Vector normal(a.cols());
  const auto embed = [&](const la::Vector& c) -> const la::Vector& {
    for (std::size_t j = 0; j < support.size(); ++j) full[support[j]] = c[j];
    return full;
  };
  const auto gather = [&](const la::Vector& v) {
    la::Vector c(support.size());
    for (std::size_t j = 0; j < support.size(); ++j) c[j] = v[support[j]];
    return c;
  };
  // The ridge scales with sigma_max(A)^2 through the operator's bound
  // (exactly 1 for the subsampled orthonormal transforms the decoder runs).
  const double bound = a.norm_upper_bound();
  const double ridge = 1e-10 * std::max(1.0, bound * bound);
  const auto apply_normal = [&](const la::Vector& c, la::Vector& out) {
    a.apply_normal(embed(c), normal);
    for (std::size_t j = 0; j < c.size(); ++j)
      out[j] = normal[support[j]] + ridge * c[j];
  };
  // The lasso iterate's support values seed CG: they are the least-squares
  // fit less the λ shrinkage, so the re-fit starts close to its answer.
  la::CgOptions cg;
  cg.max_iterations =
      static_cast<int>(std::max<std::size_t>(200, support.size()));
  cg.tol = kRefitTol;
  bool stopped = false;
  if (should_stop)
    cg.should_stop = [&] { return stopped = should_stop(); };
  const la::CgResult fit =
      la::cg_solve(apply_normal, gather(a.apply_adjoint(b)), cg, gather(x));
  if (stopped) return {};
  embed(fit.x);
  return full;
}

std::vector<std::string> solver_names() {
  return {"omp", "cosamp", "ista", "fista", "admm", "irls", "bp-lp"};
}

std::unique_ptr<SparseSolver> make_solver(const std::string& name) {
  if (name == "omp") return std::make_unique<OmpSolver>();
  if (name == "cosamp") return std::make_unique<CosampSolver>();
  if (name == "ista") {
    FistaOptions o;
    o.accelerate = false;
    o.max_iterations = 2000;
    return std::make_unique<FistaSolver>(o);
  }
  if (name == "fista") return std::make_unique<FistaSolver>();
  if (name == "admm") return std::make_unique<AdmmLassoSolver>();
  if (name == "irls") return std::make_unique<IrlsSolver>();
  if (name == "bp-lp") return std::make_unique<BpLpSolver>();
  FLEXCS_CHECK(false, "unknown solver name: " + name);
  return nullptr;
}

}  // namespace flexcs::solvers
