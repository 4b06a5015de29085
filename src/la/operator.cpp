#include "la/operator.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace flexcs::la {

namespace {

double frobenius_of(const Matrix& a) {
  // Same accumulation order as the historical FISTA Frobenius fallback so
  // deadline-bounded Lipschitz estimates stay bit-identical through the
  // DenseOperator path.
  double frob = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) frob += a.data()[i] * a.data()[i];
  return std::sqrt(frob);
}

}  // namespace

void LinearOperator::apply_normal(const Vector& x, Vector& out) const {
  out = apply_adjoint(apply(x));
}

std::vector<Vector> LinearOperator::apply_batch(
    const std::vector<Vector>& xs) const {
  std::vector<Vector> out;
  out.reserve(xs.size());
  for (const Vector& x : xs) out.push_back(apply(x));
  return out;
}

std::vector<Vector> LinearOperator::apply_adjoint_batch(
    const std::vector<Vector>& ys) const {
  std::vector<Vector> out;
  out.reserve(ys.size());
  for (const Vector& y : ys) out.push_back(apply_adjoint(y));
  return out;
}

DenseOperator::DenseOperator(Matrix a)
    : DenseOperator(std::make_shared<const Matrix>(std::move(a)), nullptr) {}

DenseOperator::DenseOperator(std::shared_ptr<const Matrix> a)
    : DenseOperator(std::move(a), nullptr) {}

DenseOperator DenseOperator::borrowed(const Matrix& a) {
  return DenseOperator(nullptr, &a);
}

DenseOperator::DenseOperator(std::shared_ptr<const Matrix> owned,
                             const Matrix* borrowed)
    : owned_(std::move(owned)), a_(borrowed != nullptr ? borrowed : owned_.get()) {
  FLEXCS_CHECK(a_ != nullptr, "DenseOperator: null matrix");
  frobenius_ = frobenius_of(*a_);
}

Vector DenseOperator::apply(const Vector& x) const { return matvec(*a_, x); }

Vector DenseOperator::apply_adjoint(const Vector& y) const {
  return matvec_t(*a_, y);
}

double operator_norm_estimate(const LinearOperator& a, int iters) {
  if (a.empty()) return 0.0;
  // Power iteration on Aᵀ·A with a deterministic, non-degenerate start. The
  // normal apply lands in `w`, which then swaps with `v`: an operator whose
  // apply_normal works in place allocates nothing per step.
  Vector v(a.cols()), w(a.cols());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.001 * static_cast<double>(i % 17);
  v /= v.norm2();
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    a.apply_normal(v, w);
    const double n = w.norm2();
    if (n == 0.0) return 0.0;
    std::swap(v, w);
    v /= n;
    sigma = std::sqrt(n);
  }
  return sigma;
}

double spectral_norm(const Matrix& a, int iters) {
  return operator_norm_estimate(DenseOperator::borrowed(a), iters);
}

Matrix to_dense(const LinearOperator& a,
                const std::function<bool()>& should_stop) {
  Matrix out(a.rows(), a.cols());
  Vector e(a.cols(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    if (should_stop && should_stop()) return Matrix();
    e[j] = 1.0;
    const Vector col = a.apply(e);
    for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) = col[i];
    e[j] = 0.0;
  }
  return out;
}

CgResult cg_solve(const SpdApply& apply_spd, const Vector& b,
                  const CgOptions& opts, const Vector& x0) {
  FLEXCS_CHECK(static_cast<bool>(apply_spd), "cg_solve: null apply callback");
  FLEXCS_CHECK(x0.empty() || x0.size() == b.size(),
               "cg_solve: warm start size mismatch");
  CgResult result;
  result.x = x0.empty() ? Vector(b.size(), 0.0) : x0;
  const double bnorm = b.norm2();
  if (bnorm == 0.0) {
    result.x.fill(0.0);
    result.converged = true;
    return result;
  }
  Vector sp(b.size());
  Vector r = b;
  if (!x0.empty()) {
    apply_spd(result.x, sp);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= sp[i];
  }
  Vector p = r;
  double rr = dot(r, r);
  const double stop_norm2 = (opts.tol * bnorm) * (opts.tol * bnorm);
  if (rr <= stop_norm2) {
    result.converged = true;
    return result;
  }
  for (int it = 0; it < opts.max_iterations; ++it) {
    if (opts.should_stop && opts.should_stop()) return result;
    apply_spd(p, sp);
    const double psp = dot(p, sp);
    if (!(psp > 0.0)) return result;  // lost positive-definiteness / stagnated
    const double alpha = rr / psp;
    for (std::size_t i = 0; i < result.x.size(); ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * sp[i];
    }
    const double rr_next = dot(r, r);
    result.iterations = it + 1;
    if (rr_next <= stop_norm2) {
      result.converged = true;
      return result;
    }
    const double beta = rr_next / rr;
    rr = rr_next;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
  }
  return result;
}

}  // namespace flexcs::la
