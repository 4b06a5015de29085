// Deadline/cancellation semantics across every iterative kernel: each of the
// six sparse solvers, the simplex LP core, and RPCA must (a) return
// immediately when handed an already-expired deadline, flagged and with
// finite output, and (b) stop at an iteration boundary on mid-run expiry,
// returning a partial iterate whose residual is no worse than the zero
// vector's (||b||). All problems are built from fixed seeds; the
// already-expired path is additionally bit-reproducible.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cs/decoder.hpp"
#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "dsp/basis.hpp"
#include "la/matrix.hpp"
#include "lp/simplex.hpp"
#include "rpca/rpca.hpp"
#include "runtime/deadline.hpp"
#include "solvers/admm.hpp"
#include "solvers/bp_lp.hpp"
#include "solvers/cosamp.hpp"
#include "solvers/fista.hpp"
#include "solvers/irls.hpp"
#include "solvers/omp.hpp"

namespace flexcs::solvers {
namespace {

struct Problem {
  la::Matrix a;
  la::Vector b;
};

// Random Gaussian A (m x n) and b = A x0 for a k-sparse x0; fixed seed.
Problem make_problem(std::size_t m, std::size_t n, std::size_t k,
                     std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  la::Vector x0(n, 0.0);
  for (std::size_t j = 0; j < k; ++j)
    x0[rng.uniform_index(n)] = 1.0 + rng.uniform();
  Problem p;
  p.b = matvec(a, x0);
  p.a = std::move(a);
  return p;
}

// The full roster, configured so no tolerance can be met: mid-run stops can
// only come from the deadline, never from convergence racing it.
std::vector<std::shared_ptr<const SparseSolver>> unconvergeable_roster() {
  FistaOptions fista;
  fista.max_iterations = 2000000;
  fista.tol = 0.0;
  AdmmOptions admm;
  admm.max_iterations = 2000000;
  admm.abs_tol = 0.0;
  admm.rel_tol = 0.0;
  IrlsOptions irls;
  irls.max_iterations = 2000000;
  irls.tol = 0.0;
  CosampOptions cosamp;
  cosamp.max_iterations = 2000000;
  cosamp.residual_tol = 0.0;
  OmpOptions omp;
  omp.residual_tol = 0.0;  // runs until max_sparsity columns are selected
  BpLpOptions bplp;
  return {
      std::make_shared<FistaSolver>(fista),
      std::make_shared<AdmmLassoSolver>(admm),
      std::make_shared<IrlsSolver>(irls),
      std::make_shared<CosampSolver>(cosamp),
      std::make_shared<OmpSolver>(omp),
      std::make_shared<BpLpSolver>(bplp),
  };
}

void expect_flagged_and_bounded(const SolveResult& r, const Problem& p,
                                const std::string& who) {
  EXPECT_TRUE(r.deadline_expired) << who;
  EXPECT_FALSE(r.converged) << who;
  EXPECT_EQ(r.x.size(), p.a.cols()) << who;
  EXPECT_TRUE(la::all_finite(r.x)) << who;
  EXPECT_GE(r.solve_seconds, 0.0) << who;
  // The partial iterate is never worse than not solving at all.
  EXPECT_LE(r.residual_norm, p.b.norm2() * (1.0 + 1e-12)) << who;
  // The reported residual is the iterate's actual residual.
  EXPECT_NEAR((matvec(p.a, r.x) - p.b).norm2(), r.residual_norm,
              1e-9 * (1.0 + p.b.norm2()))
      << who;
}

TEST(DeadlineSemantics, AlreadyExpiredReturnsImmediatelyAllSolvers) {
  const Problem p = make_problem(24, 48, 5, 1234);
  SolveOptions ctrl;
  ctrl.deadline = runtime::Deadline::after(0.0);
  for (const auto& solver : unconvergeable_roster()) {
    const SolveResult r = solver->solve(p.a, p.b, ctrl);
    expect_flagged_and_bounded(r, p, solver->name());
    EXPECT_EQ(r.iterations, 0) << solver->name();
    // Deterministic: the expired path is pure, so a replay is bit-identical.
    const SolveResult replay = solver->solve(p.a, p.b, ctrl);
    ASSERT_EQ(replay.x.size(), r.x.size()) << solver->name();
    for (std::size_t i = 0; i < r.x.size(); ++i)
      EXPECT_EQ(replay.x[i], r.x[i]) << solver->name() << " coeff " << i;
  }
}

TEST(DeadlineSemantics, PreCancelledTokenStopsAllSolvers) {
  const Problem p = make_problem(24, 48, 5, 1234);
  runtime::CancelSource source;
  source.cancel();
  SolveOptions ctrl;
  ctrl.cancel = source.token();
  for (const auto& solver : unconvergeable_roster()) {
    const SolveResult r = solver->solve(p.a, p.b, ctrl);
    expect_flagged_and_bounded(r, p, solver->name());
    EXPECT_EQ(r.iterations, 0) << solver->name();
  }
}

TEST(DeadlineSemantics, MidRunExpiryReturnsBoundedPartialIterate) {
  // Big enough that no solver finishes its uncapped run inside the deadline
  // (OMP must select 128 columns, the BP LP has 1024 columns, the greedy and
  // splitting solvers have their tolerances zeroed); the assertions are
  // timing-independent properties of the partial iterate.
  const Problem p = make_problem(256, 512, 20, 77);
  for (const auto& solver : unconvergeable_roster()) {
    SolveOptions ctrl;
    ctrl.deadline = runtime::Deadline::after(2e-3);
    const SolveResult r = solver->solve(p.a, p.b, ctrl);
    expect_flagged_and_bounded(r, p, solver->name());
  }
}

// --------------------------------------------------------------------------
// The operator overload must keep identical deadline/cancel semantics. The
// expired/cancelled cases run every solver (OMP and BP-LP stop before they
// materialise the operator); the mid-run case runs the gradient-based subset,
// and the entry-hungry solvers' materialisation gets its own cancel test.

struct OperatorProblem {
  std::shared_ptr<const cs::SubsampledTransformOperator> op;
  la::Vector b;
};

OperatorProblem make_operator_problem(std::size_t rows, std::size_t cols,
                                      std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  const cs::SamplingPattern p = cs::random_pattern(rows, cols, 0.5, rng);
  auto op = std::make_shared<const cs::SubsampledTransformOperator>(
      dsp::BasisKind::kDct2D, p);
  la::Vector x0(p.n(), 0.0);
  for (std::size_t j = 0; j < k; ++j)
    x0[rng.uniform_index(p.n())] = 1.0 + rng.uniform();
  OperatorProblem out;
  out.b = op->apply(x0);
  out.op = std::move(op);
  return out;
}

std::vector<std::shared_ptr<const SparseSolver>> matrix_free_roster() {
  FistaOptions fista;
  fista.max_iterations = 2000000;
  fista.tol = 0.0;
  AdmmOptions admm;
  admm.max_iterations = 2000000;
  admm.abs_tol = 0.0;
  admm.rel_tol = 0.0;
  IrlsOptions irls;
  irls.max_iterations = 2000000;
  irls.tol = 0.0;
  CosampOptions cosamp;
  cosamp.max_iterations = 2000000;
  cosamp.residual_tol = 0.0;
  return {
      std::make_shared<FistaSolver>(fista),
      std::make_shared<AdmmLassoSolver>(admm),
      std::make_shared<IrlsSolver>(irls),
      std::make_shared<CosampSolver>(cosamp),
  };
}

void expect_flagged_and_bounded_op(const SolveResult& r,
                                   const OperatorProblem& p,
                                   const std::string& who) {
  EXPECT_TRUE(r.deadline_expired) << who;
  EXPECT_FALSE(r.converged) << who;
  EXPECT_EQ(r.x.size(), p.op->cols()) << who;
  EXPECT_TRUE(la::all_finite(r.x)) << who;
  EXPECT_GE(r.solve_seconds, 0.0) << who;
  EXPECT_LE(r.residual_norm, p.b.norm2() * (1.0 + 1e-12)) << who;
  EXPECT_NEAR((p.op->apply(r.x) - p.b).norm2(), r.residual_norm,
              1e-9 * (1.0 + p.b.norm2()))
      << who;
}

TEST(DeadlineSemantics, AlreadyExpiredReturnsImmediatelyImplicitOperator) {
  const OperatorProblem p = make_operator_problem(8, 8, 5, 4321);
  SolveOptions ctrl;
  ctrl.deadline = runtime::Deadline::after(0.0);
  for (const auto& solver : unconvergeable_roster()) {
    const SolveResult r = solver->solve(*p.op, p.b, ctrl);
    expect_flagged_and_bounded_op(r, p, solver->name());
    EXPECT_EQ(r.iterations, 0) << solver->name();
    const SolveResult replay = solver->solve(*p.op, p.b, ctrl);
    ASSERT_EQ(replay.x.size(), r.x.size()) << solver->name();
    for (std::size_t i = 0; i < r.x.size(); ++i)
      EXPECT_EQ(replay.x[i], r.x[i]) << solver->name() << " coeff " << i;
  }
}

TEST(DeadlineSemantics, PreCancelledTokenStopsImplicitOperatorSolves) {
  const OperatorProblem p = make_operator_problem(8, 8, 5, 4321);
  runtime::CancelSource source;
  source.cancel();
  SolveOptions ctrl;
  ctrl.cancel = source.token();
  for (const auto& solver : unconvergeable_roster()) {
    const SolveResult r = solver->solve(*p.op, p.b, ctrl);
    expect_flagged_and_bounded_op(r, p, solver->name());
    EXPECT_EQ(r.iterations, 0) << solver->name();
  }
}

TEST(DeadlineSemantics, MidRunExpiryBoundsImplicitOperatorIterate) {
  // 64x64 grid -> 4096 coefficients, tolerances zeroed: nothing converges —
  // or even reaches CoSaMP's residual-stall exit — before a 2 ms deadline on
  // this geometry, now that the applies run through the folded DCT kernel.
  const OperatorProblem p = make_operator_problem(64, 64, 20, 787);
  for (const auto& solver : matrix_free_roster()) {
    SolveOptions ctrl;
    ctrl.deadline = runtime::Deadline::after(2e-3);
    const SolveResult r = solver->solve(*p.op, p.b, ctrl);
    expect_flagged_and_bounded_op(r, p, solver->name());
  }
}

// Counts applies and fires a cancel source once the k-th apply returns: a
// deterministic stand-in for a deadline expiring mid-materialisation.
class CancellingOperator final : public la::LinearOperator {
 public:
  CancellingOperator(std::shared_ptr<const la::LinearOperator> inner,
                     std::size_t cancel_after, runtime::CancelSource source)
      : inner_(std::move(inner)),
        cancel_after_(cancel_after),
        source_(std::move(source)) {}
  std::size_t rows() const override { return inner_->rows(); }
  std::size_t cols() const override { return inner_->cols(); }
  la::Vector apply(const la::Vector& x) const override {
    la::Vector y = inner_->apply(x);
    if (++applies_ == cancel_after_) source_.cancel();
    return y;
  }
  la::Vector apply_adjoint(const la::Vector& y) const override {
    ++applies_;
    return inner_->apply_adjoint(y);
  }
  std::size_t applies() const { return applies_; }

 private:
  std::shared_ptr<const la::LinearOperator> inner_;
  std::size_t cancel_after_;
  mutable runtime::CancelSource source_;
  mutable std::size_t applies_ = 0;
};

TEST(DeadlineSemantics, CancelDuringMaterialisationStopsEntryHungrySolvers) {
  // OMP and BP-LP build the M x N matrix of an implicit operator with N
  // applies before their first iteration. A cancel landing mid-build must
  // abandon it within one apply and return the zero-x expired result.
  const OperatorProblem p = make_operator_problem(16, 16, 5, 4321);
  const std::size_t n = p.op->cols();
  const std::vector<std::shared_ptr<const SparseSolver>> roster = {
      std::make_shared<OmpSolver>(), std::make_shared<BpLpSolver>()};
  for (const auto& solver : roster) {
    runtime::CancelSource source;
    const CancellingOperator op(p.op, 8, source);
    SolveOptions ctrl;
    ctrl.cancel = source.token();
    const SolveResult r = solver->solve(op, p.b, ctrl);
    EXPECT_TRUE(r.deadline_expired) << solver->name();
    EXPECT_FALSE(r.converged) << solver->name();
    EXPECT_EQ(r.iterations, 0) << solver->name();
    EXPECT_LT(op.applies(), n) << solver->name();
    ASSERT_EQ(r.x.size(), n) << solver->name();
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(r.x[i], 0.0) << solver->name() << " coeff " << i;
    EXPECT_DOUBLE_EQ(r.residual_norm, p.b.norm2()) << solver->name();
  }
}

// Solves with the wrapped solver, then fires a cancel source: a deterministic
// stand-in for a deadline that expires after the lasso solve, during the
// decoder's debias re-fit.
class CancelAfterSolve final : public SparseSolver {
 public:
  CancelAfterSolve(const SparseSolver& inner, runtime::CancelSource source)
      : inner_(inner), source_(std::move(source)) {}
  std::string name() const override { return "cancel-after-solve"; }

 protected:
  SolveResult solve_impl(const la::LinearOperator& a, const la::Vector& b,
                         const SolveOptions& ctrl) const override {
    validate_solve_inputs(a, b, "cancel-after-solve");
    SolveResult r = inner_.solve(a, b, ctrl);
    source_.cancel();
    return r;
  }

 private:
  const SparseSolver& inner_;
  mutable runtime::CancelSource source_;
};

TEST(DeadlineSemantics, DebiasRefitStopsAndKeepsTheLassoIterate) {
  // The decoder's debias re-fit (CG, up to max(200, |S|) iterations) runs
  // after the solve. A stop landing there must abandon the re-fit, return
  // the solver's iterate unchanged and flag the decode expired.
  const std::size_t rows = 20, cols = 20;
  Rng rng(77);
  const cs::SamplingPattern p = cs::random_pattern(rows, cols, 0.3, rng);
  la::Vector frame(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      frame[r * cols + c] =
          0.5 + 0.3 * std::sin(0.3 * static_cast<double>(r)) *
                    std::cos(0.2 * static_cast<double>(c));
  const la::Vector y = cs::apply_pattern(p, frame);
  const cs::Decoder decoder(rows, cols);
  const FistaSolver fista;

  cs::DecoderOptions no_debias;
  no_debias.debias = false;
  const cs::DecodeResult lasso = decoder.decode_with(p, y, fista, no_debias);
  ASSERT_FALSE(lasso.deadline_expired);

  runtime::CancelSource source;
  const CancelAfterSolve solver(fista, source);
  cs::DecoderOptions opts;
  opts.solve.cancel = source.token();
  const cs::DecodeResult stopped = decoder.decode_with(p, y, solver, opts);
  EXPECT_TRUE(stopped.deadline_expired);
  EXPECT_EQ(stopped.solver_iterations, lasso.solver_iterations);
  ASSERT_EQ(stopped.coefficients.size(), lasso.coefficients.size());
  for (std::size_t i = 0; i < lasso.coefficients.size(); ++i)
    EXPECT_EQ(stopped.coefficients[i], lasso.coefficients[i]) << "coeff " << i;
  EXPECT_EQ(la::max_abs_diff(stopped.frame, lasso.frame), 0.0);

  // A deadline that never fires re-fits exactly like no deadline, and the
  // re-fit does move the lasso iterate.
  const cs::DecodeResult full =
      decoder.decode_with(p, y, fista, cs::DecoderOptions{});
  cs::DecoderOptions far;
  far.solve.deadline = runtime::Deadline::after(3600.0);
  const cs::DecodeResult timed = decoder.decode_with(p, y, fista, far);
  EXPECT_FALSE(full.deadline_expired);
  EXPECT_FALSE(timed.deadline_expired);
  ASSERT_EQ(timed.coefficients.size(), full.coefficients.size());
  for (std::size_t i = 0; i < full.coefficients.size(); ++i)
    EXPECT_EQ(timed.coefficients[i], full.coefficients[i]) << "coeff " << i;
  EXPECT_GT(la::max_abs_diff(full.coefficients, lasso.coefficients), 0.0);
}

TEST(DeadlineSemantics, UnlimitedDeadlineReportsIterationsAndWallTime) {
  const Problem p = make_problem(24, 48, 5, 1234);
  const FistaSolver solver;
  const SolveResult r = solver.solve(p.a, p.b);
  EXPECT_FALSE(r.deadline_expired);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GT(r.solve_seconds, 0.0);
}

// Spans the clock cannot hold must not reach the duration cast (undefined
// behaviour for +inf, NaN and 1e300; the ubsan preset's float-cast-overflow
// check traps it): past the range means never, NaN and negatives mean now.
TEST(DeadlineSemantics, AfterClampsSpansOutsideTheClockRange) {
  using runtime::Deadline;
  for (const double far : {1e300, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::max()}) {
    const Deadline d = Deadline::after(far);
    EXPECT_TRUE(d.unlimited()) << far;
    EXPECT_FALSE(d.expired()) << far;
  }
  for (const double now : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           -std::numeric_limits<double>::infinity(), 0.0}) {
    const Deadline d = Deadline::after(now);
    EXPECT_FALSE(d.unlimited()) << now;
    EXPECT_TRUE(d.expired()) << now;
  }
  const Deadline hour = Deadline::after(3600.0);
  EXPECT_FALSE(hour.unlimited());
  EXPECT_FALSE(hour.expired());
  EXPECT_GT(hour.remaining_seconds(), 3590.0);
}

TEST(DeadlineSemantics, SimplexReportsDeadlineExpiredStatus) {
  const Problem p = make_problem(12, 24, 4, 9);
  la::Vector cost(p.a.cols(), 1.0);
  lp::LpOptions opts;
  opts.deadline = runtime::Deadline::after(0.0);
  const lp::LpResult r = lp::solve_standard_form(p.a, p.b, cost, opts);
  EXPECT_EQ(r.status, lp::LpStatus::kDeadlineExpired);

  runtime::CancelSource source;
  source.cancel();
  lp::LpOptions copts;
  copts.cancel = source.token();
  const lp::LpResult rc = lp::solve_standard_form(p.a, p.b, cost, copts);
  EXPECT_EQ(rc.status, lp::LpStatus::kDeadlineExpired);
}

TEST(DeadlineSemantics, RpcaExpiryYieldsZeroSplitImmediatelyAndFlagsMidRun) {
  Rng rng(5);
  la::Matrix d(20, 20);
  for (std::size_t i = 0; i < d.size(); ++i) d.data()[i] = rng.normal();

  rpca::RpcaOptions expired;
  expired.deadline = runtime::Deadline::after(0.0);
  const rpca::RpcaResult r0 = rpca::decompose(d, expired);
  EXPECT_TRUE(r0.deadline_expired);
  EXPECT_EQ(r0.iterations, 0);
  EXPECT_EQ(r0.low_rank.norm_fro(), 0.0);
  EXPECT_EQ(r0.sparse.norm_fro(), 0.0);

  rpca::RpcaOptions midrun;
  midrun.max_iterations = 2000000;
  midrun.tol = 0.0;
  midrun.deadline = runtime::Deadline::after(5e-3);
  const rpca::RpcaResult r1 = rpca::decompose(d, midrun);
  EXPECT_TRUE(r1.deadline_expired);
  EXPECT_FALSE(r1.converged);
  EXPECT_TRUE(la::all_finite(r1.low_rank));
  EXPECT_TRUE(la::all_finite(r1.sparse));
}

}  // namespace
}  // namespace flexcs::solvers
