#include "solvers/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "data/thermal.hpp"
#include "dsp/basis.hpp"
#include "golden.hpp"
#include "la/operator.hpp"
#include "runtime/deadline.hpp"
#include "solvers/admm.hpp"
#include "solvers/bp_lp.hpp"
#include "solvers/cosamp.hpp"
#include "solvers/fista.hpp"
#include "solvers/irls.hpp"
#include "solvers/omp.hpp"

namespace flexcs::solvers {
namespace {

// Gaussian sensing matrix with unit-norm columns: a standard RIP-friendly
// test operator.
la::Matrix gaussian_sensing(std::size_t m, std::size_t n, Rng& rng) {
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t c = 0; c < n; ++c) {
    double nn = 0.0;
    for (std::size_t r = 0; r < m; ++r) nn += a(r, c) * a(r, c);
    nn = std::sqrt(nn);
    for (std::size_t r = 0; r < m; ++r) a(r, c) /= nn;
  }
  return a;
}

la::Vector sparse_signal(std::size_t n, std::size_t k, Rng& rng) {
  la::Vector x(n, 0.0);
  for (std::size_t idx : rng.sample_without_replacement(n, k)) {
    double v;
    do {
      v = rng.normal();
    } while (std::fabs(v) < 0.3);  // keep entries well above solver tolerances
    x[idx] = v;
  }
  return x;
}

double relative_error(const la::Vector& est, const la::Vector& truth) {
  return (est - truth).norm2() / truth.norm2();
}

struct Case {
  std::string solver;
  std::size_t m, n, k;
  double tol;  // acceptable relative recovery error
};

class ExactRecovery : public ::testing::TestWithParam<Case> {};

TEST_P(ExactRecovery, RecoversSparseSignalFromNoiselessMeasurements) {
  const Case c = GetParam();
  Rng rng(0xC0FFEE ^ (c.m * 131 + c.n * 17 + c.k));
  const la::Matrix a = gaussian_sensing(c.m, c.n, rng);
  const la::Vector x0 = sparse_signal(c.n, c.k, rng);
  const la::Vector b = matvec(a, x0);

  auto solver = make_solver(c.solver);
  SolveResult r = solver->solve(a, b);
  // L1-style solvers benefit from the standard de-biasing step.
  r.x = debias_on_support(la::DenseOperator::borrowed(a), b, r.x, 1e-3);
  EXPECT_LT(relative_error(r.x, x0), c.tol)
      << c.solver << " m=" << c.m << " n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactRecovery,
    ::testing::Values(
        Case{"omp", 40, 100, 6, 1e-6}, Case{"omp", 64, 128, 10, 1e-6},
        Case{"cosamp", 40, 100, 6, 1e-5}, Case{"cosamp", 64, 128, 10, 1e-5},
        Case{"fista", 40, 100, 6, 1e-2}, Case{"fista", 64, 128, 10, 1e-2},
        Case{"ista", 40, 100, 6, 5e-2},
        Case{"admm", 40, 100, 6, 1e-2}, Case{"admm", 64, 128, 10, 1e-2},
        Case{"irls", 40, 100, 6, 1e-3}, Case{"irls", 64, 128, 10, 1e-3},
        Case{"bp-lp", 24, 48, 4, 1e-6}, Case{"bp-lp", 32, 64, 5, 1e-6}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.solver + "_m" +
                         std::to_string(info.param.m) + "_k" +
                         std::to_string(info.param.k);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Solvers, FactoryKnowsAllNames) {
  for (const auto& name : solver_names()) {
    auto s = make_solver(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW(make_solver("nope"), flexcs::CheckError);
}

TEST(Solvers, ZeroMeasurementsGiveZeroSolution) {
  Rng rng(1);
  const la::Matrix a = gaussian_sensing(10, 20, rng);
  const la::Vector b(10, 0.0);
  for (const auto& name : solver_names()) {
    const SolveResult r = make_solver(name)->solve(a, b);
    EXPECT_LT(r.x.norm_inf(), 1e-6) << name;
  }
}

TEST(Solvers, ShapeMismatchThrows) {
  Rng rng(2);
  const la::Matrix a = gaussian_sensing(10, 20, rng);
  const la::Vector b(7, 1.0);
  for (const auto& name : solver_names()) {
    EXPECT_THROW(make_solver(name)->solve(a, b), flexcs::CheckError) << name;
  }
}

TEST(Solvers, SoftThresholdBehaviour) {
  EXPECT_DOUBLE_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-0.5, 1.0), 0.0);
  const la::Vector v = soft_threshold(la::Vector{2.0, -0.1, -4.0}, 0.5);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], -3.5);
}

TEST(Solvers, OmpFindsExactSupport) {
  Rng rng(3);
  const la::Matrix a = gaussian_sensing(30, 60, rng);
  la::Vector x0(60, 0.0);
  x0[7] = 2.0;
  x0[21] = -1.5;
  x0[55] = 1.0;
  const la::Vector b = matvec(a, x0);
  const SolveResult r = OmpSolver().solve(a, b);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < 60; ++i) {
    if (i == 7 || i == 21 || i == 55)
      EXPECT_GT(std::fabs(r.x[i]), 0.5);
    else
      EXPECT_LT(std::fabs(r.x[i]), 1e-8);
  }
}

TEST(Solvers, OmpRespectsSparsityCap) {
  Rng rng(4);
  const la::Matrix a = gaussian_sensing(20, 40, rng);
  la::Vector b(20);
  for (auto& v : b) v = rng.normal();
  OmpOptions opts;
  opts.max_sparsity = 5;
  const SolveResult r = OmpSolver(opts).solve(a, b);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < r.x.size(); ++i)
    if (r.x[i] != 0.0) ++nnz;
  EXPECT_LE(nnz, 5u);
}

TEST(Solvers, FistaConvergesFasterThanIsta) {
  Rng rng(5);
  const la::Matrix a = gaussian_sensing(50, 120, rng);
  const la::Vector x0 = sparse_signal(120, 8, rng);
  const la::Vector b = matvec(a, x0);

  FistaOptions fo;
  fo.max_iterations = 150;
  fo.tol = 0.0;  // run the full budget
  const SolveResult fast = FistaSolver(fo).solve(a, b);
  fo.accelerate = false;
  const SolveResult slow = FistaSolver(fo).solve(a, b);
  EXPECT_LT(relative_error(fast.x, x0), relative_error(slow.x, x0) + 1e-9);
}

TEST(Solvers, AdmmResidualDecreasesWithNoise) {
  Rng rng(6);
  const la::Matrix a = gaussian_sensing(40, 80, rng);
  const la::Vector x0 = sparse_signal(80, 6, rng);
  la::Vector b = matvec(a, x0);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] += rng.normal(0.0, 0.01);
  const SolveResult r = AdmmLassoSolver().solve(a, b);
  // Residual should be on the order of the injected noise, not the signal.
  EXPECT_LT(r.residual_norm, 0.3 * b.norm2());
}

TEST(Solvers, BpLpSolutionHasMinimalL1) {
  // Cross-validate: the LP solution's l1 norm must not exceed another exact
  // solver's l1 norm on the same data (both satisfy Ax=b).
  Rng rng(7);
  const la::Matrix a = gaussian_sensing(20, 40, rng);
  const la::Vector x0 = sparse_signal(40, 3, rng);
  const la::Vector b = matvec(a, x0);
  const SolveResult lp = BpLpSolver().solve(a, b);
  ASSERT_TRUE(lp.converged);
  EXPECT_LT(lp.residual_norm, 1e-7);
  EXPECT_LE(lp.x.norm1(), x0.norm1() + 1e-7);
}

TEST(Solvers, DebiasRemovesShrinkage) {
  Rng rng(8);
  const la::Matrix a = gaussian_sensing(40, 80, rng);
  const la::Vector x0 = sparse_signal(80, 5, rng);
  const la::Vector b = matvec(a, x0);
  FistaOptions fo;
  fo.lambda = 0.05;  // heavy shrinkage on purpose
  const SolveResult r = FistaSolver(fo).solve(a, b);
  const la::Vector debiased =
      debias_on_support(la::DenseOperator::borrowed(a), b, r.x, 1e-3);
  EXPECT_LT(relative_error(debiased, x0), relative_error(r.x, x0));
}

TEST(Solvers, OperatorOverloadMatchesDenseSolveBitForBit) {
  // solve(Matrix, b) is now a thin wrapper over solve(DenseOperator, b); an
  // explicitly-constructed dense operator must land on identical iterates.
  Rng rng(0x0B5E);
  const la::Matrix a = gaussian_sensing(40, 100, rng);
  const la::Vector x0 = sparse_signal(100, 6, rng);
  const la::Vector b = matvec(a, x0);
  const la::DenseOperator op(a);
  for (const auto& name : solver_names()) {
    const SolveResult dense = make_solver(name)->solve(a, b);
    const SolveResult wrapped = make_solver(name)->solve(op, b);
    EXPECT_EQ(la::max_abs_diff(dense.x, wrapped.x), 0.0) << name;
    EXPECT_EQ(dense.iterations, wrapped.iterations) << name;
    EXPECT_EQ(dense.converged, wrapped.converged) << name;
  }
}

// Forwards every apply to a DenseOperator but hides its matrix: dense()
// returns null, as for an implicit operator with the same entries.
class HiddenDenseOperator final : public la::LinearOperator {
 public:
  explicit HiddenDenseOperator(const la::DenseOperator& inner)
      : inner_(inner) {}
  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  la::Vector apply(const la::Vector& x) const override {
    return inner_.apply(x);
  }
  la::Vector apply_adjoint(const la::Vector& y) const override {
    return inner_.apply_adjoint(y);
  }
  void apply_normal(const la::Vector& x, la::Vector& out) const override {
    inner_.apply_normal(x, out);
  }
  double norm_upper_bound() const override {
    return inner_.norm_upper_bound();
  }

 private:
  const la::DenseOperator& inner_;
};

TEST(Solvers, NoSolverBranchesOnDense) {
  // ADMM, IRLS, CoSaMP and the de-bias re-fit run one body for every
  // operator: on a Gaussian problem, a DenseOperator and the same operator
  // with its matrix hidden give the same bits.
  Rng rng(0xD0E5);
  const la::Matrix a = gaussian_sensing(40, 100, rng);
  const la::Vector x0 = sparse_signal(100, 6, rng);
  const la::Vector b = matvec(a, x0);
  const la::DenseOperator op(a);
  const HiddenDenseOperator hidden(op);
  ASSERT_EQ(hidden.dense(), nullptr);
  for (const std::string name : {"admm", "irls", "cosamp"}) {
    const SolveResult bare = make_solver(name)->solve(op, b);
    const SolveResult wrapped = make_solver(name)->solve(hidden, b);
    EXPECT_EQ(la::max_abs_diff(bare.x, wrapped.x), 0.0) << name;
    EXPECT_EQ(bare.iterations, wrapped.iterations) << name;
    EXPECT_EQ(bare.converged, wrapped.converged) << name;
  }
  la::Vector shrunk = x0;
  for (auto& v : shrunk) v *= 0.8;
  const la::Vector bare_fit = debias_on_support(op, b, shrunk, 1e-3);
  const la::Vector wrapped_fit = debias_on_support(hidden, b, shrunk, 1e-3);
  EXPECT_EQ(la::max_abs_diff(bare_fit, wrapped_fit), 0.0);
}

// Golden equivalence for every matrix-free-capable solver: decode the same
// seeded DCT-sparse frame through the dense Φ_M·Ψ matrix and through the
// implicit operator, and require agreement within the solver's own
// tolerance. Both run the same solver body; they share no matvec code
// (dense row kernels vs the fast transform), so this catches any drift
// between the two operators' applies.
class DenseImplicitGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(DenseImplicitGolden, SolverAgreesAcrossPaths) {
  const std::string name = GetParam();
  Rng rng(0x601D ^ static_cast<unsigned>(name.size()));
  const std::size_t rows = 12, cols = 12;
  const cs::SamplingPattern p = cs::random_pattern(rows, cols, 0.5, rng);
  const cs::SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const la::Matrix dense_a =
      golden::measurement_matrix(dsp::BasisKind::kDct2D, p);

  const la::Vector x0 = sparse_signal(rows * cols, 8, rng);
  const la::Vector b = op.apply(x0);

  const auto solver = make_solver(name);
  const SolveResult dense = solver->solve(dense_a, b);
  const SolveResult implicit = solver->solve(op, b);
  EXPECT_EQ(dense.converged, implicit.converged) << name;
  // Both solutions approximate the same minimiser; compare them against each
  // other at the scale of the solver's recovery tolerance.
  EXPECT_LT(la::max_abs_diff(dense.x, implicit.x), 1e-4) << name;
  EXPECT_NEAR(dense.residual_norm, implicit.residual_norm, 1e-6) << name;
}

INSTANTIATE_TEST_SUITE_P(MatrixFreeSolvers, DenseImplicitGolden,
                         ::testing::Values("fista", "ista", "admm", "irls",
                                           "cosamp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// OMP and BP-LP read matrix entries, so on a transform operator they
// materialise its M x N matrix; the solve must then land where the dense
// golden does — same support, coefficients within 1e-10.
void expect_entry_hungry_matches_golden(const std::string& name,
                                        std::size_t dim, std::size_t k) {
  Rng rng(0x0E9E);
  const cs::SamplingPattern p = cs::random_pattern(dim, dim, 0.5, rng);
  const cs::SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const la::Matrix dense_a =
      golden::measurement_matrix(dsp::BasisKind::kDct2D, p);
  const la::Vector b = op.apply(sparse_signal(dim * dim, k, rng));

  const auto solver = make_solver(name);
  const SolveResult implicit = solver->solve(op, b);
  const SolveResult dense = solver->solve(dense_a, b);
  ASSERT_TRUE(dense.converged) << name;
  EXPECT_EQ(implicit.converged, dense.converged) << name;
  for (std::size_t j = 0; j < dense.x.size(); ++j)
    EXPECT_EQ(implicit.x[j] != 0.0, dense.x[j] != 0.0) << name << " j=" << j;
  EXPECT_LT(la::max_abs_diff(implicit.x, dense.x), 1e-10) << name;
}

TEST(Solvers, OmpOnTransformOperatorMatchesDenseGolden) {
  expect_entry_hungry_matches_golden("omp", 8, 4);
}

TEST(Solvers, BpLpOnTransformOperatorMatchesDenseGolden) {
  expect_entry_hungry_matches_golden("bp-lp", 4, 2);
}

TEST(Solvers, OperatorDebiasMatchesDenseDebias) {
  Rng rng(0xDEB1);
  const std::size_t rows = 10, cols = 10;
  const cs::SamplingPattern p = cs::random_pattern(rows, cols, 0.6, rng);
  const cs::SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const la::Matrix dense_a =
      golden::measurement_matrix(dsp::BasisKind::kDct2D, p);
  const la::Vector x0 = sparse_signal(rows * cols, 6, rng);
  const la::Vector b = op.apply(x0);
  // Shrunk estimate with the right support: debias should recover x0 on both
  // paths.
  la::Vector shrunk = x0;
  for (auto& v : shrunk) v *= 0.8;
  const la::Vector via_matrix = golden::debias(dense_a, b, shrunk, 1e-3);
  const la::Vector via_operator = debias_on_support(op, b, shrunk, 1e-3);
  EXPECT_LT(relative_error(via_matrix, x0), 1e-6);
  EXPECT_LT(relative_error(via_operator, x0), 1e-6);
  EXPECT_LT(la::max_abs_diff(via_matrix, via_operator), 1e-7);
}

TEST(Solvers, DebiasEmptySupportGivesZero) {
  Rng rng(9);
  const la::Matrix a = gaussian_sensing(10, 20, rng);
  const la::Vector b(10, 1.0);
  const la::Vector z =
      debias_on_support(la::DenseOperator::borrowed(a), b, la::Vector(20, 0.0));
  EXPECT_EQ(z.norm_inf(), 0.0);
}

TEST(Solvers, DebiasCapsSupportAtMeasurementCount) {
  Rng rng(10);
  const la::Matrix a = gaussian_sensing(10, 30, rng);
  la::Vector b(10);
  for (auto& v : b) v = rng.normal();
  la::Vector dense(30, 1.0);  // support larger than M
  const la::Vector out =
      debias_on_support(la::DenseOperator::borrowed(a), b, dense);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] != 0.0) ++nnz;
  EXPECT_LE(nnz, 10u);
}

// ---------------------------------------------------------------------------
// FISTA gradient adaptive restart

double lasso_objective(const la::LinearOperator& a, const la::Vector& b,
                       const la::Vector& x, double lambda) {
  const double r = (a.apply(x) - b).norm2();
  double l1 = 0.0;
  for (double v : x) l1 += std::fabs(v);
  return 0.5 * r * r + lambda * l1;
}

// Textbook FISTA (Beck & Teboulle 2009) with unit step and no restart.
// Returns its objective after every iteration.
std::vector<double> objectives_without_restart(const la::LinearOperator& a,
                                               const la::Vector& b,
                                               double lambda, int iterations) {
  const la::Vector atb = a.apply_adjoint(b);
  la::Vector x(a.cols(), 0.0), y = x;
  double t = 1.0;
  std::vector<double> objectives;
  for (int it = 0; it < iterations; ++it) {
    const la::Vector grad = a.apply_adjoint(a.apply(y));
    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_new;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double x_new = soft_threshold(y[i] - (grad[i] - atb[i]), lambda);
      y[i] = x_new + beta * (x_new - x[i]);
      x[i] = x_new;
    }
    t = t_new;
    objectives.push_back(lasso_objective(a, b, x, lambda));
  }
  return objectives;
}

// A thermal tile sampled at half density through the DCT tight frame: the
// decode problem of the runtime's 20x20 (thermal) and 36x36 (tactile)
// padded tiles.
struct TileProblem {
  cs::SamplingPattern pattern;
  std::shared_ptr<cs::SubsampledTransformOperator> op;
  la::Vector b;
  la::Matrix clean;  // the tile before any stuck pixels
};

// `stuck_fraction` of the tile's pixels read 1.0 whatever the scene.
TileProblem thermal_tile_problem(std::size_t dim, std::uint64_t seed,
                                 double stuck_fraction = 0.0) {
  data::ThermalOptions topts;
  topts.rows = topts.cols = dim;
  Rng rng(seed);
  TileProblem tp;
  tp.clean = data::ThermalHandGenerator(topts).sample(rng).values;
  const cs::SamplingPattern p = cs::random_pattern(dim, dim, 0.5, rng);
  la::Matrix read = tp.clean;
  const auto stuck = static_cast<std::size_t>(
      std::lround(stuck_fraction * static_cast<double>(read.size())));
  for (const std::size_t i : rng.sample_without_replacement(read.size(), stuck))
    read.data()[i] = 1.0;
  tp.pattern = p;
  tp.op = std::make_shared<cs::SubsampledTransformOperator>(
      dsp::BasisKind::kDct2D, p);
  tp.b = la::Vector(p.m());
  for (std::size_t i = 0; i < p.m(); ++i) tp.b[i] = read.data()[p.indices[i]];
  return tp;
}

TEST(FistaRestart, ReachesUnrestartedObjectiveInHalfTheIterations) {
  // Reference: the objective unrestarted FISTA holds after 500 iterations,
  // and the first iteration at which it gets there (relative tolerance
  // 1e-9). Restarted FISTA must reach the same objective in at most half
  // that many iterations.
  constexpr double kRelTol = 1e-9;
  for (const std::size_t dim : {20u, 36u}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      const TileProblem tp = thermal_tile_problem(dim, seed);
      const double lambda = 1e-3 * tp.op->apply_adjoint(tp.b).norm_inf();
      const std::vector<double> plain =
          objectives_without_restart(*tp.op, tp.b, lambda, 500);
      const double reference = plain.back() * (1.0 + kRelTol);
      const int plain_needs = static_cast<int>(
          std::find_if(plain.begin(), plain.end(),
                       [&](double f) { return f <= reference; }) -
          plain.begin() + 1);

      FistaOptions fo;
      fo.lambda = lambda;
      fo.max_iterations = plain_needs / 2;
      fo.tol = 0.0;  // run the whole half budget
      SolveOptions ctrl;
      ctrl.operator_norm_hint = 1.0;  // the unit step of the reference
      const SolveResult r = FistaSolver(fo).solve(*tp.op, tp.b, ctrl);
      EXPECT_EQ(r.iterations, plain_needs / 2);
      EXPECT_LE(lasso_objective(*tp.op, tp.b, r.x, lambda), reference)
          << dim << "x" << dim << " seed " << seed << ": unrestarted needs "
          << plain_needs << " iterations";
    }
  }
}

TEST(FistaRestart, DefaultSolveConvergesWellInsideTheCap) {
  // The runtime's decode: library-default FISTA on the tight frame. Without
  // restart these tiles ran to the 500-iteration cap.
  for (const std::size_t dim : {20u, 36u}) {
    const TileProblem tp = thermal_tile_problem(dim, 3);
    SolveOptions ctrl;
    ctrl.operator_norm_hint = 1.0;
    const SolveResult r = FistaSolver().solve(*tp.op, tp.b, ctrl);
    EXPECT_TRUE(r.converged) << dim;
    EXPECT_LE(r.iterations, 250) << dim;
  }
}

// ---------------------------------------------------------------------------
// FISTA λ continuation and the warm-started debias re-fit

// The library's FISTA loop without λ continuation: gradient adaptive
// restart and unit step, one stage at the target λ, stopping once the
// relative change in x drops below `tol`.
struct PlainSolve {
  la::Vector x;
  int iterations = 0;
  bool converged = false;
};

PlainSolve fista_without_continuation(const la::LinearOperator& a,
                                      const la::Vector& b, double lambda,
                                      double tol, int max_iterations) {
  const la::Vector atb = a.apply_adjoint(b);
  PlainSolve out;
  out.x = la::Vector(a.cols(), 0.0);
  la::Vector& x = out.x;
  la::Vector y = x;
  double t = 1.0;
  for (int it = 0; it < max_iterations && !out.converged; ++it) {
    const la::Vector grad = a.apply_adjoint(a.apply(y));
    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_new;
    t = t_new;
    double dx = 0.0, xmax = 0.0, g = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double x_new = soft_threshold(y[i] - (grad[i] - atb[i]), lambda);
      dx = std::max(dx, std::fabs(x_new - x[i]));
      xmax = std::max(xmax, std::fabs(x_new));
      g += (y[i] - x_new) * (x_new - x[i]);
      y[i] = x_new + beta * (x_new - x[i]);
      x[i] = x_new;
    }
    if (g > 0.0) {
      t = 1.0;
      y = x;
    }
    out.iterations = it + 1;
    out.converged = dx / std::max(1e-12, xmax) < tol;
  }
  return out;
}

std::vector<std::size_t> support_of(const la::Vector& x, double threshold) {
  std::vector<std::size_t> support;
  for (std::size_t j = 0; j < x.size(); ++j)
    if (std::fabs(x[j]) > threshold) support.push_back(j);
  return support;
}

TEST(FistaContinuation, ReachesThePlainOptimumInFewerIterations) {
  // The library solve (10λ → 2λ → λ) against the same loop run cold at λ,
  // both to the default stopping tolerance. On these tiles the reference
  // itself stops 0.6–1.6e-10 (relative) above the optimum that 5000
  // iterations at tol 0 reach, so the two objectives must agree to 1e-9.
  constexpr double kObjectiveRelTol = 1e-9;
  const FistaOptions defaults;
  const double threshold = cs::DecoderOptions{}.support_threshold;
  for (const std::size_t dim : {20u, 36u}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      const TileProblem tp = thermal_tile_problem(dim, seed);
      const double lambda = 1e-3 * tp.op->apply_adjoint(tp.b).norm_inf();
      const PlainSolve plain = fista_without_continuation(
          *tp.op, tp.b, lambda, defaults.tol, defaults.max_iterations);
      ASSERT_TRUE(plain.converged) << dim << " seed " << seed;
      SolveOptions ctrl;
      ctrl.operator_norm_hint = 1.0;  // the unit step of the reference
      const SolveResult r = FistaSolver().solve(*tp.op, tp.b, ctrl);
      ASSERT_TRUE(r.converged) << dim << " seed " << seed;

      const double f_plain = lasso_objective(*tp.op, tp.b, plain.x, lambda);
      EXPECT_NEAR(lasso_objective(*tp.op, tp.b, r.x, lambda), f_plain,
                  kObjectiveRelTol * f_plain)
          << dim << " seed " << seed;
      EXPECT_EQ(support_of(r.x, threshold), support_of(plain.x, threshold))
          << dim << " seed " << seed;
      EXPECT_LE(r.iterations, 0.8 * plain.iterations)
          << dim << " seed " << seed << ": without continuation "
          << plain.iterations;
    }
  }
}

TEST(FistaContinuation, BudgetSpentBeforeTheFinalStageIsNotConverged) {
  // tol = 10 passes any step, so only the stage gate keeps `converged`
  // false. The final stage starts at iteration 4 at the earliest: the first
  // step moves from zero (relative change 1), and each stage takes a step.
  const TileProblem tp = thermal_tile_problem(20, 3);
  SolveOptions ctrl;
  ctrl.operator_norm_hint = 1.0;
  FistaOptions fo;
  fo.tol = 10.0;
  fo.max_iterations = 3;
  const SolveResult spent = FistaSolver(fo).solve(*tp.op, tp.b, ctrl);
  EXPECT_EQ(spent.iterations, 3);
  EXPECT_FALSE(spent.converged);
  EXPECT_FALSE(spent.deadline_expired);

  // With budget left, the final stage's first step meets the tolerance.
  fo.max_iterations = 500;
  const SolveResult done = FistaSolver(fo).solve(*tp.op, tp.b, ctrl);
  EXPECT_TRUE(done.converged);
  EXPECT_GT(done.iterations, 3);
}

// Counts applies and adjoint applies; optionally fires a cancel source once
// the k-th of them returns.
class CountingOperator final : public la::LinearOperator {
 public:
  explicit CountingOperator(const la::LinearOperator& inner,
                            std::size_t cancel_after = 0,
                            runtime::CancelSource source = {})
      : inner_(inner),
        cancel_after_(cancel_after),
        source_(std::move(source)) {}
  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  la::Vector apply(const la::Vector& x) const override {
    la::Vector y = inner_.apply(x);
    count();
    return y;
  }
  la::Vector apply_adjoint(const la::Vector& y) const override {
    la::Vector x = inner_.apply_adjoint(y);
    count();
    return x;
  }
  double norm_upper_bound() const override {
    return inner_.norm_upper_bound();
  }
  std::size_t applies() const { return applies_; }

 private:
  void count() const {
    if (++applies_ == cancel_after_) source_.cancel();
  }
  const la::LinearOperator& inner_;
  std::size_t cancel_after_;
  mutable runtime::CancelSource source_;
  mutable std::size_t applies_ = 0;
};

TEST(FistaContinuation, CancelInTheFirstStageIsExpiredNotConverged) {
  // Applies: one adjoint for Aᵀb, then two per iteration, so the 5th ends
  // iteration 2 — inside the first stage (see above) — and the poll at the
  // top of iteration 3 stops the solve. tol = 10 would let an ungated stage
  // converge at iteration 1.
  const TileProblem tp = thermal_tile_problem(20, 3);
  runtime::CancelSource source;
  const CountingOperator op(*tp.op, 5, source);
  SolveOptions ctrl;
  ctrl.operator_norm_hint = 1.0;
  ctrl.cancel = source.token();
  FistaOptions fo;
  fo.tol = 10.0;
  const SolveResult r = FistaSolver(fo).solve(op, tp.b, ctrl);
  EXPECT_TRUE(r.deadline_expired);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2);
}

TEST(DebiasRefit, WarmStartIsCheaperAndMatchesTheDenseGolden) {
  // The matrix-free re-fit seeds CG with the lasso iterate's support values
  // and stops at a 1e-9 residual. It must spend fewer applies than cold CG
  // run to 1e-12 (the re-fit before the warm start) and than cold CG run to
  // its own 1e-9, and still land on the dense Cholesky re-fit.
  const double threshold = cs::DecoderOptions{}.support_threshold;
  for (const std::size_t dim : {20u, 36u}) {
    const TileProblem tp = thermal_tile_problem(dim, 3);
    SolveOptions ctrl;
    ctrl.operator_norm_hint = 1.0;
    const la::Vector x = FistaSolver().solve(*tp.op, tp.b, ctrl).x;

    const CountingOperator warm_op(*tp.op);
    const la::Vector fit = debias_on_support(warm_op, tp.b, x, threshold);

    // Cold re-fit: the same ridge-regularised normal equations from zero.
    const std::vector<std::size_t> support = support_of(x, threshold);
    ASSERT_LE(support.size(), tp.op->rows());
    const auto embed = [&](const la::Vector& c) {
      la::Vector full(tp.op->cols(), 0.0);
      for (std::size_t j = 0; j < support.size(); ++j) full[support[j]] = c[j];
      return full;
    };
    const auto gather = [&](const la::Vector& full) {
      la::Vector c(support.size());
      for (std::size_t j = 0; j < support.size(); ++j) c[j] = full[support[j]];
      return c;
    };
    const double bound = tp.op->norm_upper_bound();
    const double ridge = 1e-10 * std::max(1.0, bound * bound);
    for (const double tol : {1e-12, 1e-9}) {
      const CountingOperator cold_op(*tp.op);
      la::CgOptions cg;
      cg.max_iterations =
          static_cast<int>(std::max<std::size_t>(200, support.size()));
      cg.tol = tol;
      const la::CgResult cold = la::cg_solve(
          [&](const la::Vector& c, la::Vector& out) {
            out = gather(cold_op.apply_adjoint(cold_op.apply(embed(c))));
            for (std::size_t j = 0; j < c.size(); ++j) out[j] += ridge * c[j];
          },
          gather(cold_op.apply_adjoint(tp.b)), cg);
      ASSERT_TRUE(cold.converged) << dim << " tol " << tol;
      EXPECT_LT(warm_op.applies(), cold_op.applies()) << dim << " tol " << tol;
    }

    const la::Matrix dense_a =
        golden::measurement_matrix(dsp::BasisKind::kDct2D, tp.pattern);
    const la::Vector exact = golden::debias(dense_a, tp.b, x, threshold);
    EXPECT_LE(la::max_abs_diff(fit, exact), 1e-8 * fit.norm_inf()) << dim;
  }
}

// ---------------------------------------------------------------------------
// The re-fit stop (SolveOptions::refit_on_support)

SolveOptions tight_frame_ctrl(bool refit_on_support) {
  SolveOptions ctrl;
  ctrl.operator_norm_hint = 1.0;
  ctrl.refit_on_support = refit_on_support;
  return ctrl;
}

// RMSE against the clean tile of the de-biased decode of `x`.
double refit_rmse(const TileProblem& tp, const la::Vector& x) {
  const la::Vector fit = debias_on_support(
      *tp.op, tp.b, x, cs::DecoderOptions{}.support_threshold);
  const la::Matrix frame = tp.op->synthesize(fit);
  double sq = 0.0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const double d = frame.data()[i] - tp.clean.data()[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(frame.size()));
}

TEST(FistaRefitStop, CleanTilesStopEarlyAndRefitNoWorse) {
  // 32 clean thermal tiles at each runtime geometry. Each flagged solve
  // either stops early or, while its support stays above 0.6 of the
  // measurements (about a third of the 20x20 tiles, none at 36x36), follows
  // the unflagged solve bit for bit. The early stops take at most 0.6x the
  // iterations of their unflagged solves in total, and the de-biased RMSE
  // against the clean tiles is no worse on average. Per tile the re-fit
  // moves both ways (about 3 tiles in 10 come out slightly worse), so the
  // RMSE claim is on the mean.
  constexpr int kTiles = 32;
  for (const std::size_t dim : {20u, 36u}) {
    int full_iterations = 0, early_iterations = 0, stopped_early = 0;
    double full_rmse = 0.0, early_rmse = 0.0;
    for (int seed = 1; seed <= kTiles; ++seed) {
      const TileProblem tp =
          thermal_tile_problem(dim, static_cast<std::uint64_t>(seed));
      const SolveResult full =
          FistaSolver().solve(*tp.op, tp.b, tight_frame_ctrl(false));
      const SolveResult flagged =
          FistaSolver().solve(*tp.op, tp.b, tight_frame_ctrl(true));
      ASSERT_TRUE(full.converged) << dim << " seed " << seed;
      ASSERT_TRUE(flagged.converged) << dim << " seed " << seed;
      ASSERT_LE(flagged.iterations, full.iterations) << dim << " seed " << seed;
      full_rmse += refit_rmse(tp, full.x);
      early_rmse += refit_rmse(tp, flagged.x);
      if (flagged.iterations == full.iterations) {
        EXPECT_EQ(0, std::memcmp(flagged.x.data(), full.x.data(),
                                 full.x.size() * sizeof(double)))
            << dim << " seed " << seed;
        continue;
      }
      ++stopped_early;
      full_iterations += full.iterations;
      early_iterations += flagged.iterations;
    }
    EXPECT_GE(stopped_early, kTiles / 2) << dim;
    EXPECT_LE(early_iterations, 0.6 * full_iterations)
        << dim << ": " << stopped_early << " tiles stopped early";
    EXPECT_LE(early_rmse, full_rmse) << dim;
  }
}

TEST(FistaRefitStop, SupportGuardKeepsAStuckTileBitIdentical) {
  // 2 % stuck pixels spread the lasso support past 0.6 of the measurements,
  // where a re-fit would fit spurious entries (the 1e-3 cliff). The guard
  // must then keep the flagged solve on the unflagged path, bit for bit.
  const TileProblem tp = thermal_tile_problem(36, 3, 0.02);
  const SolveResult full =
      FistaSolver().solve(*tp.op, tp.b, tight_frame_ctrl(false));
  const SolveResult flagged =
      FistaSolver().solve(*tp.op, tp.b, tight_frame_ctrl(true));
  std::size_t support = 0;
  for (const double v : full.x) support += v != 0.0 ? 1u : 0u;
  EXPECT_GT(static_cast<double>(support),
            0.6 * static_cast<double>(tp.op->rows()));
  EXPECT_EQ(flagged.iterations, full.iterations);
  EXPECT_EQ(flagged.converged, full.converged);
  ASSERT_EQ(flagged.x.size(), full.x.size());
  EXPECT_EQ(0, std::memcmp(flagged.x.data(), full.x.data(),
                           full.x.size() * sizeof(double)));
}

TEST(FistaRefitStop, ZeroToleranceStillRunsTheWholeBudget) {
  // tol = 0 asks for every iteration of the budget; the flag cannot cut it.
  const TileProblem tp = thermal_tile_problem(20, 3);
  FistaOptions fo;
  fo.tol = 0.0;
  fo.max_iterations = 120;
  const SolveResult r =
      FistaSolver(fo).solve(*tp.op, tp.b, tight_frame_ctrl(true));
  EXPECT_EQ(r.iterations, 120);
  EXPECT_FALSE(r.converged);
}

// ---------------------------------------------------------------------------
// The split coefficient pass against golden::fista, the fused scalar pass

// One FistaSolver solve and its golden twin must agree byte for byte.
struct GoldenFistaCase {
  std::string name;
  std::shared_ptr<const la::LinearOperator> op;
  la::Vector b;
  FistaOptions opts;
  SolveOptions ctrl;
};

void expect_same_bytes(const GoldenFistaCase& c, const SolveResult& lib,
                       const SolveResult& ref) {
  EXPECT_EQ(lib.iterations, ref.iterations) << c.name;
  EXPECT_EQ(lib.converged, ref.converged) << c.name;
  EXPECT_FALSE(lib.deadline_expired) << c.name;
  EXPECT_EQ(0, std::memcmp(&lib.residual_norm, &ref.residual_norm,
                           sizeof(double)))
      << c.name << ": " << lib.residual_norm << " vs " << ref.residual_norm;
  ASSERT_EQ(lib.x.size(), ref.x.size()) << c.name;
  EXPECT_EQ(0, std::memcmp(lib.x.data(), ref.x.data(),
                           ref.x.size() * sizeof(double)))
      << c.name;
}

TEST(FistaGolden, SplitPassMatchesTheFusedPassByteForByte) {
  std::vector<GoldenFistaCase> cases;
  const auto add = [&cases](std::string name,
                            std::shared_ptr<const la::LinearOperator> op,
                            const la::Vector& b, FistaOptions opts,
                            SolveOptions ctrl) {
    cases.push_back({std::move(name), std::move(op), b, opts, ctrl});
  };
  for (const bool refit : {false, true}) {
    const std::string tag = refit ? " refit" : "";
    const TileProblem dct = thermal_tile_problem(20, 5);
    add("dct 20x20" + tag, dct.op, dct.b, {}, tight_frame_ctrl(refit));
    add("haar 20x20" + tag,
        std::make_shared<cs::SubsampledTransformOperator>(
            dsp::BasisKind::kHaar2D, dct.pattern),
        dct.b, {}, tight_frame_ctrl(refit));
    // An odd N (thermal frames start at 16x16): the vector pass leaves the
    // last coefficient to its scalar tail.
    const TileProblem odd = thermal_tile_problem(17, 7);
    add("dct 17x17" + tag, odd.op, odd.b, {}, tight_frame_ctrl(refit));
    const TileProblem stuck = thermal_tile_problem(36, 3, 0.02);
    add("stuck 36x36" + tag, stuck.op, stuck.b, {}, tight_frame_ctrl(refit));
  }
  // A dense operator without a norm hint: sigma from the power iteration.
  const TileProblem small = thermal_tile_problem(16, 9);
  add("dense 16x16",
      std::make_shared<la::DenseOperator>(
          golden::measurement_matrix(dsp::BasisKind::kDct2D, small.pattern)),
      small.b, {}, SolveOptions{});
  FistaOptions ista;
  ista.accelerate = false;
  ista.max_iterations = 300;
  const TileProblem plain = thermal_tile_problem(20, 11);
  add("ista 20x20", plain.op, plain.b, ista, tight_frame_ctrl(false));

  int restarts = 0, stage_switches = 0;
  for (const GoldenFistaCase& c : cases) {
    const SolveResult lib = FistaSolver(c.opts).solve(*c.op, c.b, c.ctrl);
    const golden::FistaTrace ref = golden::fista(*c.op, c.b, c.opts, c.ctrl);
    expect_same_bytes(c, lib, ref.result);
    restarts += ref.restarts;
    stage_switches += ref.stage_switches;
  }
  // Both branches of the loop ran: the momentum restart and the λ stage
  // switch.
  EXPECT_GT(restarts, 0);
  EXPECT_GT(stage_switches, 0);
}

}  // namespace
}  // namespace flexcs::solvers
