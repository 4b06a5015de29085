// Tests for the FLEXCS_CHECK contract layer and the input-validation
// preconditions on every solver / codec entry point: malformed inputs must
// fail fast with CheckError, never produce garbage recoveries.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/decoder.hpp"
#include "cs/encoder.hpp"
#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "dsp/basis.hpp"
#include "la/matrix.hpp"
#include "la/operator.hpp"
#include "solvers/solver.hpp"

namespace {

using flexcs::CheckError;
using flexcs::Rng;
namespace la = flexcs::la;
namespace cs = flexcs::cs;
namespace solvers = flexcs::solvers;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CheckMacro, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FLEXCS_CHECK(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(FLEXCS_CHECK_OK(true));
}

TEST(CheckMacro, FailingConditionThrowsCheckError) {
  EXPECT_THROW(FLEXCS_CHECK(false, "nope"), CheckError);
  EXPECT_THROW(FLEXCS_CHECK_OK(false), CheckError);
}

TEST(CheckMacro, CheckErrorIsALogicError) {
  // Callers that only know std::logic_error must still catch it.
  EXPECT_THROW(FLEXCS_CHECK(false, "nope"), std::logic_error);
}

TEST(CheckMacro, MessageNamesExpressionFileAndDetail) {
  try {
    FLEXCS_CHECK(2 < 1, "two is not less than one");
    FAIL() << "FLEXCS_CHECK did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not less than one"), std::string::npos) << what;
  }
}

TEST(CheckMacro, ConditionEvaluatedExactlyOnce) {
  int evals = 0;
  FLEXCS_CHECK([&] { return ++evals; }() > 0, "side effect");
  EXPECT_EQ(evals, 1);
}

TEST(AllFinite, DetectsNanAndInf) {
  la::Vector v{1.0, 2.0, 3.0};
  EXPECT_TRUE(la::all_finite(v));
  v[1] = kNan;
  EXPECT_FALSE(la::all_finite(v));
  v[1] = kInf;
  EXPECT_FALSE(la::all_finite(v));

  la::Matrix m(2, 2, 1.0);
  EXPECT_TRUE(la::all_finite(m));
  m(1, 0) = -kInf;
  EXPECT_FALSE(la::all_finite(m));
}

// ---------------------------------------------------------------------------
// Matrix kernel contracts

TEST(MatrixContracts, ShapeMismatchesThrow) {
  la::Matrix a(3, 4, 1.0);
  la::Matrix b(5, 6, 1.0);
  la::Vector v(7, 1.0);
  EXPECT_THROW(la::matmul(a, b), CheckError);
  EXPECT_THROW(la::matmul_at_b(a, b), CheckError);
  EXPECT_THROW(la::matmul_a_bt(a, b), CheckError);
  EXPECT_THROW(la::matvec(a, v), CheckError);
  EXPECT_THROW(la::matvec_t(a, v), CheckError);
  EXPECT_THROW(la::max_abs_diff(a, b), CheckError);
  EXPECT_THROW(la::Matrix::from_flat(v, 2, 2), CheckError);
  EXPECT_THROW(a.at(3, 0), CheckError);
  EXPECT_THROW(v.at(7), CheckError);
}

// ---------------------------------------------------------------------------
// Solver entry-point contracts: every registered solver must reject
// malformed (Φ, y) pairs with CheckError instead of decoding garbage.

class SolverContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  // A well-posed 6x12 sparse problem the solvers can actually solve.
  void SetUp() override {
    Rng rng(42);
    a_ = la::Matrix(6, 12);
    for (std::size_t r = 0; r < a_.rows(); ++r)
      for (std::size_t c = 0; c < a_.cols(); ++c) a_(r, c) = rng.normal();
    la::Vector x0(12, 0.0);
    x0[3] = 1.0;
    x0[9] = -0.5;
    b_ = la::matvec(a_, x0);
  }

  la::Matrix a_;
  la::Vector b_;
};

TEST_P(SolverContractTest, WellPosedProblemIsAccepted) {
  const auto solver = solvers::make_solver(GetParam());
  EXPECT_NO_THROW(solver->solve(a_, b_));
}

TEST_P(SolverContractTest, RejectsMismatchedDimensions) {
  const auto solver = solvers::make_solver(GetParam());
  const la::Vector short_b(a_.rows() - 1, 1.0);
  const la::Vector long_b(a_.rows() + 3, 1.0);
  EXPECT_THROW(solver->solve(a_, short_b), CheckError);
  EXPECT_THROW(solver->solve(a_, long_b), CheckError);
}

TEST_P(SolverContractTest, RejectsEmptyProblem) {
  const auto solver = solvers::make_solver(GetParam());
  EXPECT_THROW(solver->solve(la::Matrix(), la::Vector()), CheckError);
}

TEST_P(SolverContractTest, RejectsNanMeasurements) {
  const auto solver = solvers::make_solver(GetParam());
  la::Vector bad = b_;
  bad[2] = kNan;
  EXPECT_THROW(solver->solve(a_, bad), CheckError);
}

TEST_P(SolverContractTest, RejectsInfMeasurements) {
  const auto solver = solvers::make_solver(GetParam());
  la::Vector bad = b_;
  bad[0] = kInf;
  EXPECT_THROW(solver->solve(a_, bad), CheckError);
}

TEST_P(SolverContractTest, RejectsNanOperator) {
  const auto solver = solvers::make_solver(GetParam());
  la::Matrix bad = a_;
  bad(1, 1) = kNan;
  EXPECT_THROW(solver->solve(bad, b_), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverContractTest,
                         ::testing::ValuesIn(solvers::solver_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(SolverFactory, UnknownNameThrows) {
  EXPECT_THROW(solvers::make_solver("levenberg"), CheckError);
}

TEST(SolverContracts, DebiasRejectsShapeMismatch) {
  la::Matrix a(4, 8, 1.0);
  la::Vector b(4, 1.0);
  la::Vector wrong_x(5, 0.0);
  EXPECT_THROW(
      solvers::debias_on_support(la::DenseOperator::borrowed(a), b, wrong_x),
      CheckError);
}

// ---------------------------------------------------------------------------
// Codec entry-point contracts

TEST(EncoderContracts, RejectsFramePatternMismatch) {
  Rng rng(1);
  const auto pattern = cs::random_pattern(4, 4, 0.5, rng);
  const la::Matrix wrong_frame(5, 5, 0.1);
  cs::Encoder enc;
  EXPECT_THROW(enc.encode(wrong_frame, pattern, rng), CheckError);
}

TEST(EncoderContracts, RejectsNonFiniteFrame) {
  Rng rng(1);
  const auto pattern = cs::random_pattern(4, 4, 0.5, rng);
  la::Matrix frame(4, 4, 0.25);
  frame(2, 3) = kNan;
  cs::Encoder enc;
  EXPECT_THROW(enc.encode(frame, pattern, rng), CheckError);
  const auto schedule = cs::make_scan_schedule(pattern);
  EXPECT_THROW(enc.encode_scanned(frame, schedule, rng), CheckError);
}

TEST(SamplingContracts, ApplyPatternRejectsOutOfRangeIndex) {
  cs::SamplingPattern p;
  p.rows = 2;
  p.cols = 2;
  p.indices = {0, 7};  // 7 >= n() = 4
  const la::Vector y(4, 1.0);
  EXPECT_THROW(cs::apply_pattern(p, y), CheckError);
}

TEST(DecoderContracts, RejectsMeasurementCountMismatch) {
  Rng rng(7);
  const auto pattern = cs::random_pattern(4, 4, 0.5, rng);
  const cs::Decoder dec(4, 4);
  const la::Vector wrong(pattern.m() + 1, 0.5);
  EXPECT_THROW(dec.decode(pattern, wrong), CheckError);
}

TEST(DecoderContracts, RejectsNanMeasurements) {
  Rng rng(7);
  const auto pattern = cs::random_pattern(4, 4, 0.5, rng);
  const cs::Decoder dec(4, 4);
  la::Vector bad(pattern.m(), 0.5);
  bad[1] = kNan;
  EXPECT_THROW(dec.decode(pattern, bad), CheckError);
}

TEST(DecoderContracts, RejectsEmptyMeasurements) {
  const cs::Decoder dec(4, 4);
  cs::SamplingPattern empty;
  empty.rows = 4;
  empty.cols = 4;
  EXPECT_THROW(dec.decode(empty, la::Vector()), CheckError);
}

TEST(DecoderContracts, RejectsEmptyGeometry) {
  EXPECT_THROW(cs::Decoder(0, 4), CheckError);
}

// ---------------------------------------------------------------------------
// Operator entry points (la::LinearOperator / cs::SubsampledTransformOperator)

class OperatorContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    Rng rng(77);
    pattern_ = cs::random_pattern(6, 6, 0.5, rng);
    op_ = std::make_unique<cs::SubsampledTransformOperator>(
        flexcs::dsp::BasisKind::kDct2D, pattern_);
    la::Vector x0(36, 0.0);
    x0[2] = 1.0;
    x0[17] = -0.7;
    b_ = op_->apply(x0);
  }

  cs::SamplingPattern pattern_;
  std::unique_ptr<cs::SubsampledTransformOperator> op_;
  la::Vector b_;
};

TEST_P(OperatorContractTest, WellPosedImplicitProblemIsAccepted) {
  // Every solver accepts the implicit operator: gradient-based ones through
  // its applies, entry-hungry ones (OMP, BP-LP) by materialising it.
  const auto solver = solvers::make_solver(GetParam());
  solvers::SolveResult r;
  ASSERT_NO_THROW(r = solver->solve(*op_, b_));
  EXPECT_TRUE(la::all_finite(r.x));
  EXPECT_EQ(r.x.size(), op_->cols());
}

TEST_P(OperatorContractTest, RejectsMismatchedDimensionsThroughOperator) {
  const auto solver = solvers::make_solver(GetParam());
  EXPECT_THROW(solver->solve(*op_, la::Vector(op_->rows() + 1, 1.0)),
               CheckError);
  EXPECT_THROW(solver->solve(*op_, la::Vector(op_->rows() - 1, 1.0)),
               CheckError);
}

TEST_P(OperatorContractTest, RejectsNanMeasurementsThroughOperator) {
  const auto solver = solvers::make_solver(GetParam());
  la::Vector bad = b_;
  bad[1] = kNan;
  EXPECT_THROW(solver->solve(*op_, bad), CheckError);
  bad[1] = kInf;
  EXPECT_THROW(solver->solve(*op_, bad), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, OperatorContractTest,
                         ::testing::ValuesIn(solvers::solver_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(OperatorContracts, DenseOperatorStillRejectsNanMatrixEntries) {
  Rng rng(78);
  la::Matrix bad(4, 8);
  for (std::size_t i = 0; i < bad.size(); ++i) bad.data()[i] = rng.normal();
  bad(2, 3) = kNan;
  const la::DenseOperator op(bad);
  const la::Vector b(4, 1.0);
  for (const auto& name : solvers::solver_names())
    EXPECT_THROW(solvers::make_solver(name)->solve(op, b), CheckError) << name;
}

TEST(OperatorContracts, OperatorDebiasRejectsShapeMismatch) {
  Rng rng(79);
  const cs::SamplingPattern p = cs::random_pattern(6, 6, 0.5, rng);
  const cs::SubsampledTransformOperator op(flexcs::dsp::BasisKind::kDct2D, p);
  const la::Vector b(op.rows(), 1.0);
  EXPECT_THROW(
      solvers::debias_on_support(op, b, la::Vector(op.cols() + 1, 1.0)),
      CheckError);
  EXPECT_THROW(
      solvers::debias_on_support(op, la::Vector(op.rows() + 2, 1.0),
                                 la::Vector(op.cols(), 1.0)),
      CheckError);
}

}  // namespace
