// Operator test harness: the adjoint dot-product property
// <A x, y> == <x, A^T y> is what every matrix-free solver in the library
// leans on (a wrong adjoint makes gradients silently point the wrong way),
// so it is verified here for both operator families across geometries,
// together with entry-wise equivalence against the dense Ψ path, the
// tight-frame contract behind the exact operator norm, and the CG kernel.
#include "la/operator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "cs/decoder.hpp"
#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "dsp/basis.hpp"
#include "golden.hpp"
#include "la/matrix.hpp"
#include "runtime/deadline.hpp"
#include "solvers/fista.hpp"

namespace flexcs::cs {
namespace {

la::Vector random_vector(std::size_t n, Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

la::Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  return a;
}

// |<A x, y> - <x, A^T y>| over a batch of random probe pairs.
double adjoint_mismatch(const la::LinearOperator& a, Rng& rng, int trials) {
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    const la::Vector x = random_vector(a.cols(), rng);
    const la::Vector y = random_vector(a.rows(), rng);
    const double lhs = la::dot(a.apply(x), y);
    const double rhs = la::dot(x, a.apply_adjoint(y));
    worst = std::max(worst, std::fabs(lhs - rhs));
  }
  return worst;
}

struct Geometry {
  std::size_t rows, cols;
  double fraction;
  dsp::BasisKind basis;
};

class AdjointProperty : public ::testing::TestWithParam<Geometry> {};

TEST_P(AdjointProperty, SubsampledTransformSatisfiesDotProductIdentity) {
  const Geometry g = GetParam();
  Rng rng(0xAD501 ^ (g.rows * 131 + g.cols * 17));
  const SamplingPattern p = random_pattern(g.rows, g.cols, g.fraction, rng);
  const SubsampledTransformOperator op(g.basis, p);
  ASSERT_EQ(op.rows(), p.m());
  ASSERT_EQ(op.cols(), p.n());
  EXPECT_LT(adjoint_mismatch(op, rng, 8), 1e-10);
}

TEST_P(AdjointProperty, DenseOperatorSatisfiesDotProductIdentity) {
  const Geometry g = GetParam();
  Rng rng(0xAD502 ^ (g.rows * 131 + g.cols * 17));
  const std::size_t m =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   g.fraction *
                                   static_cast<double>(g.rows * g.cols)));
  const la::DenseOperator op(random_matrix(m, g.rows * g.cols, rng));
  EXPECT_LT(adjoint_mismatch(op, rng, 8), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AdjointProperty,
    ::testing::Values(
        Geometry{8, 8, 0.5, dsp::BasisKind::kDct2D},
        Geometry{8, 12, 0.4, dsp::BasisKind::kDct2D},
        Geometry{12, 8, 0.6, dsp::BasisKind::kDct2D},
        Geometry{16, 16, 0.3, dsp::BasisKind::kDct2D},
        Geometry{5, 7, 0.8, dsp::BasisKind::kDct2D},
        Geometry{32, 32, 0.25, dsp::BasisKind::kDct2D},
        // Odd dims exercise the folded kernel's middle sample, mixed dims
        // its two plan sizes; 64x64 the largest pow2 side on both axes.
        Geometry{17, 33, 0.5, dsp::BasisKind::kDct2D},
        Geometry{64, 64, 0.2, dsp::BasisKind::kDct2D},
        Geometry{8, 8, 0.5, dsp::BasisKind::kHaar2D},
        Geometry{16, 8, 0.4, dsp::BasisKind::kHaar2D},
        Geometry{32, 16, 0.5, dsp::BasisKind::kHaar2D}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return dsp::to_string(info.param.basis) + "_" +
             std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

TEST(SubsampledTransformOperator, MatchesDensePsiRowSelectionEntrywise) {
  // The implicit operator must be *the same linear map* as Φ_M·Ψ built
  // densely, not merely adjoint-consistent — compare every entry.
  for (const auto basis : {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
    Rng rng(0xE0E0 + static_cast<unsigned>(basis));
    const std::size_t rows = 8, cols = 8;
    const SamplingPattern p = random_pattern(rows, cols, 0.5, rng);
    const SubsampledTransformOperator op(basis, p);
    const la::Matrix dense_a = golden::measurement_matrix(basis, p);
    EXPECT_LT(la::max_abs_diff(la::to_dense(op), dense_a), 1e-12)
        << dsp::to_string(basis);
  }
}

TEST(SubsampledTransformOperator, NormBoundIsValidAndNearlyTight) {
  Rng rng(0x51617);
  const SamplingPattern p = random_pattern(12, 12, 0.5, rng);
  const SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const double sigma = la::operator_norm_estimate(op);
  EXPECT_GT(sigma, 0.5);               // half the pixels sampled
  EXPECT_LE(sigma, op.norm_upper_bound() + 1e-9);
  EXPECT_DOUBLE_EQ(op.norm_upper_bound(), 1.0);
}

TEST(SubsampledTransformOperator, IsATightFrameWithExactNormBound) {
  // A = Φ_M·Ψ with orthonormal Ψ is a tight frame: A·Aᵀ = I_M, so every
  // singular value is exactly 1 and norm_upper_bound() is sigma_max itself —
  // the value the decoder hands FISTA instead of running a power iteration.
  struct Grid { std::size_t rows, cols; };
  for (const auto basis : {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
    for (const Grid g : {Grid{20, 20}, Grid{36, 36}, Grid{16, 8}}) {
      Rng rng(0x7167 + g.rows * 59 + g.cols + static_cast<unsigned>(basis));
      std::vector<SamplingPattern> patterns;
      patterns.push_back({g.rows, g.cols, {g.rows * g.cols / 2 + 3}});
      for (const double fraction : {0.1, 0.5, 1.0})
        patterns.push_back(random_pattern(g.rows, g.cols, fraction, rng));
      for (const SamplingPattern& p : patterns) {
        const SubsampledTransformOperator op(basis, p);
        const la::Vector y = random_vector(op.rows(), rng);
        EXPECT_LE(la::max_abs_diff(op.apply(op.apply_adjoint(y)), y), 1e-12)
            << dsp::to_string(basis) << " " << g.rows << "x" << g.cols
            << " m=" << p.m();
        EXPECT_NEAR(la::operator_norm_estimate(op), op.norm_upper_bound(),
                    1e-12)
            << dsp::to_string(basis) << " " << g.rows << "x" << g.cols
            << " m=" << p.m();
      }
    }
  }
}

TEST(DecoderNormHint, FarFutureDeadlineDecodesBitIdenticallyToNone) {
  // With no deadline FISTA's own setup would run the fixed power iteration;
  // with one it runs the early-exit iteration clamped to the operator's
  // bound. The decoder hands both the same exact sigma, so a deadline that
  // never fires must not change a single bit of the decode.
  struct Case { dsp::BasisKind basis; std::size_t rows, cols; };
  const auto fista = std::make_shared<solvers::FistaSolver>();
  for (const Case c : {Case{dsp::BasisKind::kDct2D, 20, 20},
                       Case{dsp::BasisKind::kDct2D, 36, 36},
                       Case{dsp::BasisKind::kHaar2D, 16, 16}}) {
    DecoderOptions opts;
    opts.basis = c.basis;
    const Decoder decoder(c.rows, c.cols, opts, fista);
    Rng rng(0xDEAD + c.rows);
    const SamplingPattern p = random_pattern(c.rows, c.cols, 0.5, rng);
    la::Vector y(p.m());
    for (std::size_t k = 0; k < p.m(); ++k) {
      const double r = static_cast<double>(p.indices[k] / c.cols);
      const double col = static_cast<double>(p.indices[k] % c.cols);
      y[k] = 0.5 + 0.3 * std::sin(0.31 * r) * std::cos(0.17 * col) +
             (col > 0.6 * static_cast<double>(c.cols) ? 0.1 : 0.0);
    }

    DecoderOptions bounded = opts;
    bounded.solve.deadline = runtime::Deadline::after(3600.0);
    const DecodeResult plain = decoder.decode(p, y);
    const DecodeResult timed = decoder.decode_with(p, y, *fista, bounded);
    const std::string where = dsp::to_string(c.basis) + " " +
                              std::to_string(c.rows) + "x" +
                              std::to_string(c.cols);
    EXPECT_FALSE(timed.deadline_expired) << where;
    EXPECT_EQ(plain.solver_iterations, timed.solver_iterations) << where;
    EXPECT_EQ(plain.converged, timed.converged) << where;
    EXPECT_EQ(plain.residual_norm, timed.residual_norm) << where;
    ASSERT_EQ(plain.frame.size(), timed.frame.size()) << where;
    EXPECT_EQ(0, std::memcmp(plain.frame.data(), timed.frame.data(),
                             plain.frame.size() * sizeof(double)))
        << where;
  }
}

// Records whether each solve was told a support re-fit follows.
class RefitFlagRecorder final : public solvers::SparseSolver {
 public:
  std::string name() const override { return inner_.name(); }
  const std::vector<bool>& flags() const { return flags_; }

 protected:
  solvers::SolveResult solve_impl(
      const la::LinearOperator& a, const la::Vector& b,
      const solvers::SolveOptions& ctrl) const override {
    flags_.push_back(ctrl.refit_on_support);
    return inner_.solve(a, b, ctrl);
  }

 private:
  solvers::FistaSolver inner_;
  mutable std::vector<bool> flags_;
};

TEST(DecoderRefitFlag, SetExactlyWhenTheDecodeDebiases) {
  // A decode without the re-fit must never let the solver stop on the
  // re-fit's account, even when the caller's SolveOptions claim otherwise.
  const Decoder decoder(20, 20);
  Rng rng(0xF1A6);
  const SamplingPattern p = random_pattern(20, 20, 0.5, rng);
  la::Vector y(p.m());
  for (double& v : y) v = rng.uniform();
  const RefitFlagRecorder recorder;

  DecoderOptions plain;
  plain.debias = false;
  DecoderOptions claimed = plain;
  claimed.solve.refit_on_support = true;
  DecoderOptions debiased;
  debiased.debias = true;
  decoder.decode_with(p, y, recorder, plain);
  decoder.decode_with(p, y, recorder, claimed);
  decoder.decode_with(p, y, recorder, debiased);
  EXPECT_EQ(recorder.flags(), (std::vector<bool>{false, false, true}));
}

TEST(NormalApply, TransformOperatorMatchesAdjointOfApplyBitForBit) {
  // The fused Aᵀ·A·x must return exactly the bits of the two applies: a
  // wrapping operator that does not forward it (perfbench's timing
  // decorator) takes the default path, and the traced and untraced decodes
  // must stay bit-identical.
  struct Case { dsp::BasisKind basis; std::size_t rows, cols; double f; };
  for (const Case c : {Case{dsp::BasisKind::kDct2D, 20, 20, 0.5},
                       Case{dsp::BasisKind::kDct2D, 36, 36, 0.5},
                       Case{dsp::BasisKind::kDct2D, 32, 32, 0.3},
                       Case{dsp::BasisKind::kDct2D, 12, 20, 0.9},
                       Case{dsp::BasisKind::kHaar2D, 16, 16, 0.5},
                       Case{dsp::BasisKind::kHaar2D, 36, 36, 0.25},
                       Case{dsp::BasisKind::kHaar2D, 8, 24, 0.7}}) {
    Rng rng(0x0A7A + c.rows * 7 + c.cols);
    const SamplingPattern p = random_pattern(c.rows, c.cols, c.f, rng);
    const SubsampledTransformOperator op(c.basis, p);
    la::Vector sparse(op.cols(), 0.0);
    for (std::size_t i = 0; i < sparse.size(); i += 7) sparse[i] = rng.normal();
    const std::vector<la::Vector> probes = {
        random_vector(op.cols(), rng), random_vector(op.cols(), rng), sparse,
        la::Vector(op.cols(), 0.25), la::Vector(op.cols(), 0.0)};
    la::Vector fused;
    for (std::size_t k = 0; k < probes.size(); ++k) {
      op.apply_normal(probes[k], fused);
      const la::Vector twice = op.apply_adjoint(op.apply(probes[k]));
      const std::string where = dsp::to_string(c.basis) + " " +
                                std::to_string(c.rows) + "x" +
                                std::to_string(c.cols) + " probe " +
                                std::to_string(k);
      ASSERT_EQ(fused.size(), twice.size()) << where;
      EXPECT_EQ(la::max_abs_diff(fused, twice), 0.0) << where;
      EXPECT_EQ(0, std::memcmp(fused.data(), twice.data(),
                               twice.size() * sizeof(double)))
          << where;
    }
  }
}

TEST(NormalApply, DefaultIsAdjointOfApplyAndChecksShape) {
  Rng rng(0x0A7B);
  const la::Matrix a = random_matrix(6, 9, rng);
  const la::DenseOperator op(a);
  const la::Vector x = random_vector(9, rng);
  la::Vector out(3, 1.0);  // wrong size on entry: resized
  op.apply_normal(x, out);
  EXPECT_EQ(la::max_abs_diff(out, la::matvec_t(a, la::matvec(a, x))), 0.0);

  const SubsampledTransformOperator t(dsp::BasisKind::kDct2D,
                                      random_pattern(8, 8, 0.5, rng));
  EXPECT_THROW(t.apply_normal(la::Vector(7), out), CheckError);
}

// The power iteration as written before it reused its buffers: two fresh
// vectors per step, v = Aᵀ(A v) / ||Aᵀ(A v)||.
double allocating_norm_estimate(const la::LinearOperator& a, int iters) {
  la::Vector v(a.cols());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.001 * static_cast<double>(i % 17);
  v /= v.norm2();
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    const la::Vector w = a.apply_adjoint(a.apply(v));
    const double n = w.norm2();
    if (n == 0.0) return 0.0;
    v = w / n;
    sigma = std::sqrt(n);
  }
  return sigma;
}

TEST(OperatorNormEstimate, InPlaceStepsKeepTheAllocatingLoopsBits) {
  Rng rng(0x90E8);
  const la::DenseOperator dense(random_matrix(20, 35, rng));
  const SubsampledTransformOperator dct(dsp::BasisKind::kDct2D,
                                        random_pattern(12, 16, 0.5, rng));
  const SubsampledTransformOperator haar(dsp::BasisKind::kHaar2D,
                                         random_pattern(12, 16, 0.5, rng));
  for (const la::LinearOperator* op :
       std::vector<const la::LinearOperator*>{&dense, &dct, &haar}) {
    for (const int iters : {1, 7, 30}) {
      const double got = la::operator_norm_estimate(*op, iters);
      const double want = allocating_norm_estimate(*op, iters);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
          << iters << " steps: " << got << " vs " << want;
    }
  }
}

TEST(DenseOperator, NormEstimateMatchesSpectralNormBitForBit) {
  Rng rng(0x5B11);
  const la::Matrix a = random_matrix(20, 35, rng);
  const la::DenseOperator op(a);
  EXPECT_EQ(la::operator_norm_estimate(op), la::spectral_norm(a));
  EXPECT_DOUBLE_EQ(op.norm_upper_bound(), a.norm_fro());
}

TEST(DenseOperator, BorrowedAndOwnedAgree) {
  Rng rng(0xB0B0);
  const la::Matrix a = random_matrix(6, 9, rng);
  const la::DenseOperator owned(a);
  const la::DenseOperator view = la::DenseOperator::borrowed(a);
  const la::Vector x = random_vector(9, rng);
  const la::Vector y = random_vector(6, rng);
  EXPECT_EQ(la::max_abs_diff(owned.apply(x), view.apply(x)), 0.0);
  EXPECT_EQ(la::max_abs_diff(owned.apply_adjoint(y), view.apply_adjoint(y)),
            0.0);
  ASSERT_NE(view.dense(), nullptr);
  EXPECT_EQ(view.dense(), &a);  // borrowed mode never copies
}

TEST(OperatorChecks, ShapeMismatchesThrow) {
  Rng rng(0xBAD5);
  const SamplingPattern p = random_pattern(8, 8, 0.5, rng);
  const SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  EXPECT_THROW(op.apply(la::Vector(op.cols() + 1, 0.0)), CheckError);
  EXPECT_THROW(op.apply_adjoint(la::Vector(op.rows() + 1, 0.0)), CheckError);
  const la::DenseOperator d(random_matrix(4, 6, rng));
  EXPECT_THROW(d.apply(la::Vector(7, 0.0)), CheckError);
  EXPECT_THROW(d.apply_adjoint(la::Vector(5, 0.0)), CheckError);
}

TEST(OperatorChecks, InvalidPatternsThrowAtConstruction) {
  SamplingPattern p;
  p.rows = 4;
  p.cols = 4;
  EXPECT_THROW(SubsampledTransformOperator(dsp::BasisKind::kDct2D, p),
               CheckError);  // empty index set
  p.indices = {0, 2, 16};    // out of range for a 4x4 grid
  EXPECT_THROW(SubsampledTransformOperator(dsp::BasisKind::kDct2D, p),
               CheckError);
  p.indices = {0, 2, 2};     // not strictly increasing
  EXPECT_THROW(SubsampledTransformOperator(dsp::BasisKind::kDct2D, p),
               CheckError);
  p.indices = {0, 2, 5};
  p.rows = 0;                // empty grid
  EXPECT_THROW(SubsampledTransformOperator(dsp::BasisKind::kDct2D, p),
               CheckError);
  p.rows = 5;                // 5x4 is not dyadic: Haar must reject it
  p.cols = 5;
  EXPECT_THROW(SubsampledTransformOperator(dsp::BasisKind::kHaar2D, p),
               CheckError);
}

TEST(CgSolve, SolvesSpdSystemAndHonoursWarmStart) {
  Rng rng(0xC6C6);
  const la::Matrix a = random_matrix(12, 12, rng);
  // S = A^T A + I is SPD.
  const auto apply_spd = [&a](const la::Vector& v, la::Vector& out) {
    out = la::matvec_t(a, la::matvec(a, v));
    out += v;
  };
  const la::Vector x_true = random_vector(12, rng);
  la::Vector b(12);
  apply_spd(x_true, b);

  const la::CgResult cold = la::cg_solve(apply_spd, b);
  EXPECT_TRUE(cold.converged);
  EXPECT_LT(la::max_abs_diff(cold.x, x_true), 1e-8);

  // Warm-started from the exact solution, CG must accept immediately.
  const la::CgResult warm = la::cg_solve(apply_spd, b, {}, x_true);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0);
}

TEST(CgSolve, StopCallbackReturnsFiniteIterate) {
  Rng rng(0xC7C7);
  const la::Matrix a = random_matrix(10, 10, rng);
  const auto apply_spd = [&a](const la::Vector& v, la::Vector& out) {
    out = la::matvec_t(a, la::matvec(a, v));
    out += v;
  };
  const la::Vector b = random_vector(10, rng);
  la::CgOptions opts;
  int polls = 0;
  opts.should_stop = [&polls] { return ++polls > 2; };
  const la::CgResult r = la::cg_solve(apply_spd, b, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 2);
  EXPECT_TRUE(la::all_finite(r.x));
}

TEST(ToDense, RoundTripsDenseOperator) {
  Rng rng(0x70D3);
  const la::Matrix a = random_matrix(5, 8, rng);
  EXPECT_EQ(la::max_abs_diff(la::to_dense(la::DenseOperator::borrowed(a)), a),
            0.0);
}

TEST(ApplyStats, MetersEveryApplyAndAdjoint) {
  Rng rng(0x57A7);
  const SamplingPattern p = random_pattern(16, 16, 0.4, rng);
  const SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const auto before = op.apply_stats();
  EXPECT_EQ(before.applies, 0u);
  EXPECT_EQ(before.adjoints, 0u);

  const la::Vector x = random_vector(op.cols(), rng);
  const la::Vector y = random_vector(op.rows(), rng);
  op.apply(x);
  op.apply(x);
  op.apply_adjoint(y);
  op.apply_batch({x, x, x});
  op.apply_adjoint_batch({y, y});
  la::Vector normal;
  op.apply_normal(x, normal);  // one apply and one adjoint

  const auto after = op.apply_stats();
  EXPECT_EQ(after.applies, 6u);
  EXPECT_EQ(after.adjoints, 4u);
  EXPECT_GE(after.apply_seconds, 0.0);
  EXPECT_GE(after.adjoint_seconds, 0.0);
}

TEST(BatchApply, MatchesPerFrameAppliesExactly) {
  // The batched applies loop the single applies — the per-frame numbers
  // must be the single-apply numbers, bit for bit, in both bases.
  for (const auto basis : {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
    Rng rng(0xBA7C + static_cast<unsigned>(basis));
    const SamplingPattern p = random_pattern(16, 16, 0.5, rng);
    const SubsampledTransformOperator op(basis, p);

    std::vector<la::Vector> xs, ys;
    for (int f = 0; f < 4; ++f) {
      xs.push_back(random_vector(op.cols(), rng));
      ys.push_back(random_vector(op.rows(), rng));
    }
    const std::vector<la::Vector> batched = op.apply_batch(xs);
    const std::vector<la::Vector> adj_batched = op.apply_adjoint_batch(ys);
    ASSERT_EQ(batched.size(), xs.size());
    ASSERT_EQ(adj_batched.size(), ys.size());
    for (std::size_t f = 0; f < xs.size(); ++f) {
      EXPECT_EQ(la::max_abs_diff(batched[f], op.apply(xs[f])), 0.0)
          << dsp::to_string(basis) << " frame " << f;
      EXPECT_EQ(la::max_abs_diff(adj_batched[f], op.apply_adjoint(ys[f])),
                0.0)
          << dsp::to_string(basis) << " frame " << f;
    }
  }
}

TEST(BatchApply, ShapeMismatchAnywhereInBatchThrows) {
  Rng rng(0xBA7D);
  const SamplingPattern p = random_pattern(8, 8, 0.5, rng);
  const SubsampledTransformOperator op(dsp::BasisKind::kDct2D, p);
  const la::Vector good_x(op.cols(), 0.0);
  EXPECT_THROW(op.apply_batch({good_x, la::Vector(op.cols() + 1, 0.0)}),
               CheckError);
  const la::Vector good_y(op.rows(), 0.0);
  EXPECT_THROW(
      op.apply_adjoint_batch({good_y, la::Vector(op.rows() - 1, 0.0)}),
      CheckError);
}

}  // namespace
}  // namespace flexcs::cs
