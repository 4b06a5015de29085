#include "la/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "la/decomp.hpp"

namespace flexcs::la {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

Matrix low_rank(std::size_t m, std::size_t n, std::size_t rank, Rng& rng) {
  return matmul(random_matrix(m, rank, rng), random_matrix(rank, n, rng));
}

TEST(Svd, ReconstructsTallMatrix) {
  Rng rng(1);
  const Matrix a = random_matrix(10, 6, rng);
  const SvdResult r = svd(a);
  EXPECT_LT(max_abs_diff(svd_reconstruct(r), a), 1e-9);
}

TEST(Svd, ReconstructsWideMatrix) {
  Rng rng(2);
  const Matrix a = random_matrix(5, 12, rng);
  const SvdResult r = svd(a);
  EXPECT_EQ(r.u.rows(), 5u);
  EXPECT_EQ(r.v.rows(), 12u);
  EXPECT_LT(max_abs_diff(svd_reconstruct(r), a), 1e-9);
}

TEST(Svd, SingularValuesDescendingNonNegative) {
  Rng rng(3);
  const SvdResult r = svd(random_matrix(8, 8, rng));
  for (std::size_t i = 0; i < r.s.size(); ++i) {
    EXPECT_GE(r.s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(r.s[i], r.s[i - 1] + 1e-12);
    }
  }
}

TEST(Svd, FactorsAreOrthonormal) {
  Rng rng(4);
  const SvdResult r = svd(random_matrix(9, 5, rng));
  EXPECT_LT(max_abs_diff(gram(r.u), Matrix::identity(5)), 1e-9);
  EXPECT_LT(max_abs_diff(gram(r.v), Matrix::identity(5)), 1e-9);
}

TEST(Svd, MatchesKnownDiagonal) {
  const Matrix d = Matrix::diagonal(Vector{3.0, 1.0, 2.0});
  const SvdResult r = svd(d);
  EXPECT_NEAR(r.s[0], 3.0, 1e-12);
  EXPECT_NEAR(r.s[1], 2.0, 1e-12);
  EXPECT_NEAR(r.s[2], 1.0, 1e-12);
}

TEST(Svd, TopSingularValueMatchesSpectralNorm) {
  Rng rng(5);
  const Matrix a = random_matrix(12, 7, rng);
  const SvdResult r = svd(a);
  EXPECT_NEAR(r.s[0], spectral_norm(a), 1e-6 * r.s[0]);
}

TEST(Svd, SquaredValuesSumToFrobenius) {
  Rng rng(6);
  const Matrix a = random_matrix(7, 7, rng);
  const SvdResult r = svd(a);
  double s2 = 0.0;
  for (double s : r.s) s2 += s * s;
  EXPECT_NEAR(std::sqrt(s2), a.norm_fro(), 1e-9);
}

TEST(Svd, RankDeficientHasZeroTail) {
  Rng rng(7);
  const Matrix a = low_rank(10, 8, 3, rng);
  const SvdResult r = svd(a);
  for (std::size_t i = 3; i < r.s.size(); ++i) EXPECT_LT(r.s[i], 1e-9);
  EXPECT_LT(max_abs_diff(svd_reconstruct(r), a), 1e-8);
}

TEST(Svd, EffectiveRankDetectsLowRank) {
  Rng rng(8);
  EXPECT_EQ(effective_rank(low_rank(12, 10, 4, rng)), 4u);
  EXPECT_EQ(effective_rank(Matrix(5, 5, 0.0)), 0u);
  EXPECT_EQ(effective_rank(Matrix::identity(6)), 6u);
}

TEST(Svd, EmptyThrows) { EXPECT_THROW(svd(Matrix{}), CheckError); }

TEST(SvShrink, ZeroTauIsIdentity) {
  Rng rng(9);
  const Matrix a = random_matrix(6, 6, rng);
  EXPECT_LT(max_abs_diff(sv_shrink(a, 0.0), a), 1e-9);
}

TEST(SvShrink, LargeTauGivesZero) {
  Rng rng(10);
  const Matrix a = random_matrix(6, 6, rng);
  const SvdResult r = svd(a);
  std::size_t rank = 99;
  const Matrix z = sv_shrink(a, r.s[0] + 1.0, &rank);
  EXPECT_EQ(rank, 0u);
  EXPECT_LT(z.norm_max(), 1e-9);
}

TEST(SvShrink, ShrinksEachSingularValue) {
  Rng rng(11);
  const Matrix a = random_matrix(8, 6, rng);
  const double tau = 0.5;
  const SvdResult before = svd(a);
  const SvdResult after = svd(sv_shrink(a, tau));
  for (std::size_t i = 0; i < after.s.size(); ++i) {
    const double expected = std::max(0.0, before.s[i] - tau);
    EXPECT_NEAR(after.s[i], expected, 1e-8);
  }
}

class SvdShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdShapes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Rng rng(300 + m * 31 + n);
  const Matrix a = random_matrix(m, n, rng);
  const SvdResult r = svd(a);
  const std::size_t k = std::min(m, n);
  EXPECT_EQ(r.s.size(), k);
  EXPECT_LT(max_abs_diff(svd_reconstruct(r), a), 1e-8);
  EXPECT_LT(max_abs_diff(gram(r.u), Matrix::identity(k)), 1e-8);
  EXPECT_LT(max_abs_diff(gram(r.v), Matrix::identity(k)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 7),
                      std::make_pair<std::size_t, std::size_t>(7, 1),
                      std::make_pair<std::size_t, std::size_t>(4, 4),
                      std::make_pair<std::size_t, std::size_t>(16, 9),
                      std::make_pair<std::size_t, std::size_t>(9, 16),
                      std::make_pair<std::size_t, std::size_t>(32, 32)));

}  // namespace
}  // namespace flexcs::la
