#include "la/decomp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexcs::la {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix a = random_matrix(n + 3, n, rng);
  Matrix g = gram(a);
  for (std::size_t i = 0; i < n; ++i) g(i, i) += 0.5;
  return g;
}

TEST(Cholesky, ReconstructsSpdMatrix) {
  Rng rng(1);
  const Matrix a = random_spd(8, rng);
  const Matrix l = cholesky(a);
  EXPECT_LT(max_abs_diff(matmul_a_bt(l, l), a), 1e-10);
}

TEST(Cholesky, FactorIsLowerTriangular) {
  Rng rng(2);
  const Matrix l = cholesky(random_spd(6, rng));
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = r + 1; c < 6; ++c) EXPECT_DOUBLE_EQ(l(r, c), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(m), CheckError);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), CheckError);
}

TEST(Cholesky, SolveMatchesDirectSolve) {
  Rng rng(3);
  const Matrix a = random_spd(10, rng);
  Vector b(10);
  for (auto& v : b) v = rng.normal();
  const Vector x = cholesky_solve(cholesky(a), b);
  EXPECT_LT((matvec(a, x) - b).norm2(), 1e-9);
}

TEST(Lu, SolvesRandomSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = random_matrix(12, 12, rng);
    Vector b(12);
    for (auto& v : b) v = rng.normal();
    const Vector x = solve(a, b);
    EXPECT_LT((matvec(a, x) - b).norm2(), 1e-8);
  }
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(lu_decompose(a), CheckError);
}

TEST(TriangularSolve, UpperAndLower) {
  Matrix u{{2.0, 1.0}, {0.0, 4.0}};
  const Vector xu = solve_upper(u, Vector{4.0, 8.0});
  EXPECT_NEAR(xu[1], 2.0, 1e-14);
  EXPECT_NEAR(xu[0], 1.0, 1e-14);

  Matrix l{{3.0, 0.0}, {1.0, 2.0}};
  const Vector xl = solve_lower(l, Vector{6.0, 6.0});
  EXPECT_NEAR(xl[0], 2.0, 1e-14);
  EXPECT_NEAR(xl[1], 2.0, 1e-14);

  const Vector xlu = solve_lower(l, Vector{6.0, 6.0}, /*unit_diagonal=*/true);
  EXPECT_NEAR(xlu[0], 6.0, 1e-14);
  EXPECT_NEAR(xlu[1], 0.0, 1e-14);
}

// Parameterized property sweep: LU across sizes.
class DecompSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecompSizes, LuSolveResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_matrix(n, n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const Vector x = solve(a, b);
  EXPECT_LT((matvec(a, x) - b).norm2() / b.norm2(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DecompSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace flexcs::la
