#include "dsp/dct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dsp/basis.hpp"
#include "la/decomp.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kTestPi = 3.1415926535897932384626433832795;

la::Vector random_vector(std::size_t n, Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

la::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  la::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

TEST(Dct, MatrixIsOrthonormal) {
  for (std::size_t n : {1u, 2u, 5u, 8u, 16u, 32u}) {
    const la::Matrix d = dct_matrix(n);
    EXPECT_LT(la::max_abs_diff(la::gram(d), la::Matrix::identity(n)), 1e-12)
        << "n=" << n;
  }
}

TEST(Dct, ForwardMatchesMatrixForm) {
  Rng rng(1);
  const la::Vector x = random_vector(16, rng);
  const la::Vector x1 = dct1d(x);
  const la::Vector x2 = matvec(dct_matrix(16), x);
  EXPECT_LT(la::max_abs_diff(x1, x2), 1e-12);
}

TEST(Dct, RoundTrip1D) {
  Rng rng(2);
  for (std::size_t n : {1u, 3u, 7u, 16u, 33u}) {
    const la::Vector x = random_vector(n, rng);
    EXPECT_LT(la::max_abs_diff(idct1d(dct1d(x)), x), 1e-11) << "n=" << n;
  }
}

TEST(Dct, ParsevalEnergyPreserved) {
  Rng rng(3);
  const la::Vector x = random_vector(24, rng);
  EXPECT_NEAR(dct1d(x).norm2(), x.norm2(), 1e-11);
}

TEST(Dct, ConstantSignalConcentratesInDc) {
  la::Vector x(16, 2.0);
  const la::Vector c = dct1d(x);
  EXPECT_NEAR(c[0], 2.0 * std::sqrt(16.0), 1e-12);
  for (std::size_t i = 1; i < 16; ++i) EXPECT_NEAR(c[i], 0.0, 1e-12);
}

TEST(Dct, CosineConcentratesInSingleBin) {
  // x[n] = cos(pi (2n+1) u0 / 2N) is exactly the u0-th DCT atom.
  const std::size_t n = 32, u0 = 5;
  la::Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(kTestPi * (2.0 * i + 1.0) * u0 / (2.0 * n));
  const la::Vector c = dct1d(x);
  for (std::size_t u = 0; u < n; ++u) {
    if (u == u0)
      EXPECT_GT(std::fabs(c[u]), 1.0);
    else
      EXPECT_NEAR(c[u], 0.0, 1e-10);
  }
}

TEST(Dct, RoundTrip2D) {
  Rng rng(4);
  for (auto [r, c] : {std::pair<std::size_t, std::size_t>{4, 4},
                      {8, 5},
                      {5, 8},
                      {32, 32},
                      {100, 33}}) {
    const la::Matrix img = random_matrix(r, c, rng);
    EXPECT_LT(la::max_abs_diff(synthesize(BasisKind::kDct2D,
                                          analyze(BasisKind::kDct2D, img)),
                               img),
              1e-10)
        << r << "x" << c;
  }
}

TEST(Dct, TwoDEnergyPreserved) {
  Rng rng(5);
  const la::Matrix img = random_matrix(16, 12, rng);
  EXPECT_NEAR(analyze(BasisKind::kDct2D, img).norm_fro(), img.norm_fro(),
              1e-10);
}

TEST(Dct, TwoDSeparability) {
  // 2-D DCT of an outer product is the outer product of 1-D DCTs.
  Rng rng(6);
  const la::Vector u = random_vector(8, rng);
  const la::Vector v = random_vector(6, rng);
  la::Matrix outer(8, 6);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 6; ++j) outer(i, j) = u[i] * v[j];
  const la::Matrix c2 = analyze(BasisKind::kDct2D, outer);
  const la::Vector cu = dct1d(u);
  const la::Vector cv = dct1d(v);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(c2(i, j), cu[i] * cv[j], 1e-11);
}

TEST(Dct, EmptyInputsThrow) {
  EXPECT_THROW(dct1d(la::Vector{}), CheckError);
  EXPECT_THROW(analyze(BasisKind::kDct2D, la::Matrix{}), CheckError);
  EXPECT_THROW(dct_matrix(0), CheckError);
}

}  // namespace
}  // namespace flexcs::dsp
