#include "dsp/wavelet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "la/decomp.hpp"

namespace flexcs::dsp {
namespace {

la::Vector random_vector(std::size_t n, Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(Haar, MaxLevels) {
  EXPECT_EQ(max_haar_levels(1), 0u);
  EXPECT_EQ(max_haar_levels(2), 1u);
  EXPECT_EQ(max_haar_levels(12), 2u);
  EXPECT_EQ(max_haar_levels(32), 5u);
  EXPECT_EQ(max_haar_levels(33), 0u);
}

TEST(Haar, RoundTrip1D) {
  Rng rng(1);
  for (std::size_t n : {2u, 8u, 32u, 64u}) {
    const la::Vector x = random_vector(n, rng);
    for (std::size_t lev = 1; lev <= max_haar_levels(n); ++lev) {
      EXPECT_LT(la::max_abs_diff(ihaar1d(haar1d(x, lev), lev), x), 1e-12)
          << "n=" << n << " levels=" << lev;
    }
  }
}

TEST(Haar, EnergyPreserved1D) {
  Rng rng(2);
  const la::Vector x = random_vector(32, rng);
  EXPECT_NEAR(haar1d(x, 3).norm2(), x.norm2(), 1e-12);
}

TEST(Haar, ConstantSignalIsSingleCoefficient) {
  la::Vector x(16, 3.0);
  const la::Vector c = haar1d(x, 4);
  EXPECT_NEAR(c[0], 3.0 * std::sqrt(16.0), 1e-12);
  for (std::size_t i = 1; i < 16; ++i) EXPECT_NEAR(c[i], 0.0, 1e-12);
}

TEST(Haar, StepSignalIsSparse) {
  // A step aligned to the dyadic grid needs only approximation + a handful
  // of detail coefficients.
  la::Vector x(16, 0.0);
  for (std::size_t i = 8; i < 16; ++i) x[i] = 1.0;
  const la::Vector c = haar1d(x, 4);
  std::size_t nonzero = 0;
  for (double v : c)
    if (std::fabs(v) > 1e-12) ++nonzero;
  EXPECT_LE(nonzero, 2u);
}

TEST(Haar, TooManyLevelsThrows) {
  la::Vector x(6, 0.0);
  EXPECT_THROW(haar1d(x, 2), CheckError);  // 6 = 2 * 3, only 1 level
}

TEST(Haar, RoundTrip2D) {
  Rng rng(3);
  la::Matrix img(16, 8);
  for (std::size_t i = 0; i < img.size(); ++i) img.data()[i] = rng.normal();
  for (std::size_t lev = 1; lev <= 3; ++lev) {
    EXPECT_LT(la::max_abs_diff(ihaar2d(haar2d(img, lev), lev), img), 1e-12)
        << "levels=" << lev;
  }
}

TEST(Haar, EnergyPreserved2D) {
  Rng rng(4);
  la::Matrix img(8, 8);
  for (std::size_t i = 0; i < img.size(); ++i) img.data()[i] = rng.normal();
  EXPECT_NEAR(haar2d(img, 3).norm_fro(), img.norm_fro(), 1e-12);
}

TEST(Haar, MatrixFormIsOrthonormal) {
  // H's columns are haar1d of the unit impulses (coeffs = H x).
  const std::size_t n = 16;
  la::Matrix h(n, n);
  la::Vector e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e.fill(0.0);
    e[c] = 1.0;
    h.set_col(c, haar1d(e, 2));
  }
  EXPECT_LT(la::max_abs_diff(la::gram(h), la::Matrix::identity(n)), 1e-12);
}

}  // namespace
}  // namespace flexcs::dsp
