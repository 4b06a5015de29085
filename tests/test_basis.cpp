#include "dsp/basis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/wavelet.hpp"
#include "la/decomp.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kTestPi = 3.1415926535897932384626433832795;

la::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  la::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

class BasisKinds : public ::testing::TestWithParam<BasisKind> {};

TEST_P(BasisKinds, SynthesisMatrixIsOrthonormal) {
  const la::Matrix psi = synthesis_matrix(GetParam(), 8, 8);
  EXPECT_LT(la::max_abs_diff(la::gram(psi), la::Matrix::identity(64)), 1e-10);
}

TEST_P(BasisKinds, AnalyzeSynthesizeRoundTrip) {
  Rng rng(7);
  const la::Matrix frame = random_matrix(8, 8, rng);
  const la::Matrix coeffs = analyze(GetParam(), frame);
  EXPECT_LT(la::max_abs_diff(synthesize(GetParam(), coeffs), frame), 1e-10);
}

TEST_P(BasisKinds, MatrixAgreesWithFastTransform) {
  Rng rng(8);
  const la::Matrix frame = random_matrix(8, 8, rng);
  const la::Matrix psi = synthesis_matrix(GetParam(), 8, 8);
  // y = Psi x  <=>  frame = synthesize(coeffs)
  const la::Matrix coeffs = analyze(GetParam(), frame);
  const la::Vector y = matvec(psi, coeffs.flatten());
  EXPECT_LT(la::max_abs_diff(y, frame.flatten()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BasisKinds,
                         ::testing::Values(BasisKind::kDct2D,
                                           BasisKind::kHaar2D));

TEST(Basis, DctSupportsRectangularArrays) {
  Rng rng(9);
  const la::Matrix frame = random_matrix(10, 6, rng);
  const la::Matrix psi = synthesis_matrix(BasisKind::kDct2D, 10, 6);
  EXPECT_LT(la::max_abs_diff(la::gram(psi), la::Matrix::identity(60)), 1e-10);
  const la::Vector y = matvec(psi, analyze(BasisKind::kDct2D, frame).flatten());
  EXPECT_LT(la::max_abs_diff(y, frame.flatten()), 1e-10);
}

TEST(Basis, DctMatrixMatchesPaperEq5) {
  // Spot-check Eq. 5 of the paper for a square array: the (pixel, coeff)
  // entry is alpha_u beta_v cos(...) cos(...).
  const std::size_t side = 4;
  const la::Matrix psi = synthesis_matrix(BasisKind::kDct2D, side, side);
  const double n_sqrt = static_cast<double>(side);
  for (std::size_t a = 1; a <= side; ++a) {
    for (std::size_t b = 1; b <= side; ++b) {
      for (std::size_t u = 1; u <= side; ++u) {
        for (std::size_t v = 1; v <= side; ++v) {
          const double alpha =
              u == 1 ? std::sqrt(1.0 / n_sqrt) : std::sqrt(2.0 / n_sqrt);
          const double beta =
              v == 1 ? std::sqrt(1.0 / n_sqrt) : std::sqrt(2.0 / n_sqrt);
          const double expected =
              alpha * beta *
              std::cos(kTestPi * (2.0 * a - 1.0) * (u - 1.0) / (2.0 * n_sqrt)) *
              std::cos(kTestPi * (2.0 * b - 1.0) * (v - 1.0) / (2.0 * n_sqrt));
          const std::size_t pix = (a - 1) * side + (b - 1);
          const std::size_t coef = (u - 1) * side + (v - 1);
          EXPECT_NEAR(psi(pix, coef), expected, 1e-12);
        }
      }
    }
  }
}

TEST(Basis, HaarRequiresEvenDims) {
  EXPECT_THROW(synthesis_matrix(BasisKind::kHaar2D, 5, 5),
               flexcs::CheckError);
}

TEST(BasisTransform, SquareGridBuildsOnePlanForBothAxes) {
  // The 1-D plan depends only on its length, so a square grid's row and
  // column axes share one; a rectangular grid keeps one plan per axis.
  EXPECT_EQ(BasisTransform(BasisKind::kDct2D, 32, 32).memory_bytes(),
            Dct1dPlan(32).memory_bytes());
  EXPECT_EQ(BasisTransform(BasisKind::kDct2D, 16, 20).memory_bytes(),
            Dct1dPlan(20).memory_bytes() + Dct1dPlan(16).memory_bytes());
  EXPECT_EQ(BasisTransform(BasisKind::kHaar2D, 32, 32).memory_bytes(), 0u);
}

TEST(BasisTransform, OneShotsMatchTheKernelsBitForBit) {
  // The one-shot analyze / synthesize run the grid's BasisTransform: the
  // Haar basis gives exactly the reference haar2d / ihaar2d at the most
  // levels both sides divide into, the DCT basis exactly dct2d_apply /
  // idct2d_apply on freshly built plans.
  struct Grid { std::size_t rows, cols; };
  for (const Grid g : {Grid{4, 4}, Grid{8, 16}, Grid{12, 20}, Grid{32, 32},
                       Grid{6, 10}}) {
    Rng rng(0xB7 + g.rows * 31 + g.cols);
    const la::Matrix a = random_matrix(g.rows, g.cols, rng);
    const std::size_t levels =
        std::min(max_haar_levels(g.rows), max_haar_levels(g.cols));
    const la::Matrix haar_fwd = analyze(BasisKind::kHaar2D, a);
    const la::Matrix haar_inv = synthesize(BasisKind::kHaar2D, a);
    const la::Matrix haar_fwd_ref = haar2d(a, levels);
    const la::Matrix haar_inv_ref = ihaar2d(a, levels);

    const Dct1dPlan row_plan(g.cols), col_plan(g.rows);
    DctWorkspace ws;
    la::Matrix dct_fwd_ref(g.rows, g.cols), dct_inv_ref(g.rows, g.cols);
    dct2d_apply(row_plan, col_plan, a.data(), dct_fwd_ref.data(), g.rows,
                g.cols, ws);
    idct2d_apply(row_plan, col_plan, a.data(), dct_inv_ref.data(), g.rows,
                 g.cols, ws);
    const la::Matrix dct_fwd = analyze(BasisKind::kDct2D, a);
    const la::Matrix dct_inv = synthesize(BasisKind::kDct2D, a);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(haar_fwd.data()[i], haar_fwd_ref.data()[i])
          << g.rows << "x" << g.cols;
      EXPECT_EQ(haar_inv.data()[i], haar_inv_ref.data()[i])
          << g.rows << "x" << g.cols;
      EXPECT_EQ(dct_fwd.data()[i], dct_fwd_ref.data()[i])
          << g.rows << "x" << g.cols;
      EXPECT_EQ(dct_inv.data()[i], dct_inv_ref.data()[i])
          << g.rows << "x" << g.cols;
    }
  }
}

TEST(BasisTransform, InPlaceMatchesOutOfPlaceBitForBit) {
  // analyze / synthesize with in == out, which the transform operator's
  // adjoint and normal applies run, give exactly the out-of-place bits.
  struct Grid { std::size_t rows, cols; };
  for (const BasisKind basis : {BasisKind::kDct2D, BasisKind::kHaar2D}) {
    for (const Grid g : {Grid{8, 8}, Grid{20, 20}, Grid{8, 12}, Grid{16, 6}}) {
      const BasisTransform transform(basis, g.rows, g.cols);
      Rng rng(0x1F + g.rows * 31 + g.cols);
      const la::Matrix a = random_matrix(g.rows, g.cols, rng);
      const std::size_t bytes = a.size() * sizeof(double);
      BasisWorkspace ws;
      la::Matrix fwd(g.rows, g.cols), inv(g.rows, g.cols);
      transform.analyze(a.data(), fwd.data(), ws);
      transform.synthesize(a.data(), inv.data(), ws);
      la::Matrix fwd_in_place = a, inv_in_place = a;
      transform.analyze(fwd_in_place.data(), fwd_in_place.data(), ws);
      transform.synthesize(inv_in_place.data(), inv_in_place.data(), ws);
      EXPECT_EQ(0, std::memcmp(fwd.data(), fwd_in_place.data(), bytes))
          << to_string(basis) << " " << g.rows << "x" << g.cols;
      EXPECT_EQ(0, std::memcmp(inv.data(), inv_in_place.data(), bytes))
          << to_string(basis) << " " << g.rows << "x" << g.cols;
    }
  }
}

TEST(Basis, ToStringNames) {
  EXPECT_EQ(to_string(BasisKind::kDct2D), "dct2d");
  EXPECT_EQ(to_string(BasisKind::kHaar2D), "haar2d");
}

}  // namespace
}  // namespace flexcs::dsp
