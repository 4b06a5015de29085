// Transform kernels vs their golden references: the folded DCT plans against
// the naive O(n²) cosine sums (dsp::dct1d/idct1d), and the in-place lifting
// Haar against dsp::haar2d/ihaar2d. The naive paths are the definition of the
// transforms in this library; the plans must agree to near machine precision
// at every length — even, odd, prime, pow2 and the degenerate n = 1.
#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dsp/basis.hpp"
#include "dsp/dct.hpp"
#include "dsp/fold_kernel.hpp"
#include "dsp/wavelet.hpp"
#include "la/matrix.hpp"

namespace flexcs::dsp {
namespace {

const std::size_t kLengths[] = {1, 2, 3, 5, 7, 8, 12, 16, 17,
                                32, 33, 64, 100, 128, 256};

la::Vector random_vector(std::size_t n, Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(Dct1dPlan, ForwardMatchesNaiveDctAtEveryLength) {
  DctWorkspace ws;
  for (const std::size_t n : kLengths) {
    Rng rng(0xF0 + n);
    const la::Vector x = random_vector(n, rng);
    const la::Vector ref = dct1d(x);
    const Dct1dPlan plan(n);
    la::Vector fast(n);
    plan.forward(x.data(), fast.data(), ws);
    EXPECT_LT(la::max_abs_diff(fast, ref), 1e-12) << "n=" << n;
  }
}

TEST(Dct1dPlan, InverseMatchesNaiveIdctAtEveryLength) {
  DctWorkspace ws;
  for (const std::size_t n : kLengths) {
    Rng rng(0xF1 + n);
    const la::Vector c = random_vector(n, rng);
    const la::Vector ref = idct1d(c);
    const Dct1dPlan plan(n);
    la::Vector fast(n);
    plan.inverse(c.data(), fast.data(), ws);
    EXPECT_LT(la::max_abs_diff(fast, ref), 1e-12) << "n=" << n;
  }
}

TEST(Dct1dPlan, FoldedKernelMatchesNaiveAtEveryLength) {
  // Every length to 40, then the pow2 sides 64, 128 and 256, both
  // directions: the middle sample of odd lengths, the ⌈n/2⌉ vs ⌊n/2⌋ half
  // widths and the mirrored writes are exercised at each parity.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n : {64u, 128u, 256u}) lengths.push_back(n);
  DctWorkspace ws;
  std::size_t checked = 0;
  for (const std::size_t n : lengths) {
    const Dct1dPlan plan(n);
    ++checked;
    Rng rng(0xF5 + n);
    const la::Vector x = random_vector(n, rng);
    la::Vector fwd(n), inv(n);
    plan.forward(x.data(), fwd.data(), ws);
    plan.inverse(x.data(), inv.data(), ws);
    EXPECT_LE(la::max_abs_diff(fwd, dct1d(x)), 1e-12) << "n=" << n;
    EXPECT_LE(la::max_abs_diff(inv, idct1d(x)), 1e-12) << "n=" << n;
  }
  EXPECT_EQ(checked, 43u);  // 1..40, 64, 128, 256
}

TEST(Dct1dPlan, FoldedTablesHalveDenseMemory) {
  // The folded kernel keeps the even and odd half-tables and their
  // transposes: n² doubles for even n (n² + 1 for odd), where the dense
  // factor and its transpose took 2n². Pow2 sides included.
  for (const std::size_t n : {20u, 36u, 12u, 100u, 2u, 16u, 32u, 256u})
    EXPECT_EQ(Dct1dPlan(n).memory_bytes(), sizeof(double) * n * n) << n;
  for (const std::size_t n : {1u, 3u, 9u, 15u, 17u})
    EXPECT_EQ(Dct1dPlan(n).memory_bytes(), sizeof(double) * (n * n + 1)) << n;
}

TEST(Dct1dPlan, RoundTripIsIdentity) {
  DctWorkspace ws;
  for (const std::size_t n : kLengths) {
    Rng rng(0xF2 + n);
    const la::Vector x = random_vector(n, rng);
    const Dct1dPlan plan(n);
    la::Vector c(n), back(n);
    plan.forward(x.data(), c.data(), ws);
    plan.inverse(c.data(), back.data(), ws);
    EXPECT_LT(la::max_abs_diff(back, x), 1e-12) << "n=" << n;
  }
}

TEST(Dct1dPlan, ZeroLengthThrows) {
  EXPECT_THROW(Dct1dPlan(0), CheckError);
}

TEST(Dct1dPlan, TwoDimApplyMatchesDct2d) {
  // Non-square, mixed pow2/non-pow2 grids: the 2-D helpers must agree with
  // the one-shot dsp::analyze / synthesize of the DCT basis (which the dct
  // and basis tests pin to the dense matrix form).
  struct Grid { std::size_t rows, cols; };
  for (const Grid g : {Grid{8, 16}, Grid{12, 20}, Grid{7, 32}, Grid{5, 3}}) {
    Rng rng(0xF3 + g.rows * 37 + g.cols);
    la::Matrix a(g.rows, g.cols);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();

    const Dct1dPlan row_plan(g.cols), col_plan(g.rows);
    DctWorkspace ws;
    la::Matrix fwd(g.rows, g.cols), inv(g.rows, g.cols);
    dct2d_apply(row_plan, col_plan, a.data(), fwd.data(), g.rows, g.cols, ws);
    idct2d_apply(row_plan, col_plan, a.data(), inv.data(), g.rows, g.cols,
                 ws);
    EXPECT_LT(la::max_abs_diff(fwd, analyze(BasisKind::kDct2D, a)), 1e-12)
        << g.rows << "x" << g.cols;
    EXPECT_LT(la::max_abs_diff(inv, synthesize(BasisKind::kDct2D, a)), 1e-12)
        << g.rows << "x" << g.cols;
  }
}

TEST(Dct1dPlan, TwoDimApplyMatchesDenseMatrixForm) {
  // Independent golden for both 2-D kernels: the separable transforms as
  // dense products Y = D_r·X·D_cᵀ and X = D_rᵀ·Y·D_c with dct_matrix
  // factors. Covers the runtime's halo-padded tiles (20, 36), odd square
  // grids (9, 15) whose middle row and column the folded kernel treats
  // apart, mixed pow2/non-pow2 grids, and degenerate single rows and
  // columns; every input has whole zero rows and zero entries, so the
  // zero-entry skip runs.
  struct Grid { std::size_t rows, cols; };
  for (const Grid g : {Grid{20, 20}, Grid{36, 36}, Grid{20, 36}, Grid{36, 20},
                       Grid{9, 9}, Grid{15, 15}, Grid{20, 16}, Grid{7, 32},
                       Grid{5, 3}, Grid{1, 7}, Grid{7, 1}}) {
    Rng rng(0xF4 + g.rows * 41 + g.cols);
    la::Matrix a(g.rows, g.cols);
    for (std::size_t i = 0; i < a.size(); ++i)
      a.data()[i] = rng.uniform() < 0.3 ? 0.0 : rng.normal();
    for (std::size_t r = 0; r < g.rows; r += 3)
      for (std::size_t c = 0; c < g.cols; ++c) a(r, c) = 0.0;

    const la::Matrix dr = dct_matrix(g.rows), dc = dct_matrix(g.cols);
    const la::Matrix fwd_ref = la::matmul(la::matmul(dr, a), dc.transposed());
    const la::Matrix inv_ref = la::matmul(la::matmul(dr.transposed(), a), dc);

    const Dct1dPlan row_plan(g.cols), col_plan(g.rows);
    DctWorkspace ws;
    la::Matrix fwd(g.rows, g.cols), inv(g.rows, g.cols);
    dct2d_apply(row_plan, col_plan, a.data(), fwd.data(), g.rows, g.cols, ws);
    idct2d_apply(row_plan, col_plan, a.data(), inv.data(), g.rows, g.cols,
                 ws);
    EXPECT_LE(la::max_abs_diff(fwd, fwd_ref), 1e-12)
        << g.rows << "x" << g.cols;
    EXPECT_LE(la::max_abs_diff(inv, inv_ref), 1e-12)
        << g.rows << "x" << g.cols;
  }
}

TEST(Dct1dPlan, MismatchedGridShapeThrows) {
  const Dct1dPlan row_plan(8), col_plan(4);
  DctWorkspace ws;
  std::vector<double> in(32, 0.0), out(32, 0.0);
  EXPECT_THROW(dct2d_apply(row_plan, col_plan, in.data(), out.data(), 8, 8,
                           ws),
               CheckError);
  EXPECT_THROW(idct2d_apply(row_plan, col_plan, in.data(), out.data(), 2, 16,
                            ws),
               CheckError);
}

// One fold pass of `lanes` length-n vectors through one ISA variant.
std::vector<double> run_fold(FoldKernel kernel, const Dct1dPlan& plan,
                             const std::vector<double>& in, std::size_t lanes,
                             bool rows, bool invert) {
  const std::size_t n = plan.size();
  std::vector<double> out(n * lanes), fold(n * lanes), half(n * lanes);
  kernel(FoldJob{fold_tables(plan), in.data(), out.data(), fold.data(),
                 half.data(), n, lanes, rows, invert});
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// `count` samples, dense normal or with ~70 % exact zeros (sparse
// coefficients, scattered measurements).
std::vector<double> kernel_input(std::size_t count, bool sparse, Rng& rng) {
  std::vector<double> x(count);
  for (double& v : x) v = sparse && rng.uniform() < 0.7 ? 0.0 : rng.normal();
  return x;
}

TEST(Dct1dPlan, IsaVariantsAreBitIdentical) {
  // The baseline and AVX2 builds of the folded kernel must agree to the
  // bit, so hosts with and without AVX2 decode a tile to the same pixels.
  // Every length to 40, both directions and layouts, 1/7/20/36
  // lanes, dense inputs and inputs with exact zeros; then the 2-D row +
  // column sequence at the runtime's 20×20 and 36×36 tiles. The plan's own
  // fold_pass (whichever variant it picked) must give the same bits too.
  if (std::string(kernel_isa()) != "avx2")
    GTEST_SKIP() << "host has no AVX2: only the baseline kernel can run";
  DctWorkspace ws;
  std::size_t compared = 0;
  for (std::size_t n = 1; n <= 40; ++n) {
    const Dct1dPlan plan(n);
    for (const std::size_t lanes : {1u, 7u, 20u, 36u}) {
      for (const bool sparse : {false, true}) {
        Rng rng(0xF6 + n * 131 + lanes * 7 + (sparse ? 1 : 0));
        const std::vector<double> in = kernel_input(n * lanes, sparse, rng);
        for (const bool rows : {true, false}) {
          for (const bool invert : {false, true}) {
            const std::vector<double> base = run_fold(
                &fold_baseline::fold_kernel, plan, in, lanes, rows, invert);
            const std::vector<double> avx2 = run_fold(
                &fold_avx2::fold_kernel, plan, in, lanes, rows, invert);
            std::vector<double> plan_out(n * lanes);
            plan.fold_pass(in.data(), plan_out.data(), lanes,
                           rows ? Dct1dPlan::Axis::kRows
                                : Dct1dPlan::Axis::kColumns,
                           invert, ws);
            EXPECT_TRUE(same_bits(base, avx2))
                << "n=" << n << " lanes=" << lanes << " sparse=" << sparse
                << " rows=" << rows << " invert=" << invert;
            EXPECT_TRUE(same_bits(plan_out, avx2)) << "n=" << n;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 40u * 4u * 2u * 2u * 2u);  // lengths 1..40

  for (const std::size_t dim : {20u, 36u}) {
    const Dct1dPlan plan(dim);
    for (const bool sparse : {false, true}) {
      Rng rng(0xF7 + dim + (sparse ? 1 : 0));
      const std::vector<double> grid = kernel_input(dim * dim, sparse, rng);
      for (const bool invert : {false, true}) {
        // Row pass over every row, then the column pass (a left product).
        const auto pass_2d = [&](FoldKernel kernel) {
          const std::vector<double> r =
              run_fold(kernel, plan, grid, dim, /*rows=*/true, invert);
          return run_fold(kernel, plan, r, dim, /*rows=*/false, invert);
        };
        const std::vector<double> base = pass_2d(&fold_baseline::fold_kernel);
        const std::vector<double> avx2 = pass_2d(&fold_avx2::fold_kernel);
        std::vector<double> plan_out(dim * dim);
        (invert ? idct2d_apply : dct2d_apply)(plan, plan, grid.data(),
                                              plan_out.data(), dim, dim, ws);
        EXPECT_TRUE(same_bits(base, avx2))
            << dim << "x" << dim << " sparse=" << sparse
            << " invert=" << invert;
        EXPECT_TRUE(same_bits(plan_out, avx2)) << dim << "x" << dim;
      }
    }
  }
}

// The folded kernel's summation-order contract (fft.hpp) as plain loops:
// fold (forward) the halves of every vector, multiply them by the plan's
// half-tables with each output a sum that starts from +0.0 and adds its
// terms one at a time in ascending order, then interleave the even and odd
// outputs (forward) or unfold the two half products (inverse).
std::vector<double> reference_fold(const Dct1dPlan& plan,
                                   const std::vector<double>& in,
                                   std::size_t lanes, bool rows, bool invert) {
  const std::size_t n = plan.size(), hu = (n + 1) / 2, hv = n / 2;
  const double* e = fold_tables(plan);
  const double* et = e + hu * hu;
  const double* o = et + hu * hu;
  const double* ot = o + hv * hv;
  std::vector<double> out(n * lanes), a(hu), b(hv);
  for (std::size_t l = 0; l < lanes; ++l) {
    // Sample i of vector l.
    const auto at = [&](std::size_t i) {
      return rows ? l * n + i : i * lanes + l;
    };
    if (!invert) {
      for (std::size_t i = 0; i < hv; ++i) {
        a[i] = in[at(i)] + in[at(n - 1 - i)];
        b[i] = in[at(i)] - in[at(n - 1 - i)];
      }
      if (hu > hv) a[hv] = in[at(hv)];
      for (std::size_t k = 0; k < hu; ++k) {
        double s = 0.0;
        for (std::size_t i = 0; i < hu; ++i) s += e[k * hu + i] * a[i];
        out[at(2 * k)] = s;
      }
      for (std::size_t k = 0; k < hv; ++k) {
        double s = 0.0;
        for (std::size_t i = 0; i < hv; ++i) s += o[k * hv + i] * b[i];
        out[at(2 * k + 1)] = s;
      }
      continue;
    }
    for (std::size_t i = 0; i < hu; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < hu; ++k) s += et[i * hu + k] * in[at(2 * k)];
      a[i] = s;
    }
    for (std::size_t i = 0; i < hv; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < hv; ++k)
        s += ot[i * hv + k] * in[at(2 * k + 1)];
      b[i] = s;
    }
    for (std::size_t i = 0; i < hv; ++i) {
      out[at(i)] = a[i] + b[i];
      out[at(n - 1 - i)] = a[i] - b[i];
    }
    if (hu > hv) out[at(hv)] = a[hv];
  }
  return out;
}

TEST(Dct1dPlan, KernelKeepsItsSummationOrder) {
  // Each ISA entry of the folded kernel must give the bits of
  // reference_fold: blocking, vector width and loop order may change, the
  // per-output order of terms may not. Every length to 40, both
  // directions and layouts, 1/3/7/20/36/40 lanes (fewer than one vector,
  // vector tails, full blocks), dense and zero-laden inputs; then the 2-D
  // row + column sequence at the runtime's 20×20 and 36×36 tiles.
  std::vector<FoldKernel> kernels = {&fold_baseline::fold_kernel};
  if (std::string(kernel_isa()) == "avx2")
    kernels.push_back(&fold_avx2::fold_kernel);
  std::size_t compared = 0;
  for (std::size_t n = 1; n <= 40; ++n) {
    const Dct1dPlan plan(n);
    for (const std::size_t lanes : {1u, 3u, 7u, 20u, 36u, 40u}) {
      for (const bool sparse : {false, true}) {
        Rng rng(0xA5 + n * 131 + lanes * 7 + (sparse ? 1 : 0));
        const std::vector<double> in = kernel_input(n * lanes, sparse, rng);
        for (const bool rows : {true, false}) {
          for (const bool invert : {false, true}) {
            const std::vector<double> want =
                reference_fold(plan, in, lanes, rows, invert);
            for (const FoldKernel kernel : kernels)
              EXPECT_TRUE(
                  same_bits(run_fold(kernel, plan, in, lanes, rows, invert),
                            want))
                  << "n=" << n << " lanes=" << lanes << " sparse=" << sparse
                  << " rows=" << rows << " invert=" << invert
                  << (kernel == kernels[0] ? " baseline" : " avx2");
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 40u * 6u * 2u * 2u * 2u);  // lengths 1..40

  DctWorkspace ws;
  for (const std::size_t dim : {20u, 36u}) {
    const Dct1dPlan plan(dim);
    for (const bool sparse : {false, true}) {
      Rng rng(0xA6 + dim + (sparse ? 1 : 0));
      const std::vector<double> grid = kernel_input(dim * dim, sparse, rng);
      for (const bool invert : {false, true}) {
        const std::vector<double> want = reference_fold(
            plan, reference_fold(plan, grid, dim, /*rows=*/true, invert), dim,
            /*rows=*/false, invert);
        for (const FoldKernel kernel : kernels)
          EXPECT_TRUE(same_bits(
              run_fold(kernel, plan,
                       run_fold(kernel, plan, grid, dim, /*rows=*/true, invert),
                       dim, /*rows=*/false, invert),
              want))
              << dim << "x" << dim << " sparse=" << sparse
              << " invert=" << invert;
        std::vector<double> plan_out(dim * dim);
        (invert ? idct2d_apply : dct2d_apply)(plan, plan, grid.data(),
                                              plan_out.data(), dim, dim, ws);
        EXPECT_TRUE(same_bits(plan_out, want)) << dim << "x" << dim;
      }
    }
  }
}

TEST(HaarInplace, TwoDimMatchesReferenceBitForBit) {
  struct Grid { std::size_t rows, cols; };
  std::vector<double> scratch;
  for (const Grid g : {Grid{4, 4}, Grid{8, 16}, Grid{16, 8}, Grid{12, 20},
                       Grid{32, 32}}) {
    const std::size_t max_levels =
        std::min(max_haar_levels(g.rows), max_haar_levels(g.cols));
    for (std::size_t levels = 1; levels <= max_levels; ++levels) {
      Rng rng(0xA1 + g.rows * 31 + g.cols + levels);
      la::Matrix a(g.rows, g.cols);
      for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();

      const la::Matrix ref = haar2d(a, levels);
      la::Matrix fast = a;
      haar2d_inplace(fast.data(), g.rows, g.cols, levels, scratch);
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(fast.data()[i], ref.data()[i])
            << g.rows << "x" << g.cols << " levels=" << levels;

      const la::Matrix back_ref = ihaar2d(ref, levels);
      ihaar2d_inplace(fast.data(), g.rows, g.cols, levels, scratch);
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(fast.data()[i], back_ref.data()[i])
            << g.rows << "x" << g.cols << " levels=" << levels;
    }
  }
}

TEST(HaarInplace, InvalidLevelsThrow) {
  std::vector<double> scratch;
  std::vector<double> grid(8 * 8, 0.0);
  EXPECT_THROW(haar2d_inplace(grid.data(), 8, 8, 4, scratch), CheckError);
  EXPECT_THROW(ihaar2d_inplace(grid.data(), 8, 8, 4, scratch), CheckError);
}

TEST(Dct2d, PlanBackedTransformsStillRoundTrip) {
  // The one-shot DCT analyze / synthesize run through plans; keep an
  // end-to-end round-trip pinned at a non-square, non-pow2 grid.
  Rng rng(0xF4);
  la::Matrix a(12, 10);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  EXPECT_LT(la::max_abs_diff(synthesize(BasisKind::kDct2D,
                                        analyze(BasisKind::kDct2D, a)),
                             a),
            1e-12);
}

}  // namespace
}  // namespace flexcs::dsp
