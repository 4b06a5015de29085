// The even/odd-folded DCT kernel (fold_kernel.hpp), compiled once per ISA.
// CMake builds this file twice, defining FLEXCS_FOLD_VARIANT as the
// namespace of each copy (fold_baseline, fold_avx2).
//
// Everything but the entry point has internal linkage, and the file uses no
// std::vector, no FLEXCS_CHECK and no out-of-line std:: algorithm: plain
// loops only. An inline or template function from a header is emitted as a
// weak (COMDAT) symbol, and the linker keeps one copy of it for the whole
// binary. If that copy came from the -mavx2 object, every caller would run
// AVX2 code and a pre-AVX2 host would die with SIGILL. The ctest
// dsp.isa_objects checks the built objects for this.
//
// Every product is a register-blocked micro-kernel over GCC vector
// extensions (accepted by Clang too). The vector width follows the copy's
// ISA: 2 doubles (SSE2) in the baseline copy, 4 (AVX2) in the -mavx2 copy;
// a 4-double vector in the baseline copy would be split into scalar code.
// Vector values never cross a function boundary, since passing one by value
// changes ABI with the ISA (GCC's -Wpsabi). Each output element still adds
// its terms one at a time in ascending order from +0.0, so the blocking
// moves no result bit: see fft.hpp.
#include "dsp/fold_kernel.hpp"

#include <cstddef>
#include <cstring>

#ifndef FLEXCS_FOLD_VARIANT
#error "fold_kernel.cpp is built by src/dsp/CMakeLists.txt with FLEXCS_FOLD_VARIANT"
#endif

namespace flexcs::dsp::FLEXCS_FOLD_VARIANT {
namespace {

#if defined(__AVX2__)
constexpr std::size_t kWidth = 4;
#else
constexpr std::size_t kWidth = 2;
#endif
typedef double Vec __attribute__((vector_size(kWidth * sizeof(double))));

// Rows of C per micro-kernel call, and vectors of lanes per row: 3 × 3
// accumulators, 3 loaded lanes of Q and one broadcast fit the 16 SIMD
// registers of either ISA.
constexpr std::size_t kRows = 3;
constexpr std::size_t kVecs = 3;

// C (MR × NV·kWidth) = P (MR × k) · Q (k × NV·kWidth). P(r, j) =
// p[r·ldp + j], row j of Q starts at q + j·ldq, row r of C at c + r·ldc.
// The accumulators stay in registers for the whole sweep over j, and each
// adds its k terms in ascending j, starting from +0.0.
template <std::size_t MR, std::size_t NV>
void block(const double* p, std::size_t ldp, const double* q, std::size_t ldq,
           double* c, std::size_t ldc, std::size_t k) {
  Vec acc[MR][NV];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) acc[r][v] = Vec{};
  for (std::size_t j = 0; j < k; ++j) {
    Vec qv[NV];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(&qv[v], q + j * ldq + v * kWidth, sizeof(Vec));
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      const double s = p[r * ldp + j];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += s * qv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(c + r * ldc + v * kWidth, &acc[r][v], sizeof(Vec));
}

// MR rows of C across all n lanes: full 3-vector blocks, then 2- and
// 1-vector tails, then scalar lanes in the same term order.
template <std::size_t MR>
void row_block(const double* p, std::size_t ldp, const double* q,
               std::size_t ldq, double* c, std::size_t ldc, std::size_t k,
               std::size_t n) {
  std::size_t l = 0;
  for (; l + kVecs * kWidth <= n; l += kVecs * kWidth)
    block<MR, kVecs>(p, ldp, q + l, ldq, c + l, ldc, k);
  if (l + 2 * kWidth <= n) {
    block<MR, 2>(p, ldp, q + l, ldq, c + l, ldc, k);
    l += 2 * kWidth;
  }
  if (l + kWidth <= n) {
    block<MR, 1>(p, ldp, q + l, ldq, c + l, ldc, k);
    l += kWidth;
  }
  for (; l < n; ++l)
    for (std::size_t r = 0; r < MR; ++r) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k; ++j)
        acc += p[r * ldp + j] * q[j * ldq + l];
      c[r * ldc + l] = acc;
    }
}

// C (m×n) = P (m×k) · Q (k×n), strided as in `block`: the one product
// shape of the kernel. The lanes of Q's and C's rows are contiguous, so they
// fill the vectors, and P's entries are broadcast.
void product(const double* p, std::size_t ldp, const double* q,
             std::size_t ldq, double* c, std::size_t ldc, std::size_t m,
             std::size_t k, std::size_t n) {
  std::size_t i = 0;
  for (; i + kRows <= m; i += kRows)
    row_block<kRows>(p + i * ldp, ldp, q, ldq, c + i * ldc, ldc, k, n);
  p += i * ldp;
  c += i * ldc;
  if (m - i == 2) row_block<2>(p, ldp, q, ldq, c, ldc, k, n);
  if (m - i == 1) row_block<1>(p, ldp, q, ldq, c, ldc, k, n);
}

// Panels: sample i of lane l is element i·lanes + l, so a panel's rows are
// contiguous across lanes. The even/odd butterfly of the forward transform,
// fold: u(i) = x(i) + x(n−1−i), v(i) = x(i) − x(n−1−i); an odd length's
// middle sample goes to u alone (its odd-row DCT entries are cos(π/2·odd),
// i.e. zero). x is a panel (`rows` false) or `lanes` contiguous length-n
// vectors (`rows` true); u and v are panels either way.
void fold(const double* x, double* u, double* v, std::size_t n,
          std::size_t lanes, bool rows) {
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  if (rows) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* xl = x + l * n;
      for (std::size_t i = 0; i < hv; ++i) {
        u[i * lanes + l] = xl[i] + xl[n - 1 - i];
        v[i * lanes + l] = xl[i] - xl[n - 1 - i];
      }
      if (hu > hv) u[hv * lanes + l] = xl[hv];
    }
    return;
  }
  for (std::size_t i = 0; i < hv; ++i) {
    const double* a = x + i * lanes;
    const double* b = x + (n - 1 - i) * lanes;
    double* ui = u + i * lanes;
    double* vi = v + i * lanes;
#pragma omp simd
    for (std::size_t l = 0; l < lanes; ++l) {
      ui[l] = a[l] + b[l];
      vi[l] = a[l] - b[l];
    }
  }
  if (hu > hv)
    for (std::size_t l = 0; l < lanes; ++l)
      u[hv * lanes + l] = x[hv * lanes + l];
}

// The mirror of fold, same layouts: x(i) = e(i) + o(i),
// x(n−1−i) = e(i) − o(i), and an odd length's middle sample is e alone.
void unfold(const double* e, const double* o, double* x, std::size_t n,
            std::size_t lanes, bool rows) {
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  if (rows) {
    for (std::size_t l = 0; l < lanes; ++l) {
      double* xl = x + l * n;
      for (std::size_t i = 0; i < hv; ++i) {
        xl[i] = e[i * lanes + l] + o[i * lanes + l];
        xl[n - 1 - i] = e[i * lanes + l] - o[i * lanes + l];
      }
      if (hu > hv) xl[hv] = e[hv * lanes + l];
    }
    return;
  }
  for (std::size_t i = 0; i < hv; ++i) {
    const double* ei = e + i * lanes;
    const double* oi = o + i * lanes;
    double* a = x + i * lanes;
    double* b = x + (n - 1 - i) * lanes;
#pragma omp simd
    for (std::size_t l = 0; l < lanes; ++l) {
      a[l] = ei[l] + oi[l];
      b[l] = ei[l] - oi[l];
    }
  }
  if (hu > hv)
    for (std::size_t l = 0; l < lanes; ++l)
      x[hv * lanes + l] = e[hv * lanes + l];
}

// Row passes only: the even samples (0, 2, 4, …) of `lanes` contiguous
// length-n vectors x into panel e and the odd ones into panel o.
void split(const double* x, double* e, double* o, std::size_t n,
           std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double* xl = x + l * n;
    for (std::size_t k = 0; k < (n + 1) / 2; ++k) e[k * lanes + l] = xl[2 * k];
    for (std::size_t k = 0; k < n / 2; ++k) o[k * lanes + l] = xl[2 * k + 1];
  }
}

// The mirror of split: panels e and o interleaved back into x.
void merge(const double* e, const double* o, double* x, std::size_t n,
           std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double* xl = x + l * n;
    for (std::size_t k = 0; k < (n + 1) / 2; ++k) xl[2 * k] = e[k * lanes + l];
    for (std::size_t k = 0; k < n / 2; ++k) xl[2 * k + 1] = o[k * lanes + l];
  }
}

}  // namespace

void fold_kernel(const FoldJob& job) {
  const std::size_t n = job.n, lanes = job.lanes;
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  const double* e_tab = job.tables;
  const double* et_tab = e_tab + hu * hu;
  const double* o_tab = et_tab + hu * hu;
  const double* ot_tab = o_tab + hv * hv;
  // The forward transform multiplies the folded halves by E and O; the
  // inverse multiplies the even and odd input samples by Eᵀ and Oᵀ.
  const double* ea = job.invert ? et_tab : e_tab;
  const double* oa = job.invert ? ot_tab : o_tab;
  const double* in = job.in;
  double* out = job.out;
  double* pe = job.fold;
  double* po = pe + hu * lanes;

  if (!job.rows) {
    // Columns: left products straight between the caller's panels. D(k,
    // n−1−i) = (−1)^k·D(k, i): the even outputs see only the sums u and the
    // odd outputs only the differences v, and rows 2k and 2k+1 of a panel
    // are the even and odd samples.
    if (!job.invert) {
      fold(in, pe, po, n, lanes, /*rows=*/false);
      product(ea, hu, pe, lanes, out, 2 * lanes, hu, hu, lanes);
      product(oa, hv, po, lanes, out + lanes, 2 * lanes, hv, hv, lanes);
      return;
    }
    product(ea, hu, in, 2 * lanes, pe, lanes, hu, hu, lanes);
    product(oa, hv, in + lanes, 2 * lanes, po, lanes, hv, hv, lanes);
    unfold(pe, po, out, n, lanes, /*rows=*/false);
    return;
  }

  // Rows: gather the vectors' halves into panels (job.fold), run the same
  // left products into panels (job.half), and scatter those back. Fewer
  // lanes than one vector would run the left product's scalar tail, so such
  // a pass takes one vector at a time with the product transposed, its
  // vector lanes over the outputs: uᵀ·Eᵀ = (E·u)ᵀ term for term.
  double* ce = job.half;
  double* co = ce + hu * lanes;
  const std::size_t step = lanes < kWidth ? 1 : lanes;
  const double* ea_t = job.invert ? e_tab : et_tab;
  const double* oa_t = job.invert ? o_tab : ot_tab;
  for (std::size_t l = 0; l < lanes; l += step) {
    const double* x = in + l * n;
    double* y = out + l * n;
    if (job.invert)
      split(x, pe, po, n, step);
    else
      fold(x, pe, po, n, step, /*rows=*/true);
    if (step == 1) {
      product(pe, hu, ea_t, hu, ce, hu, 1, hu, hu);
      product(po, hv, oa_t, hv, co, hv, 1, hv, hv);
    } else {
      product(ea, hu, pe, step, ce, step, hu, hu, step);
      product(oa, hv, po, step, co, step, hv, hv, step);
    }
    if (job.invert)
      unfold(ce, co, y, n, step, /*rows=*/true);
    else
      merge(ce, co, y, n, step);
  }
}

}  // namespace flexcs::dsp::FLEXCS_FOLD_VARIANT
