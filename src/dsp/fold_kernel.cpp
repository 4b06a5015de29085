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
#include "dsp/fold_kernel.hpp"

#include <cstddef>
#include <utility>

#ifndef FLEXCS_FOLD_VARIANT
#error "fold_kernel.cpp is built by src/dsp/CMakeLists.txt with FLEXCS_FOLD_VARIANT"
#endif

namespace flexcs::dsp::FLEXCS_FOLD_VARIANT {
namespace {

// c[l] += s[0]·q[0][l], then s[1]·q[1][l], … one term at a time in order.
// The term count G is a template argument so a group's terms stay in
// registers: one load and one store of c per group instead of per term.
template <std::size_t... G>
void axpy_group(double* c, const double* s, const double* const* q,
                std::size_t n, std::index_sequence<G...>) {
  const double sg[] = {s[G]...};
  const double* const qg[] = {q[G]...};
#pragma omp simd
  for (std::size_t l = 0; l < n; ++l) {
    double acc = c[l];
    ((acc += sg[G] * qg[G][l]), ...);
    c[l] = acc;
  }
}

constexpr std::size_t kGroup = 8;

void flush_group(double* c, const double* s, const double* const* q,
                 std::size_t g, std::size_t n) {
  switch (g) {
    case 1: axpy_group(c, s, q, n, std::make_index_sequence<1>{}); break;
    case 2: axpy_group(c, s, q, n, std::make_index_sequence<2>{}); break;
    case 3: axpy_group(c, s, q, n, std::make_index_sequence<3>{}); break;
    case 4: axpy_group(c, s, q, n, std::make_index_sequence<4>{}); break;
    case 5: axpy_group(c, s, q, n, std::make_index_sequence<5>{}); break;
    case 6: axpy_group(c, s, q, n, std::make_index_sequence<6>{}); break;
    case 7: axpy_group(c, s, q, n, std::make_index_sequence<7>{}); break;
    default: axpy_group(c, s, q, n, std::make_index_sequence<kGroup>{});
  }
}

// C (m×n) = P (m×k) · Q (k×n) in row-axpy form, every operand strided:
// P(i, j) = p[i·ldp + j·incp], row j of Q starts at q + j·ldq and row i of C
// at c + i·ldc. Row i of C accumulates Q's rows scaled by P's row i, up to
// kGroup rows per sweep, so each C element still adds its k terms one at a
// time in ascending j from 0.0 while the inner loop runs over contiguous
// memory with independent lanes. `skip_zero` drops zero entries of P (sparse
// data) before they are grouped; adding the ±0 a skipped term would
// contribute never changes a sum started at +0.0.
void gemm_rows(const double* p, std::size_t ldp, std::size_t incp,
               const double* q, std::size_t ldq, double* c, std::size_t ldc,
               std::size_t m, std::size_t k, std::size_t n, bool skip_zero) {
  double s[kGroup] = {};
  const double* qr[kGroup] = {};
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = p + i * ldp;
    double* ci = c + i * ldc;
    for (std::size_t l = 0; l < n; ++l) ci[l] = 0.0;
    std::size_t g = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const double sj = pi[j * incp];
      if (skip_zero && sj == 0.0) continue;
      s[g] = sj;
      qr[g] = q + j * ldq;
      if (++g == kGroup) {
        flush_group(ci, s, qr, g, n);
        g = 0;
      }
    }
    if (g > 0) flush_group(ci, s, qr, g, n);
  }
}

// The even/odd butterfly of the folded kernel over `lanes` length-n vectors
// x. Rows layout: vector l is x[l·n .. l·n + n) and its halves are rows of
// u (⌈n/2⌉ wide) and v (⌊n/2⌋ wide). Columns layout: sample i of every
// vector is row i of x (`lanes` wide), and u and v are panels of such rows.
// fold: u(i) = x(i) + x(n−1−i), v(i) = x(i) − x(n−1−i); an odd length's
// middle sample goes to u alone (its odd-row DCT entries are cos(π/2·odd),
// i.e. zero).
void fold_halves(const double* x, double* u, double* v, std::size_t n,
                 std::size_t lanes, bool rows) {
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  if (rows) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* xl = x + l * n;
      double* ul = u + l * hu;
      double* vl = v + l * hv;
      for (std::size_t i = 0; i < hv; ++i) {
        ul[i] = xl[i] + xl[n - 1 - i];
        vl[i] = xl[i] - xl[n - 1 - i];
      }
      if (hu > hv) ul[hv] = xl[hv];
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

// The mirror of fold_halves, same layouts: x(i) = u(i) + v(i),
// x(n−1−i) = u(i) − v(i), and an odd length's middle sample is u alone.
void unfold_halves(const double* u, const double* v, double* x,
                   std::size_t n, std::size_t lanes, bool rows) {
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  if (rows) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* ul = u + l * hu;
      const double* vl = v + l * hv;
      double* xl = x + l * n;
      for (std::size_t i = 0; i < hv; ++i) {
        xl[i] = ul[i] + vl[i];
        xl[n - 1 - i] = ul[i] - vl[i];
      }
      if (hu > hv) xl[hv] = ul[hv];
    }
    return;
  }
  for (std::size_t i = 0; i < hv; ++i) {
    const double* ui = u + i * lanes;
    const double* vi = v + i * lanes;
    double* a = x + i * lanes;
    double* b = x + (n - 1 - i) * lanes;
#pragma omp simd
    for (std::size_t l = 0; l < lanes; ++l) {
      a[l] = ui[l] + vi[l];
      b[l] = ui[l] - vi[l];
    }
  }
  if (hu > hv)
    for (std::size_t l = 0; l < lanes; ++l)
      x[hv * lanes + l] = u[hv * lanes + l];
}

}  // namespace

void fold_kernel(const FoldJob& job) {
  const std::size_t n = job.n, lanes = job.lanes;
  const std::size_t hu = (n + 1) / 2, hv = n / 2;
  const double* e_tab = job.tables;
  const double* et_tab = e_tab + hu * hu;
  const double* o_tab = et_tab + hu * hu;
  const double* ot_tab = o_tab + hv * hv;
  const double* in = job.in;
  double* out = job.out;
  double* ev = job.fold;
  double* od = ev + hu * lanes;

  if (!job.invert) {
    // D(k, n−1−i) = (−1)^k·D(k, i): the even outputs see only the sums u
    // and the odd outputs only the differences v.
    fold_halves(in, ev, od, n, lanes, job.rows);
    if (!job.rows) {
      // E·u and O·v straight into output rows 2k and 2k+1.
      gemm_rows(e_tab, hu, 1, ev, lanes, out, 2 * lanes, hu, hu, lanes,
                /*skip_zero=*/false);
      gemm_rows(o_tab, hv, 1, od, lanes, out + lanes, 2 * lanes, hv, hv,
                lanes, /*skip_zero=*/false);
      return;
    }
    // u·Eᵀ and v·Oᵀ per lane, then interleave the even and odd outputs.
    double* ce = job.half;
    double* co = ce + hu * lanes;
    gemm_rows(ev, hu, 1, et_tab, hu, ce, hu, lanes, hu, hu, /*skip_zero=*/true);
    gemm_rows(od, hv, 1, ot_tab, hv, co, hv, lanes, hv, hv, /*skip_zero=*/true);
    for (std::size_t l = 0; l < lanes; ++l) {
      double* x = out + l * n;
      for (std::size_t k = 0; k < hu; ++k) x[2 * k] = ce[l * hu + k];
      for (std::size_t k = 0; k < hv; ++k) x[2 * k + 1] = co[l * hv + k];
    }
    return;
  }

  // Inverse: the even input samples through Eᵀ and the odd ones through Oᵀ
  // give the halves e and o of every output pair (x(i), x(n−1−i)).
  if (job.rows) {
    gemm_rows(in, n, 2, e_tab, hu, ev, hu, lanes, hu, hu, /*skip_zero=*/true);
    gemm_rows(in + 1, n, 2, o_tab, hv, od, hv, lanes, hv, hv,
              /*skip_zero=*/true);
  } else {
    gemm_rows(et_tab, hu, 1, in, 2 * lanes, ev, lanes, hu, hu, lanes,
              /*skip_zero=*/false);
    gemm_rows(ot_tab, hv, 1, in + lanes, 2 * lanes, od, lanes, hv, hv, lanes,
              /*skip_zero=*/false);
  }
  unfold_halves(ev, od, out, n, lanes, job.rows);
}

}  // namespace flexcs::dsp::FLEXCS_FOLD_VARIANT
