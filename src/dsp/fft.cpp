#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "dsp/dct.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kPi = 3.1415926535897932384626433832795;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Cache-blocked out-of-place transpose: out (cols×rows) = inᵀ (rows×cols).
constexpr std::size_t kTransposeBlock = 32;

void transpose(const double* in, std::size_t rows, std::size_t cols,
               double* out) {
  for (std::size_t rb = 0; rb < rows; rb += kTransposeBlock) {
    const std::size_t rend = std::min(rows, rb + kTransposeBlock);
    for (std::size_t cb = 0; cb < cols; cb += kTransposeBlock) {
      const std::size_t cend = std::min(cols, cb + kTransposeBlock);
      for (std::size_t r = rb; r < rend; ++r)
        for (std::size_t c = cb; c < cend; ++c)
          out[c * rows + r] = in[r * cols + c];
    }
  }
}

// C (m×n) = P (m×k) · Q (k×n), all row-major, in row-axpy form: row i of C
// accumulates Q's rows scaled by P's row i. Every C element sums its k terms
// in ascending order from 0.0 — the order of a dot product, so the result is
// bit-identical to the matvec form — while the inner loop runs over
// contiguous memory with independent lanes instead of one serial sum.
// `skip_zero` skips zero entries of P (sparse coefficient input); adding the
// ±0 a skipped term would contribute never changes a sum started at +0.0.
void gemm_rows(const double* p, const double* q, double* c, std::size_t m,
               std::size_t k, std::size_t n, bool skip_zero) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = p + i * k;
    double* ci = c + i * n;
    std::fill(ci, ci + n, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      const double s = pi[j];
      if (skip_zero && s == 0.0) continue;
      const double* qj = q + j * n;
#pragma omp simd
      for (std::size_t l = 0; l < n; ++l) ci[l] += s * qj[l];
    }
  }
}

}  // namespace

Dct1dPlan::Dct1dPlan(std::size_t n) : n_(n), fast_(is_pow2(n)) {
  FLEXCS_CHECK(n > 0, "Dct1dPlan requires n > 0");
  const double nd = static_cast<double>(n);
  scale0_ = std::sqrt(1.0 / nd);
  scale_ = std::sqrt(2.0 / nd);
  inv_scale0_ = 1.0 / scale0_;
  inv_scale_ = n > 1 ? 1.0 / scale_ : 0.0;
  if (!fast_) {
    // Non-pow2 lengths keep the dense factor for the GEMM-form passes; the
    // naive dct1d/idct1d stay the golden reference for every N.
    factor_ = dct_matrix(n);
    factor_t_ = factor_.transposed();
    return;
  }
  if (n == 1) return;

  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  bitrev_.resize(n);
  bitrev_[0] = 0;
  for (std::size_t i = 1; i < n; ++i)
    bitrev_[i] = static_cast<std::uint32_t>(
        (bitrev_[i >> 1] >> 1) | ((i & 1) << (log2n - 1)));

  tw_cos_.resize(n / 2);
  tw_sin_.resize(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    const double ang = 2.0 * kPi * static_cast<double>(j) / nd;
    tw_cos_[j] = std::cos(ang);
    tw_sin_[j] = std::sin(ang);
  }
  rot_cos_.resize(n);
  rot_sin_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = kPi * static_cast<double>(k) / (2.0 * nd);
    rot_cos_[k] = std::cos(ang);
    rot_sin_[k] = std::sin(ang);
  }
}

std::size_t Dct1dPlan::memory_bytes() const {
  return sizeof(double) * (tw_cos_.size() + tw_sin_.size() + rot_cos_.size() +
                           rot_sin_.size() + factor_.size() +
                           factor_t_.size()) +
         sizeof(std::uint32_t) * bitrev_.size();
}

void Dct1dPlan::fft(double* re, double* im, bool invert) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const double wr = tw_cos_[j * step];
        const double wi = invert ? tw_sin_[j * step] : -tw_sin_[j * step];
        const std::size_t lo = base + j, hi = lo + half;
        const double tr = re[hi] * wr - im[hi] * wi;
        const double ti = re[hi] * wi + im[hi] * wr;
        re[hi] = re[lo] - tr;
        im[hi] = im[lo] - ti;
        re[lo] += tr;
        im[lo] += ti;
      }
    }
  }
}

void Dct1dPlan::forward(const double* in, double* out,
                        DctWorkspace& ws) const {
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  if (!fast_) {
    gemm_rows(in, factor_t_.data(), out, 1, n, n, /*skip_zero=*/false);
    return;
  }
  // Makhoul: v interleaves the even samples forward and the odd samples
  // backward; then C_II[k] = Re(e^{-iπk/2N} · FFT(v)[k]).
  ws.re.resize(n);
  ws.im.resize(n);
  double* re = ws.re.data();
  double* im = ws.im.data();
  const std::size_t half_up = (n + 1) / 2;
  for (std::size_t p = 0; p < half_up; ++p) re[p] = in[2 * p];
  for (std::size_t p = 0; p < n / 2; ++p) re[n - 1 - p] = in[2 * p + 1];
  for (std::size_t i = 0; i < n; ++i) im[i] = 0.0;
  fft(re, im, /*invert=*/false);
  out[0] = scale0_ * re[0];
  for (std::size_t k = 1; k < n; ++k)
    out[k] = scale_ * (rot_cos_[k] * re[k] + rot_sin_[k] * im[k]);
}

void Dct1dPlan::inverse(const double* in, double* out,
                        DctWorkspace& ws) const {
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  if (!fast_) {
    gemm_rows(in, factor_.data(), out, 1, n, n, /*skip_zero=*/true);
    return;
  }
  // Invert the Makhoul mapping: rebuild V[k] = e^{+iπk/2N}(C[k] - i C[N-k])
  // (Hermitian by construction), inverse-FFT, de-interleave.
  ws.re.resize(n);
  ws.im.resize(n);
  double* re = ws.re.data();
  double* im = ws.im.data();
  re[0] = inv_scale0_ * in[0];
  im[0] = 0.0;
  for (std::size_t k = 1; k < n; ++k) {
    const double ck = inv_scale_ * in[k];
    const double cnk = inv_scale_ * in[n - k];
    re[k] = rot_cos_[k] * ck + rot_sin_[k] * cnk;
    im[k] = rot_sin_[k] * ck - rot_cos_[k] * cnk;
  }
  fft(re, im, /*invert=*/true);
  const double invn = 1.0 / static_cast<double>(n);
  const std::size_t half_up = (n + 1) / 2;
  for (std::size_t p = 0; p < half_up; ++p) out[2 * p] = re[p] * invn;
  for (std::size_t p = 0; p < n / 2; ++p) out[2 * p + 1] = re[n - 1 - p] * invn;
}

namespace {

// Shared body of the 2-D helpers. The row pass runs every row through the
// plan (FFT or GEMM form); a pow2 column pass runs the FFT between two
// blocked transposes, a non-pow2 one is the left product D_r·A (forward) or
// D_rᵀ·A (inverse) straight into `out`.
void separable_2d(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                  const double* in, double* out, std::size_t rows,
                  std::size_t cols, DctWorkspace& ws, bool invert) {
  const std::size_t n = rows * cols;
  ws.a.resize(n);
  for (std::size_t r = 0; r < rows; ++r) {
    if (invert)
      row_plan.inverse(in + r * cols, ws.a.data() + r * cols, ws);
    else
      row_plan.forward(in + r * cols, ws.a.data() + r * cols, ws);
  }
  if (!col_plan.fast()) {
    const la::Matrix& d = invert ? col_plan.factor_t() : col_plan.factor();
    gemm_rows(d.data(), ws.a.data(), out, rows, rows, cols,
              /*skip_zero=*/false);
    return;
  }
  ws.b.resize(n);
  transpose(ws.a.data(), rows, cols, ws.b.data());
  for (std::size_t c = 0; c < cols; ++c) {
    if (invert)
      col_plan.inverse(ws.b.data() + c * rows, ws.a.data() + c * rows, ws);
    else
      col_plan.forward(ws.b.data() + c * rows, ws.a.data() + c * rows, ws);
  }
  transpose(ws.a.data(), cols, rows, out);
}

}  // namespace

void dct2d_apply(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                 const double* in, double* out, std::size_t rows,
                 std::size_t cols, DctWorkspace& ws) {
  FLEXCS_CHECK(row_plan.size() == cols && col_plan.size() == rows,
               "dct2d_apply: plan sizes must match the grid");
  separable_2d(row_plan, col_plan, in, out, rows, cols, ws, /*invert=*/false);
}

void idct2d_apply(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                  const double* in, double* out, std::size_t rows,
                  std::size_t cols, DctWorkspace& ws) {
  FLEXCS_CHECK(row_plan.size() == cols && col_plan.size() == rows,
               "idct2d_apply: plan sizes must match the grid");
  separable_2d(row_plan, col_plan, in, out, rows, cols, ws, /*invert=*/true);
}

}  // namespace flexcs::dsp
