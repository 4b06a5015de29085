#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "dsp/dct.hpp"
#include "dsp/fold_kernel.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kPi = 3.1415926535897932384626433832795;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// The folded kernel's ISA variant for this host (fold_kernel.hpp), chosen
// on first use and fixed for the life of the process.
FoldKernel host_fold_kernel() {
  static const FoldKernel kernel = []() -> FoldKernel {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return &fold_avx2::fold_kernel;
#endif
    return &fold_baseline::fold_kernel;
  }();
  return kernel;
}

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

}  // namespace

Dct1dPlan::Dct1dPlan(std::size_t n) : n_(n), fast_(is_pow2(n)) {
  FLEXCS_CHECK(n > 0, "Dct1dPlan requires n > 0");
  const double nd = static_cast<double>(n);
  scale0_ = std::sqrt(1.0 / nd);
  scale_ = std::sqrt(2.0 / nd);
  inv_scale0_ = 1.0 / scale0_;
  inv_scale_ = n > 1 ? 1.0 / scale_ : 0.0;
  if (!fast_) {
    // Non-pow2 lengths: the folded half-tables of D = dct_matrix(n), laid
    // out [E | Eᵀ | O | Oᵀ] with E(k, i) = D(2k, i) and O(k, i) = D(2k+1, i).
    // The naive dct1d/idct1d stay the golden reference for every N.
    const la::Matrix d = dct_matrix(n);
    const std::size_t hu = (n + 1) / 2, hv = n / 2;
    half_.resize(2 * (hu * hu + hv * hv));
    double* e = half_.data();
    double* et = e + hu * hu;
    double* o = et + hu * hu;
    double* ot = o + hv * hv;
    for (std::size_t k = 0; k < hu; ++k)
      for (std::size_t i = 0; i < hu; ++i)
        e[k * hu + i] = et[i * hu + k] = d(2 * k, i);
    for (std::size_t k = 0; k < hv; ++k)
      for (std::size_t i = 0; i < hv; ++i)
        o[k * hv + i] = ot[i * hv + k] = d(2 * k + 1, i);
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
                           rot_sin_.size() + half_.size()) +
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
    fold_pass(in, out, 1, Axis::kRows, /*invert=*/false, ws);
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
    fold_pass(in, out, 1, Axis::kRows, /*invert=*/true, ws);
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

void Dct1dPlan::fold_pass(const double* in, double* out, std::size_t lanes,
                          Axis axis, bool invert, DctWorkspace& ws) const {
  FLEXCS_CHECK(!fast_, "Dct1dPlan::fold_pass: non-pow2 plans only");
  const bool rows = axis == Axis::kRows;
  ws.fold.resize(n_ * lanes);
  if (rows) ws.half.resize(n_ * lanes);
  host_fold_kernel()(FoldJob{half_.data(), in, out, ws.fold.data(),
                             ws.half.data(), n_, lanes, rows, invert});
}

const double* fold_tables(const Dct1dPlan& plan) { return plan.half_.data(); }

const char* kernel_isa() {
  return host_fold_kernel() == &fold_avx2::fold_kernel ? "avx2"
                                                        : "baseline";
}

namespace {

// Shared body of the 2-D helpers. A non-pow2 plan runs its pass as one
// fold_pass over every row (kRows) or every column (kColumns, the left
// product D_r·A or D_rᵀ·A straight into `out`). A pow2 row pass runs each
// row through the FFT, and a pow2 column pass runs it between two blocked
// transposes.
void separable_2d(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                  const double* in, double* out, std::size_t rows,
                  std::size_t cols, DctWorkspace& ws, bool invert) {
  const std::size_t n = rows * cols;
  ws.a.resize(n);
  if (!row_plan.fast()) {
    row_plan.fold_pass(in, ws.a.data(), rows, Dct1dPlan::Axis::kRows, invert,
                       ws);
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      if (invert)
        row_plan.inverse(in + r * cols, ws.a.data() + r * cols, ws);
      else
        row_plan.forward(in + r * cols, ws.a.data() + r * cols, ws);
    }
  }
  if (!col_plan.fast()) {
    col_plan.fold_pass(ws.a.data(), out, cols, Dct1dPlan::Axis::kColumns,
                       invert, ws);
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
