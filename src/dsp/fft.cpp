#include "dsp/fft.hpp"

#include "common/check.hpp"
#include "dsp/dct.hpp"
#include "dsp/fold_kernel.hpp"

namespace flexcs::dsp {
namespace {

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

}  // namespace

Dct1dPlan::Dct1dPlan(std::size_t n) : n_(n) {
  FLEXCS_CHECK(n > 0, "Dct1dPlan requires n > 0");
  // The folded half-tables of D = dct_matrix(n), laid out [E | Eᵀ | O | Oᵀ]
  // with E(k, i) = D(2k, i) and O(k, i) = D(2k+1, i). The naive
  // dct1d/idct1d stay the golden reference for every N.
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
}

std::size_t Dct1dPlan::memory_bytes() const {
  return sizeof(double) * half_.size();
}

void Dct1dPlan::forward(const double* in, double* out,
                        DctWorkspace& ws) const {
  fold_pass(in, out, 1, Axis::kRows, /*invert=*/false, ws);
}

void Dct1dPlan::inverse(const double* in, double* out,
                        DctWorkspace& ws) const {
  fold_pass(in, out, 1, Axis::kRows, /*invert=*/true, ws);
}

void Dct1dPlan::fold_pass(const double* in, double* out, std::size_t lanes,
                          Axis axis, bool invert, DctWorkspace& ws) const {
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

// Shared body of the 2-D helpers: one fold_pass over every row (kRows),
// then one over every column (kColumns, the left product D_r·A or D_rᵀ·A
// straight into `out`).
void separable_2d(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                  const double* in, double* out, std::size_t rows,
                  std::size_t cols, DctWorkspace& ws, bool invert) {
  ws.a.resize(rows * cols);
  row_plan.fold_pass(in, ws.a.data(), rows, Dct1dPlan::Axis::kRows, invert,
                     ws);
  col_plan.fold_pass(ws.a.data(), out, cols, Dct1dPlan::Axis::kColumns,
                     invert, ws);
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
