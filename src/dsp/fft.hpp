// The DCT plans: one even/odd-folded kernel for the orthonormal DCT-II /
// DCT-III at every length N ≥ 1, behind the 1-D passes and both passes of
// the separable 2-D transform (dct2d_apply / idct2d_apply). The DCT basis of
// dsp::BasisTransform (basis.hpp) runs these 2-D passes, for every decode's
// operator and for the one-shot dsp::analyze / synthesize alike.
//
// The DCT-II basis is symmetric about the middle sample,
// D(k, N−1−i) = (−1)^k·D(k, i), so a forward pass sums and differences
// mirrored samples (u = x(i) + x(N−1−i), v = x(i) − x(N−1−i)) and
// multiplies u by the even rows and v by the odd rows of D, each a
// ⌈N/2⌉- or ⌊N/2⌋-wide half-table. The inverse is the mirror (two half
// products, then e ± o). Cost: N²/2 multiply-adds per 1-D pass, half the
// dense product, and N² doubles of tables (N² + 1 for odd N). The fold
// regroups the sums, so results match the dense product D·x at round-off,
// not bit for bit; the naive dsp::dct1d/idct1d remain the golden reference
// the plans are tested against (≤ 1e-12).
//
// The kernel is quadratic, yet it is never slower than the O(N log N)
// radix-2 FFT plan it replaced at any side the library decodes: a 2-D
// DCT-II + DCT-III pair on an n×n grid ran 5–6× faster at 16 and 32, 3× at
// 64, 1.4–1.8× at 128 and 1.03–1.12× at 256, and 0.56× at 512. The
// crossover lies between 256 and 512, and no caller decodes a side above
// 256 (EXPERIMENTS.md E35).
//
// Summation-order contract: every output of a half product is one sum that
// starts from +0.0 and adds its terms (table entry × folded sample) one at a
// time in ascending order. That order alone fixes the bits: a pass runs
// every product as a left product C = P·Q in a register-blocked micro-kernel
// (vector lanes across the panel's lanes, 3 output rows per block; a row
// pass first gathers its vectors into transposed panels, and a pass with
// fewer vectors than one SIMD vector has lanes runs each vector with the
// product transposed, its lanes over the outputs), and none of that moves a
// bit. test_fft's Dct1dPlan.KernelKeepsItsSummationOrder pins each ISA copy
// against a plain triple-loop reference.
//
// The folded kernel is built twice (fold_kernel.cpp, src/dsp/CMakeLists.txt):
// at the baseline ISA and with -mavx2, and fold_pass runs the AVX2 copy on
// hosts that have it (kernel_isa() names the choice). Each copy's vector
// width follows its ISA: 2 doubles (SSE2) in the baseline copy, 4 in the
// AVX2 copy. Both copies give the same bits, so AVX2 and older hosts decode
// a tile to the same pixels: each output adds its terms in the contract's
// order, AVX2 has no fused multiply-add (hence no -mfma, -march=x86-64-v3
// or -mavx512f, each of which lets GCC contract a*b+c), and GCC does not
// reassociate without -ffast-math. Only that one file carries -mavx2, and
// it keeps every symbol but its entry point internal: an inline or template
// function shared with other files would be a weak symbol the linker might
// take from the AVX2 object for every caller.
//
// All methods are const and touch only caller-provided workspace, so one
// plan can be shared across threads exactly like the operators that own it.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"

namespace flexcs::dsp {

/// Reusable scratch for plan applies and the 2-D passes. Buffers grow on
/// demand and are never shrunk; keep one per thread (or per batch) so hot
/// loops do not reallocate.
struct DctWorkspace {
  std::vector<double> fold, half;  // folded halves and their products
  std::vector<double> a;           // 2-D row-pass result
};

class Dct1dPlan {
 public:
  /// Builds the tables for length `n` (> 0, checked).
  explicit Dct1dPlan(std::size_t n);

  std::size_t size() const { return n_; }
  /// Bytes of cached table state, the folded half-tables: N² doubles for
  /// even N, N² + 1 for odd. What the bench reports as operator memory.
  std::size_t memory_bytes() const;

  /// Orthonormal DCT-II: out[u] = a_u Σ_x in[x] cos(π(2x+1)u / 2N).
  /// `in` and `out` are length-N arrays and must not alias.
  void forward(const double* in, double* out, DctWorkspace& ws) const;
  /// Orthonormal DCT-III, the exact inverse of forward. No aliasing.
  void inverse(const double* in, double* out, DctWorkspace& ws) const;

  /// Where the `lanes` length-N vectors of a fold_pass buffer lie. kRows:
  /// vector l is the contiguous run [l·N, l·N + N) (1-D passes, the 2-D row
  /// pass). kColumns: sample i of vector l is element i·lanes + l, an
  /// N×lanes row-major panel (the 2-D column pass, a left product).
  enum class Axis { kRows, kColumns };
  /// The kernel: DCT-II (or, with `invert`, DCT-III) of each of `lanes`
  /// vectors laid out by `axis`, even/odd folded. No aliasing.
  void fold_pass(const double* in, double* out, std::size_t lanes, Axis axis,
                 bool invert, DctWorkspace& ws) const;

 private:
  std::size_t n_;
  // The even/odd half-tables of D = dct_matrix(n) and their transposes,
  // row-major (fft.cpp has the layout).
  std::vector<double> half_;
  friend const double* fold_tables(const Dct1dPlan& plan);
};

/// The ISA the folded kernel runs at in this process: "avx2" or "baseline".
const char* kernel_isa();

/// Separable 2-D DCT-II of a rows×cols row-major buffer: one kRows
/// fold_pass of `row_plan` (size cols) over every row, then one kColumns
/// fold_pass of `col_plan` (size rows), the folded left product D_r·A, so
/// inner loops run over contiguous memory. The row pass reads all of `in`
/// into ws.a before the column pass writes `out`, so `in == out` runs in
/// place to the same bits; any other overlap is not allowed.
void dct2d_apply(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                 const double* in, double* out, std::size_t rows,
                 std::size_t cols, DctWorkspace& ws);

/// Inverse of dct2d_apply (separable 2-D DCT-III). `in == out` is allowed,
/// as there.
void idct2d_apply(const Dct1dPlan& row_plan, const Dct1dPlan& col_plan,
                  const double* in, double* out, std::size_t rows,
                  std::size_t cols, DctWorkspace& ws);

}  // namespace flexcs::dsp
