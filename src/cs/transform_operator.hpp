// Matrix-free measurement operator A = Φ_M · Ψ (Eq. 8): the subsampled
// synthesis transform applied through separable transform kernels instead
// of a dense M x N matrix.
//
//   apply(x)         = gather(synthesize(x), pattern indices)
//   apply_adjoint(y) = analyze(scatter(y, pattern indices))
//
// The adjoint identity holds exactly because Φ_Mᵀ is scatter and Ψᵀ is the
// analysis transform of an orthonormal basis. Ψ is a dsp::BasisTransform
// shared by every operator over the grid (the DCT plans — dsp::Dct1dPlan,
// one even/odd-folded kernel at every length: the DCT basis's mirror
// symmetry halves the multiply-adds of the dense 1-D product, equal to it
// at round-off, not bit for bit — or the in-place lifting Haar), running on
// raw contiguous buffers with no Matrix::from_flat round-trips, and the
// operator never asks which basis it holds: a 256×256 DCT apply is ~2.5 ms
// of register-blocked products over 512 KB of plan tables, where the dense Ψ
// (~34 GB) cannot be built at all.
//
// Every apply is metered (count + wall time, relaxed atomics) so callers can
// account per-apply cost without external profilers: see apply_stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cs/sampling.hpp"
#include "dsp/basis.hpp"
#include "la/operator.hpp"

namespace flexcs::cs {

class SubsampledTransformOperator final : public la::LinearOperator {
 public:
  /// Φ_M over a shared transform. Pattern indices must be strictly
  /// increasing row-major pixel indices inside the transform's rows x cols
  /// grid (same contract as apply_pattern).
  SubsampledTransformOperator(
      std::shared_ptr<const dsp::BasisTransform> transform,
      SamplingPattern pattern);
  /// Same, building its own transform for the pattern's grid.
  SubsampledTransformOperator(dsp::BasisKind basis, SamplingPattern pattern);

  std::size_t rows() const override { return pattern_.m(); }
  std::size_t cols() const override { return pattern_.n(); }
  la::Vector apply(const la::Vector& x) const override;
  la::Vector apply_adjoint(const la::Vector& y) const override;
  /// Aᵀ·A·x as synthesis, zeroing the unsampled pixels, analysis: no gather
  /// or scatter, no allocation once `out` and the thread's scratch are
  /// sized, and the bits of apply_adjoint(apply(x)). Metered as one apply
  /// and one adjoint, the wall time split evenly between them.
  void apply_normal(const la::Vector& x, la::Vector& out) const override;
  /// sigma_max(Φ_M Ψ) = 1 exactly: A·Aᵀ = Φ_M·Ψ·Ψᵀ·Φ_Mᵀ = I_M for an
  /// orthonormal Ψ, so A is a tight frame and every singular value is 1.
  /// The decoder passes this as FISTA's Lipschitz bound in place of a power
  /// iteration.
  double norm_upper_bound() const override { return 1.0; }

  /// The full synthesis Ψ·x as a rows×cols frame: apply() without the
  /// gather. Not metered in apply_stats().
  la::Matrix synthesize(const la::Vector& x) const;

  dsp::BasisKind basis() const { return transform_->basis(); }
  const SamplingPattern& pattern() const { return pattern_; }

  /// Bytes of transform state (DCT plan tables; Haar needs none). The bench
  /// reports this as the implicit operator's memory footprint.
  std::size_t cached_state_bytes() const {
    return transform_->memory_bytes();
  }

  /// Per-apply cost accounting: cumulative apply/adjoint counts and wall
  /// time since construction. Counters are relaxed atomics — cheap enough
  /// to stay on in production, coherent snapshots under concurrent decode.
  struct ApplyStats {
    std::uint64_t applies = 0;
    std::uint64_t adjoints = 0;
    double apply_seconds = 0.0;
    double adjoint_seconds = 0.0;
  };
  ApplyStats apply_stats() const;

 private:
  // Unchecked kernels (shape validated by the public wrappers); `ws` holds
  // the thread's grid and transform workspace.
  struct Scratch;
  static Scratch& local_scratch();
  void apply_into(const double* x, double* y, Scratch& ws) const;
  void adjoint_into(const double* y, double* x, Scratch& ws) const;
  // Zeroes every pixel of a rows×cols frame that the pattern does not read.
  void zero_unsampled(double* frame) const;

  std::shared_ptr<const dsp::BasisTransform> transform_;
  SamplingPattern pattern_;
  // Per pixel of the grid: all bits set where the pattern reads it, none
  // elsewhere. ANDing a frame with it keeps the sampled pixels' bits and
  // makes every other pixel +0.0, exactly what a gather and a scatter leave.
  std::vector<std::uint64_t> sampled_bits_;

  mutable std::atomic<std::uint64_t> apply_count_{0};
  mutable std::atomic<std::uint64_t> adjoint_count_{0};
  mutable std::atomic<std::uint64_t> apply_ns_{0};
  mutable std::atomic<std::uint64_t> adjoint_ns_{0};
};

}  // namespace flexcs::cs
