#include "cs/transform_operator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace flexcs::cs {

// Per-thread workspace: the operator is shared across decode threads, so the
// scratch cannot live on the (const) operator itself. One thread-local set
// of buffers serves every operator instance on that thread; buffers only
// grow, so a steady-state decode loop never reallocates.
struct SubsampledTransformOperator::Scratch {
  std::vector<double> grid;  // apply()'s frame before the gather (n doubles)
  dsp::BasisWorkspace basis;
};

SubsampledTransformOperator::Scratch&
SubsampledTransformOperator::local_scratch() {
  thread_local Scratch s;
  return s;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           t0)
          .count());
}

}  // namespace

SubsampledTransformOperator::SubsampledTransformOperator(
    std::shared_ptr<const dsp::BasisTransform> transform,
    SamplingPattern pattern)
    : transform_(std::move(transform)), pattern_(std::move(pattern)) {
  FLEXCS_CHECK(transform_ != nullptr,
               "SubsampledTransformOperator: no transform");
  FLEXCS_CHECK(pattern_.rows == transform_->rows() &&
                   pattern_.cols == transform_->cols(),
               "SubsampledTransformOperator: pattern grid differs from the "
               "transform's grid");
  FLEXCS_CHECK(!pattern_.indices.empty(),
               "SubsampledTransformOperator: empty sampling pattern");
  const std::size_t n = pattern_.n();
  sampled_bits_.assign(n, 0);
  std::size_t prev = 0;
  for (std::size_t k = 0; k < pattern_.indices.size(); ++k) {
    const std::size_t idx = pattern_.indices[k];
    FLEXCS_CHECK(idx < n, "SubsampledTransformOperator: index out of range");
    FLEXCS_CHECK(k == 0 || idx > prev,
                 "SubsampledTransformOperator: indices not strictly increasing");
    sampled_bits_[idx] = ~std::uint64_t{0};
    prev = idx;
  }
}

SubsampledTransformOperator::SubsampledTransformOperator(dsp::BasisKind basis,
                                                         SamplingPattern pattern)
    : SubsampledTransformOperator(
          std::make_shared<const dsp::BasisTransform>(basis, pattern.rows,
                                                      pattern.cols),
          std::move(pattern)) {}

SubsampledTransformOperator::ApplyStats
SubsampledTransformOperator::apply_stats() const {
  ApplyStats s;
  s.applies = apply_count_.load(std::memory_order_relaxed);
  s.adjoints = adjoint_count_.load(std::memory_order_relaxed);
  s.apply_seconds =
      static_cast<double>(apply_ns_.load(std::memory_order_relaxed)) * 1e-9;
  s.adjoint_seconds =
      static_cast<double>(adjoint_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void SubsampledTransformOperator::apply_into(const double* x, double* y,
                                             Scratch& ws) const {
  ws.grid.resize(pattern_.n());
  transform_->synthesize(x, ws.grid.data(), ws.basis);
  const double* frame = ws.grid.data();
  const std::size_t m = pattern_.indices.size();
  for (std::size_t k = 0; k < m; ++k) y[k] = frame[pattern_.indices[k]];
}

void SubsampledTransformOperator::adjoint_into(const double* y, double* x,
                                               Scratch& ws) const {
  // Scatter the measurements into x's grid and analyse it in place.
  std::fill(x, x + pattern_.n(), 0.0);
  const std::size_t m = pattern_.indices.size();
  for (std::size_t k = 0; k < m; ++k) x[pattern_.indices[k]] = y[k];
  transform_->analyze(x, x, ws.basis);
}

void SubsampledTransformOperator::zero_unsampled(double* frame) const {
  for (std::size_t i = 0; i < sampled_bits_.size(); ++i)
    frame[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(frame[i]) &
                                     sampled_bits_[i]);
}

la::Matrix SubsampledTransformOperator::synthesize(const la::Vector& x) const {
  FLEXCS_CHECK(x.size() == cols(),
               "SubsampledTransformOperator::synthesize shape mismatch");
  la::Matrix frame(pattern_.rows, pattern_.cols);
  transform_->synthesize(x.data(), frame.data(), local_scratch().basis);
  return frame;
}

la::Vector SubsampledTransformOperator::apply(const la::Vector& x) const {
  FLEXCS_CHECK(x.size() == cols(),
               "SubsampledTransformOperator::apply shape mismatch");
  const auto t0 = SteadyClock::now();
  la::Vector y(pattern_.m());
  apply_into(x.data(), y.data(), local_scratch());
  apply_count_.fetch_add(1, std::memory_order_relaxed);
  apply_ns_.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  return y;
}

la::Vector SubsampledTransformOperator::apply_adjoint(const la::Vector& y) const {
  FLEXCS_CHECK(y.size() == rows(),
               "SubsampledTransformOperator::apply_adjoint shape mismatch");
  const auto t0 = SteadyClock::now();
  la::Vector x(pattern_.n());
  adjoint_into(y.data(), x.data(), local_scratch());
  adjoint_count_.fetch_add(1, std::memory_order_relaxed);
  adjoint_ns_.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  return x;
}

void SubsampledTransformOperator::apply_normal(const la::Vector& x,
                                               la::Vector& out) const {
  FLEXCS_CHECK(x.size() == cols(),
               "SubsampledTransformOperator::apply_normal shape mismatch");
  const auto t0 = SteadyClock::now();
  const std::size_t n = pattern_.n();
  out.resize(n);
  Scratch& ws = local_scratch();
  // The frame is synthesised into `out`, masked, and analysed in place. The
  // sampled pixels carry exactly the values apply() gathers and
  // apply_adjoint() scatters back, and every other pixel is +0.0 in both,
  // so the analysis sees the same grid bit for bit.
  transform_->synthesize(x.data(), out.data(), ws.basis);
  zero_unsampled(out.data());
  transform_->analyze(out.data(), out.data(), ws.basis);
  const std::uint64_t ns = elapsed_ns(t0);
  apply_count_.fetch_add(1, std::memory_order_relaxed);
  adjoint_count_.fetch_add(1, std::memory_order_relaxed);
  apply_ns_.fetch_add(ns / 2, std::memory_order_relaxed);
  adjoint_ns_.fetch_add(ns - ns / 2, std::memory_order_relaxed);
}

}  // namespace flexcs::cs
