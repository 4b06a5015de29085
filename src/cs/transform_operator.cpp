#include "cs/transform_operator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dsp/wavelet.hpp"

namespace flexcs::cs {

// Per-thread workspace: the operator is shared across decode threads, so the
// scratch cannot live on the (const) operator itself. One thread-local set
// of buffers serves every operator instance on that thread; buffers only
// grow, so a steady-state decode loop never reallocates.
struct SubsampledTransformOperator::Scratch {
  dsp::DctWorkspace dct;
  std::vector<double> grid;  // coefficient / frame grid (n doubles)
  std::vector<double> haar;  // in-place Haar scratch (half-plane)
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

TransformPlans::TransformPlans(dsp::BasisKind basis_kind, std::size_t n_rows,
                               std::size_t n_cols)
    : basis(basis_kind), rows(n_rows), cols(n_cols) {
  FLEXCS_CHECK(rows > 0 && cols > 0, "TransformPlans: empty grid");
  if (basis == dsp::BasisKind::kDct2D) {
    row_plan_.emplace(cols);
    if (rows != cols) col_plan_.emplace(rows);
  } else {
    // Haar dimension constraints surface at construction, not mid-solve —
    // validated directly (no throwaway matrix, no probe transform).
    haar_levels = std::min(dsp::max_haar_levels(rows),
                           dsp::max_haar_levels(cols));
    FLEXCS_CHECK(haar_levels >= 1, "Haar basis requires even dimensions");
  }
}

std::size_t TransformPlans::memory_bytes() const {
  std::size_t bytes = 0;
  if (row_plan_) bytes += row_plan_->memory_bytes();
  if (col_plan_) bytes += col_plan_->memory_bytes();
  return bytes;
}

SubsampledTransformOperator::SubsampledTransformOperator(
    std::shared_ptr<const TransformPlans> plans, SamplingPattern pattern)
    : plans_(std::move(plans)), pattern_(std::move(pattern)) {
  FLEXCS_CHECK(plans_ != nullptr, "SubsampledTransformOperator: no plans");
  FLEXCS_CHECK(pattern_.rows == plans_->rows && pattern_.cols == plans_->cols,
               "SubsampledTransformOperator: pattern grid differs from the "
               "plans' grid");
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
          std::make_shared<const TransformPlans>(basis, pattern.rows,
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
  const std::size_t rows = pattern_.rows, cols = pattern_.cols;
  const std::size_t n = pattern_.n();
  ws.grid.resize(n);
  if (basis() == dsp::BasisKind::kDct2D) {
    // The DCT synthesis reads x as const and writes a separate grid.
    dsp::idct2d_apply(plans_->row_plan(), plans_->col_plan(), x, ws.grid.data(),
                      rows, cols, ws.dct);
  } else {
    // Haar lifting runs in place, so it synthesises a copy of x.
    std::copy(x, x + n, ws.grid.begin());
    dsp::ihaar2d_inplace(ws.grid.data(), rows, cols, plans_->haar_levels,
                         ws.haar);
  }
  const double* frame = ws.grid.data();
  const std::size_t m = pattern_.indices.size();
  for (std::size_t k = 0; k < m; ++k) y[k] = frame[pattern_.indices[k]];
}

void SubsampledTransformOperator::adjoint_into(const double* y, double* x,
                                               Scratch& ws) const {
  const std::size_t rows = pattern_.rows, cols = pattern_.cols;
  const std::size_t n = pattern_.n();
  const std::size_t m = pattern_.indices.size();
  if (basis() == dsp::BasisKind::kDct2D) {
    ws.grid.assign(n, 0.0);
    for (std::size_t k = 0; k < m; ++k) ws.grid[pattern_.indices[k]] = y[k];
    dsp::dct2d_apply(plans_->row_plan(), plans_->col_plan(), ws.grid.data(), x,
                     rows, cols, ws.dct);
  } else {
    // Haar analyses in place: scatter straight into the output grid.
    std::fill(x, x + n, 0.0);
    for (std::size_t k = 0; k < m; ++k) x[pattern_.indices[k]] = y[k];
    dsp::haar2d_inplace(x, rows, cols, plans_->haar_levels, ws.haar);
  }
}

void SubsampledTransformOperator::zero_unsampled(double* frame) const {
  for (std::size_t i = 0; i < sampled_bits_.size(); ++i)
    frame[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(frame[i]) &
                                     sampled_bits_[i]);
}

la::Matrix SubsampledTransformOperator::synthesize(const la::Vector& x) const {
  FLEXCS_CHECK(x.size() == cols(),
               "SubsampledTransformOperator::synthesize shape mismatch");
  const std::size_t rows = pattern_.rows, cols = pattern_.cols;
  if (basis() != dsp::BasisKind::kDct2D)
    return dsp::synthesize(basis(), la::Matrix::from_flat(x, rows, cols));
  la::Matrix frame(rows, cols);
  dsp::idct2d_apply(plans_->row_plan(), plans_->col_plan(), x.data(),
                    frame.data(), rows, cols, local_scratch().dct);
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
  const std::size_t rows = pattern_.rows, cols = pattern_.cols;
  const std::size_t n = pattern_.n();
  out.resize(n);
  Scratch& ws = local_scratch();
  // The sampled pixels carry exactly the values apply() gathers and
  // apply_adjoint() scatters back, and every other pixel is +0.0 in both,
  // so the analysis sees the same grid bit for bit.
  if (basis() == dsp::BasisKind::kDct2D) {
    ws.grid.resize(n);
    dsp::idct2d_apply(plans_->row_plan(), plans_->col_plan(), x.data(),
                      ws.grid.data(), rows, cols, ws.dct);
    zero_unsampled(ws.grid.data());
    dsp::dct2d_apply(plans_->row_plan(), plans_->col_plan(), ws.grid.data(),
                     out.data(), rows, cols, ws.dct);
  } else {
    std::copy(x.begin(), x.end(), out.begin());
    dsp::ihaar2d_inplace(out.data(), rows, cols, plans_->haar_levels, ws.haar);
    zero_unsampled(out.data());
    dsp::haar2d_inplace(out.data(), rows, cols, plans_->haar_levels, ws.haar);
  }
  const std::uint64_t ns = elapsed_ns(t0);
  apply_count_.fetch_add(1, std::memory_order_relaxed);
  adjoint_count_.fetch_add(1, std::memory_order_relaxed);
  apply_ns_.fetch_add(ns / 2, std::memory_order_relaxed);
  adjoint_ns_.fetch_add(ns - ns / 2, std::memory_order_relaxed);
}

}  // namespace flexcs::cs
