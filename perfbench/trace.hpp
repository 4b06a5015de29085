// Benchmark-side tracing: decorators around the solver and the measurement
// operator that count and time every call the runtime makes into them, with
// the counters kept in a MAP_SHARED page so forked workers (socketpair,
// respawned, and loopback TCP alike) report into the same totals as the
// benchmark process. Nothing here changes what the decorated objects
// compute: every call is forwarded verbatim, so a traced decode is
// bit-identical to an untraced one (the benchmark checks this by digest).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/operator.hpp"
#include "solvers/solver.hpp"

namespace perfbench {

/// Cumulative call counts and wall times, in nanoseconds. Lives in shared
/// memory, so every member must be lock-free across processes.
struct LayerCounters {
  std::atomic<std::uint64_t> solves{0};
  std::atomic<std::uint64_t> solve_iterations{0};
  std::atomic<std::uint64_t> solve_ns{0};
  std::atomic<std::uint64_t> applies{0};  // apply + adjoint, batch elements
  std::atomic<std::uint64_t> apply_ns{0};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared counters need lock-free 64-bit atomics");

/// Plain snapshot of LayerCounters, for differences between two reads.
struct CounterSnapshot {
  std::uint64_t solves = 0;
  std::uint64_t solve_iterations = 0;
  std::uint64_t solve_ns = 0;
  std::uint64_t applies = 0;
  std::uint64_t apply_ns = 0;

  CounterSnapshot operator-(const CounterSnapshot& base) const;
};

/// Owns one anonymous MAP_SHARED page holding a LayerCounters. Create it
/// before the executor forks its workers; children inherit the mapping.
class SharedCounters {
 public:
  SharedCounters();
  ~SharedCounters();
  SharedCounters(const SharedCounters&) = delete;
  SharedCounters& operator=(const SharedCounters&) = delete;

  LayerCounters& get() const { return *counters_; }
  CounterSnapshot snapshot() const;

 private:
  void* page_ = nullptr;
  LayerCounters* counters_ = nullptr;
};

/// Forwards every LinearOperator virtual to `inner` and times apply /
/// apply_adjoint (single and batched).
class TimedOperator final : public flexcs::la::LinearOperator {
 public:
  TimedOperator(const flexcs::la::LinearOperator& inner, LayerCounters& c)
      : inner_(inner), counters_(c) {}

  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  flexcs::la::Vector apply(const flexcs::la::Vector& x) const override;
  flexcs::la::Vector apply_adjoint(const flexcs::la::Vector& y) const override;
  std::vector<flexcs::la::Vector> apply_batch(
      const std::vector<flexcs::la::Vector>& xs) const override;
  std::vector<flexcs::la::Vector> apply_adjoint_batch(
      const std::vector<flexcs::la::Vector>& ys) const override;
  const flexcs::la::Matrix* dense() const override { return inner_.dense(); }
  double norm_upper_bound() const override {
    return inner_.norm_upper_bound();
  }

 private:
  const flexcs::la::LinearOperator& inner_;
  LayerCounters& counters_;
};

/// Forwards every solve to `inner` through its public solve / solve_batch,
/// handing it a TimedOperator, and counts solves, iterations and wall time.
class TracingSolver final : public flexcs::solvers::SparseSolver {
 public:
  TracingSolver(std::shared_ptr<const flexcs::solvers::SparseSolver> inner,
                LayerCounters& c)
      : inner_(std::move(inner)), counters_(c) {}

  std::string name() const override { return inner_->name(); }

 protected:
  flexcs::solvers::SolveResult solve_impl(
      const flexcs::la::LinearOperator& a, const flexcs::la::Vector& b,
      const flexcs::solvers::SolveOptions& ctrl) const override;
  std::vector<flexcs::solvers::SolveResult> solve_batch_impl(
      const flexcs::la::LinearOperator& a,
      const std::vector<flexcs::la::Vector>& bs,
      const flexcs::solvers::SolveOptions& ctrl) const override;

 private:
  std::shared_ptr<const flexcs::solvers::SparseSolver> inner_;
  LayerCounters& counters_;
};

}  // namespace perfbench
