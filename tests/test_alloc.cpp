// Allocation pin for the FISTA hot loop. This binary replaces the global
// operator new with a counting one, so it runs on its own, apart from the
// other suites.
//
// A single-frame matrix-free FISTA iteration allocates nothing, over either
// basis: the gradient Aᵀ·A·y lands in a buffer the solve owns (the
// transform operator's fused normal apply works in its thread's scratch),
// and the shrink, the momentum step, the convergence maxima and the x/y
// write-back all run in preallocated buffers. A CG iteration of the debias
// re-fit allocates nothing either: its normal apply gathers into the buffer
// the CG solve owns, and neither does a step of the power iteration that
// estimates sigma_max. The operator's full synthesis allocates only the
// frame it returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>  // flexcs-lint: allow(raw-new-delete)

#include "common/rng.hpp"
#include "cs/sampling.hpp"
#include "cs/transform_operator.hpp"
#include "la/operator.hpp"
#include "solvers/fista.hpp"
#include "solvers/solver.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Kept out of line: inlined into a deleting destructor, the free() would sit
// next to a visible operator new, and GCC's -Wmismatched-new-delete flags
// the pair (the sanitizer builds inline it).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace flexcs::solvers {
namespace {

// Heap allocations made by one single-frame FISTA solve that runs exactly
// `iterations` iterations (tol = 0 never converges).
std::size_t allocations_for(const la::LinearOperator& a, const la::Vector& b,
                            int iterations) {
  FistaOptions opts;
  opts.tol = 0.0;
  opts.max_iterations = iterations;
  const FistaSolver solver(opts);
  SolveOptions ctrl;
  ctrl.operator_norm_hint = a.norm_upper_bound();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const SolveResult r = solver.solve(a, b, ctrl);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(r.iterations, iterations);
  EXPECT_FALSE(r.converged);
  return after - before;
}

TEST(FistaAllocations, NonePerIterationOnATransformOperator) {
  for (const auto basis : {dsp::BasisKind::kDct2D, dsp::BasisKind::kHaar2D}) {
    Rng rng(0xA110C);
    const cs::SubsampledTransformOperator op(
        basis, cs::random_pattern(20, 20, 0.5, rng));
    la::Vector b(op.rows());
    for (double& v : b) v = rng.normal();

    allocations_for(op, b, 4);  // warm the operator's thread-local workspace
    constexpr int kShort = 20, kLong = 60;
    const std::size_t short_run = allocations_for(op, b, kShort);
    const std::size_t long_run = allocations_for(op, b, kLong);
    // allocs(K2) == allocs(K1): no iteration allocates.
    EXPECT_EQ(long_run, short_run)
        << dsp::to_string(basis) << ": " << short_run << " allocations at "
        << kShort << " iterations, " << long_run << " at " << kLong;
  }
}

TEST(FistaAllocations, FixedSetupOfOneSolve) {
  // A solve allocates six buffers, once each: the result x, the momentum
  // point y, the gradient, A^T b, and the final residual's A x and A x - b.
  Rng rng(0xA110C);
  const cs::SubsampledTransformOperator op(
      dsp::BasisKind::kDct2D, cs::random_pattern(20, 20, 0.5, rng));
  la::Vector b(op.rows());
  for (double& v : b) v = rng.normal();

  allocations_for(op, b, 4);  // warm the operator's thread-local workspace
  constexpr int kIterations = 20;
  const std::size_t total = allocations_for(op, b, kIterations);
  EXPECT_EQ(total, 6u) << total << " allocations";
}

TEST(TransformOperatorAllocations, HaarSynthesizeAllocatesOnlyItsFrame) {
  // The decoder's final Ψ·x runs the in-place lifting in the thread's
  // workspace, writing straight into the returned frame.
  Rng rng(0x5A17);
  const cs::SubsampledTransformOperator op(
      dsp::BasisKind::kHaar2D, cs::random_pattern(32, 32, 0.5, rng));
  la::Vector x(op.cols());
  for (double& v : x) v = rng.normal();

  op.synthesize(x);  // warm the operator's thread-local workspace
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const la::Matrix frame = op.synthesize(x);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 1u) << after - before << " allocations";
  EXPECT_EQ(frame.rows(), 32u);
}

TEST(PowerIterationAllocations, NonePerStepOnATransformOperator) {
  // la::operator_norm_estimate runs its power iteration through
  // apply_normal into one buffer it reuses, so its step count does not
  // change how often it allocates.
  Rng rng(0x90E7);
  const cs::SubsampledTransformOperator op(
      dsp::BasisKind::kDct2D, cs::random_pattern(20, 20, 0.5, rng));
  const auto allocations = [&op](int iters) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const double sigma = la::operator_norm_estimate(op, iters);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_GT(sigma, 0.0);
    return after - before;
  };
  allocations(4);  // warm the operator's thread-local workspace
  constexpr int kShort = 20, kLong = 60;
  const std::size_t short_run = allocations(kShort);
  const std::size_t long_run = allocations(kLong);
  EXPECT_EQ(long_run, short_run)
      << short_run << " allocations at " << kShort << " steps, " << long_run
      << " at " << kLong;
}

// Heap allocations made by one debias re-fit whose stop hook fires at its
// `polls`-th poll: one poll before the re-fit, then one per CG iteration,
// so the CG runs polls - 2 iterations.
std::size_t refit_allocations(const la::LinearOperator& a, const la::Vector& b,
                              const la::Vector& x, int polls) {
  int count = 0;
  const std::function<bool()> stop = [&count, polls] {
    return ++count >= polls;
  };
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const la::Vector fit = debias_on_support(a, b, x, 1e-3, stop);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(fit.empty()) << "the re-fit converged before its stop";
  EXPECT_EQ(count, polls);
  return after - before;
}

TEST(DebiasAllocations, NonePerCgIterationOnATransformOperator) {
  // A random iterate with most entries above the threshold: the support
  // fills the operator's rows, so CG is far from converged at 40
  // iterations.
  Rng rng(0xDEB1A5);
  const cs::SubsampledTransformOperator op(
      dsp::BasisKind::kDct2D, cs::random_pattern(20, 20, 0.5, rng));
  la::Vector b(op.rows()), x(op.cols());
  for (double& v : b) v = rng.normal();
  for (double& v : x) v = rng.normal();

  refit_allocations(op, b, x, 6);  // warm the operator's thread-local workspace
  constexpr int kShort = 12, kLong = 42;
  const std::size_t short_run = refit_allocations(op, b, x, kShort);
  const std::size_t long_run = refit_allocations(op, b, x, kLong);
  EXPECT_EQ(long_run, short_run)
      << short_run << " allocations at " << kShort - 2 << " CG iterations, "
      << long_run << " at " << kLong - 2;
}

}  // namespace
}  // namespace flexcs::solvers
