#include "trace.hpp"

#include <sys/mman.h>

#include <chrono>
#include <new>

#include "common/check.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

void count_applies(LayerCounters& c, std::size_t n, Clock::time_point start) {
  c.apply_ns.fetch_add(ns_since(start), std::memory_order_relaxed);
  c.applies.fetch_add(n, std::memory_order_relaxed);
}

void count_solve(LayerCounters& c, const flexcs::solvers::SolveResult& r) {
  c.solve_iterations.fetch_add(static_cast<std::uint64_t>(r.iterations),
                               std::memory_order_relaxed);
  c.solves.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& base) const {
  CounterSnapshot d;
  d.solves = solves - base.solves;
  d.solve_iterations = solve_iterations - base.solve_iterations;
  d.solve_ns = solve_ns - base.solve_ns;
  d.applies = applies - base.applies;
  d.apply_ns = apply_ns - base.apply_ns;
  return d;
}

SharedCounters::SharedCounters() {
  page_ = ::mmap(nullptr, sizeof(LayerCounters), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  FLEXCS_CHECK(page_ != MAP_FAILED, "perfbench: shared counter mmap failed");
  counters_ = new (page_) LayerCounters();
}

SharedCounters::~SharedCounters() {
  counters_->~LayerCounters();
  ::munmap(page_, sizeof(LayerCounters));
}

CounterSnapshot SharedCounters::snapshot() const {
  CounterSnapshot s;
  s.solves = counters_->solves.load();
  s.solve_iterations = counters_->solve_iterations.load();
  s.solve_ns = counters_->solve_ns.load();
  s.applies = counters_->applies.load();
  s.apply_ns = counters_->apply_ns.load();
  return s;
}

flexcs::la::Vector TimedOperator::apply(const flexcs::la::Vector& x) const {
  const Clock::time_point start = Clock::now();
  flexcs::la::Vector y = inner_.apply(x);
  count_applies(counters_, 1, start);
  return y;
}

flexcs::la::Vector TimedOperator::apply_adjoint(
    const flexcs::la::Vector& y) const {
  const Clock::time_point start = Clock::now();
  flexcs::la::Vector x = inner_.apply_adjoint(y);
  count_applies(counters_, 1, start);
  return x;
}

std::vector<flexcs::la::Vector> TimedOperator::apply_batch(
    const std::vector<flexcs::la::Vector>& xs) const {
  const Clock::time_point start = Clock::now();
  std::vector<flexcs::la::Vector> ys = inner_.apply_batch(xs);
  count_applies(counters_, xs.size(), start);
  return ys;
}

std::vector<flexcs::la::Vector> TimedOperator::apply_adjoint_batch(
    const std::vector<flexcs::la::Vector>& ys) const {
  const Clock::time_point start = Clock::now();
  std::vector<flexcs::la::Vector> xs = inner_.apply_adjoint_batch(ys);
  count_applies(counters_, ys.size(), start);
  return xs;
}

flexcs::solvers::SolveResult TracingSolver::solve_impl(
    const flexcs::la::LinearOperator& a, const flexcs::la::Vector& b,
    const flexcs::solvers::SolveOptions& ctrl) const {
  const TimedOperator timed(a, counters_);
  const Clock::time_point start = Clock::now();
  flexcs::solvers::SolveResult r = inner_->solve(timed, b, ctrl);
  counters_.solve_ns.fetch_add(ns_since(start), std::memory_order_relaxed);
  count_solve(counters_, r);
  return r;
}

std::vector<flexcs::solvers::SolveResult> TracingSolver::solve_batch_impl(
    const flexcs::la::LinearOperator& a,
    const std::vector<flexcs::la::Vector>& bs,
    const flexcs::solvers::SolveOptions& ctrl) const {
  const TimedOperator timed(a, counters_);
  const Clock::time_point start = Clock::now();
  std::vector<flexcs::solvers::SolveResult> rs =
      inner_->solve_batch(timed, bs, ctrl);
  counters_.solve_ns.fetch_add(ns_since(start), std::memory_order_relaxed);
  for (const flexcs::solvers::SolveResult& r : rs) count_solve(counters_, r);
  return rs;
}

}  // namespace perfbench
