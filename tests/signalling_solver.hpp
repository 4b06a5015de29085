// A FISTA solver that raises a flag when a solve starts, so a test can
// cancel a frame it knows is mid-solve instead of racing a timer. Built with
// a huge iteration budget and tol = 0, the solve never converges on its own:
// only the caller's deadline or cancel token can stop it before
// `max_iterations`.
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "solvers/fista.hpp"

namespace flexcs::testing {

class SignallingSolver final : public solvers::SparseSolver {
 public:
  explicit SignallingSolver(int max_iterations)
      : inner_(unconvergeable(max_iterations)) {}

  std::string name() const override { return inner_.name(); }

  /// Blocks until some solve() has started.
  void wait_until_entered() const {
    while (!entered_.load())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

 protected:
  solvers::SolveResult solve_impl(
      const la::LinearOperator& a, const la::Vector& b,
      const solvers::SolveOptions& ctrl) const override {
    entered_.store(true);
    return inner_.solve(a, b, ctrl);
  }

 private:
  static solvers::FistaOptions unconvergeable(int max_iterations) {
    solvers::FistaOptions opts;
    opts.max_iterations = max_iterations;
    opts.tol = 0.0;
    return opts;
  }

  solvers::FistaSolver inner_;
  mutable std::atomic<bool> entered_{false};
};

}  // namespace flexcs::testing
