// Cooperative deadline and cancellation primitives for bounded-latency
// decoding. A Deadline is a monotonic-clock expiry instant; a CancelToken is
// the read side of a shared cancellation flag (flipped by a CancelSource,
// e.g. the stream watchdog). Both are cheap, copyable values designed to be
// threaded through solver options and polled once per iteration of every
// iterative kernel (solvers/, rpca/, lp/), so a solve whose budget runs out
// stops at the next iteration boundary and returns its best partial iterate
// instead of running to the iteration cap.
//
// Header-only on purpose: the lower layers (lp, solvers, rpca) include this
// without linking flexcs_runtime, keeping the library dependency order
// unchanged. No threads live here; all thread creation stays in
// src/runtime/ (enforced by tools/flexcs_lint.py, rule threading).
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

namespace flexcs::runtime {

/// Wall-clock expiry instant on the monotonic clock. Default-constructed
/// deadlines are unlimited (never expire), so plumbing one through an API
/// costs nothing for callers that do not set it.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // unlimited

  /// Deadline `seconds` from now. Zero, negative and NaN give one that has
  /// already expired; a span past the clock's range (+inf included) gives an
  /// unlimited one, so no value reaches an out-of-range duration cast.
  static Deadline after(double seconds) {
    const Clock::time_point now = Clock::now();
    if (!(seconds > 0.0)) return Deadline(now);
    // One second of slack absorbs the rounding of the int64 tick count to
    // double, so any span below `room` converts in range.
    const double room = std::chrono::duration<double>(
                            Clock::time_point::max() - now -
                            std::chrono::seconds(1))
                            .count();
    if (seconds >= room) return Deadline();
    return Deadline(now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)));
  }

  /// Deadline at an absolute monotonic-clock instant.
  static Deadline at(Clock::time_point when) { return Deadline(when); }

  bool unlimited() const { return !armed_; }
  bool expired() const { return armed_ && Clock::now() >= when_; }

  /// Seconds until expiry: +inf when unlimited, <= 0 once expired.
  double remaining_seconds() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ - Clock::now()).count();
  }

  /// Expiry instant; meaningless when unlimited().
  Clock::time_point when() const { return when_; }

 private:
  explicit Deadline(Clock::time_point when) : armed_(true), when_(when) {}

  bool armed_ = false;
  Clock::time_point when_{};
};

/// Read side of a cancellation flag. Default-constructed tokens are inert
/// (never report cancellation); live tokens come from CancelSource::token().
class CancelToken {
 public:
  CancelToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side of a cancellation flag. cancel() is sticky (no un-cancel) and
/// safe to call from any thread; outstanding tokens observe it at their next
/// poll. Copying a source shares the flag.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace flexcs::runtime
