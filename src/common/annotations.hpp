// Clang Thread Safety Analysis annotations and annotated locking primitives.
//
// The locking discipline of the concurrent runtime (src/runtime/; today one
// mutex, ShardedDecoder's job hand-off) is expressed as compile-time contracts:
// every mutex-protected member names its mutex with FLEXCS_GUARDED_BY, every
// function that expects a lock held says so with FLEXCS_REQUIRES, and Clang
// (-Wthread-safety -Wthread-safety-beta, the `analyze` preset) proves every
// access site against those contracts. On non-Clang compilers the macros
// expand to nothing, so GCC builds are unaffected.
//
// Contracts only bind when the mutex type itself is a capability, which
// std::mutex is not — so concurrent code uses the annotated wrappers below
// (Mutex / MutexLock / CondVar) instead of <mutex> primitives directly.
// tools/flexcs_lint.py (rule `threading`) enforces that every mutex member
// declared in a header carries a FLEXCS_GUARDED_BY contract somewhere in
// that header.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define FLEXCS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FLEXCS_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// Type annotations.
#define FLEXCS_CAPABILITY(x) FLEXCS_THREAD_ANNOTATION(capability(x))
#define FLEXCS_SCOPED_CAPABILITY FLEXCS_THREAD_ANNOTATION(scoped_lockable)

// Data-member contracts: the member may only be read/written while `x` (a
// capability, i.e. a Mutex member) is held; PT_ is the pointee variant.
#define FLEXCS_GUARDED_BY(x) FLEXCS_THREAD_ANNOTATION(guarded_by(x))
#define FLEXCS_PT_GUARDED_BY(x) FLEXCS_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering contracts between mutex members.
#define FLEXCS_ACQUIRED_BEFORE(...) \
  FLEXCS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define FLEXCS_ACQUIRED_AFTER(...) \
  FLEXCS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function contracts: caller must hold / must not hold / acquires / releases.
#define FLEXCS_REQUIRES(...) \
  FLEXCS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FLEXCS_ACQUIRE(...) \
  FLEXCS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FLEXCS_RELEASE(...) \
  FLEXCS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define FLEXCS_TRY_ACQUIRE(...) \
  FLEXCS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define FLEXCS_EXCLUDES(...) FLEXCS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define FLEXCS_RETURN_CAPABILITY(x) FLEXCS_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions the analysis cannot follow (e.g. adopting a
// lock held across an opaque boundary). Use sparingly and say why.
#define FLEXCS_NO_THREAD_SAFETY_ANALYSIS \
  FLEXCS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace flexcs::common {

/// std::mutex wrapped as a Clang TSA capability. Drop-in for the runtime's
/// internal locking; satisfies BasicLockable, so it still composes with
/// standard algorithms if ever needed.
class FLEXCS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FLEXCS_ACQUIRE() { mu_.lock(); }
  void unlock() FLEXCS_RELEASE() { mu_.unlock(); }
  bool try_lock() FLEXCS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (std::lock_guard with a TSA contract). The
/// destructor releases whatever the scope still holds, so early returns are
/// proven correct by the analysis instead of by convention.
class FLEXCS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FLEXCS_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() FLEXCS_RELEASE() {
    if (held_) mu_.unlock();
  }

  /// Releases early (e.g. to notify a condition variable off-lock).
  void unlock() FLEXCS_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable paired with Mutex. Waits name the mutex explicitly so
/// the analysis can check the caller holds it; the mutex is re-held on
/// return, exactly like std::condition_variable. Predicate overloads are
/// deliberately absent: TSA cannot see through a predicate lambda into the
/// guarded members it reads, so waiting code writes the explicit
/// `while (!cond) cv.wait(mu);` loop, which the analysis *can* check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and re-acquires before returning.
  /// Spurious wakeups happen; always wait in a condition loop.
  void wait(Mutex& mu) FLEXCS_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // `mu` stays held, as the contract promises
  }

  /// Timed wait; returns false on timeout, true when notified (or spuriously
  /// woken). The mutex is re-held on return either way.
  bool wait_for_seconds(Mutex& mu, double seconds) FLEXCS_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    const auto status =
        cv_.wait_for(inner, std::chrono::duration<double>(seconds));
    inner.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace flexcs::common
