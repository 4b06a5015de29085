// Deadline-aware concurrent streaming runtime: fans frames from N producer
// streams across a pool of worker threads, each owning one RobustPipeline
// (the pipeline is documented "not thread-safe; one instance per stream" —
// here one instance per *worker*, fed through a bounded MPMC queue).
//
// Backpressure when the queue is full is selectable:
//
//   Block       submit() waits until a slot frees (producers throttle);
//   DropOldest  the oldest queued frame is evicted and counted dropped;
//   Degrade     submit() blocks like Block, but workers cheapen frames as
//               queue depth rises — shrinking the per-frame ladder budget,
//               capping the ladder at cheaper rungs, and tightening the
//               solve deadline — so the queue drains instead of growing.
//
// Every frame is processed under a cooperative Deadline. Under Block and
// DropOldest it is a processing deadline measured from dequeue (queueing
// time is reported separately as part of the submit→complete latency), so a
// backlog inflates the tail. Under Degrade the frame deadline is treated as
// an end-to-end budget: time already spent queued is subtracted from the
// processing deadline (floored at a fraction of it), which is what bounds
// p99 latency under overload. A watchdog thread scans in-flight frames and
// cancels any that run past a hard multiple of the deadline, surfacing them
// as stalls in StreamHealth.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "runtime/deadline.hpp"
#include "runtime/pipeline.hpp"

namespace flexcs::runtime {

enum class BackpressurePolicy { kBlock, kDropOldest, kDegrade };

/// Short stable identifier, e.g. "block" or "degrade".
const char* backpressure_policy_name(BackpressurePolicy policy);

/// Percentile with linear interpolation between order statistics (the
/// "exclusive" definition used by numpy's default): p50 of {1, 2} is 1.5,
/// not 2. `q` in [0, 1]; an empty sample reports 0. Exposed for tests and
/// for benchmarks that summarise their own latency samples the same way
/// StreamHealth does.
double latency_percentile(std::vector<double> values, double q);

/// Latency histogram of constant size: log-spaced buckets, 40 per decade
/// from 1 us to 1000 s (each 6 % wide), plus one underflow and one overflow
/// bucket. percentile() returns the geometric centre of the bucket holding
/// the nearest-rank sample, so in range it lies within half a bucket of that
/// sample.
class LatencyHistogram {
 public:
  static constexpr int kPerDecade = 40;
  static constexpr double kLowest = 1e-6;  // seconds
  static constexpr std::size_t kBuckets = 9 * kPerDecade + 2;  // 9 decades

  void add(double seconds);
  /// `q` in [0, 1]; an empty histogram reports 0.
  double percentile(double q) const;
  std::uint64_t count() const { return count_; }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

struct StreamOptions {
  std::size_t workers = 2;         // worker threads (>= 1)
  std::size_t queue_capacity = 8;  // bounded MPMC queue slots (>= 1)
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  // Per-frame processing deadline in seconds, measured from dequeue.
  // <= 0 disables the deadline (frames run to the ladder budget).
  double frame_deadline_seconds = 0.0;
  // Watchdog: a frame in flight longer than
  //   max(4 * effective deadline, stall_floor_seconds)
  // is cancelled and counted as a stall. stall_floor_seconds = 0 means the
  // watchdog only engages when a frame deadline is set.
  double stall_floor_seconds = 0.0;
  double watchdog_period_seconds = 0.002;  // scan interval
  bool watchdog_enabled = true;
  // Per-worker recovery pipeline configuration (shared by all workers).
  // Each worker owns a RobustPipeline (and hence a Decoder) built from this.
  RobustPipelineOptions pipeline;
  // Sparse solver shared by all workers (solvers are immutable once built,
  // so concurrent solve() calls are safe). Null selects the library default.
  std::shared_ptr<const solvers::SparseSolver> solver;
  // Base seed. Every frame seeds a fresh decode RNG from (seed, stream_id),
  // so a decode is a pure function of its submission id — independent of
  // worker count, pop interleaving, and of any frames that were never
  // submitted. Submissions that share a stream id share their sampling
  // pattern.
  std::uint64_t seed = 0x5eed;
};

/// Aggregate stream telemetry. Counters are cumulative since construction;
/// percentiles are over all completed frames' submit→complete latencies,
/// read from a LatencyHistogram.
struct StreamHealth {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;           // DropOldest evictions
  std::size_t degraded = 0;  // frames cheapened under Degrade (capped ladder
                             // or a meaningful budget-deducted deadline)
  std::size_t deadline_expired = 0;  // frames whose solve was cut short
  std::size_t stalled = 0;           // watchdog cancellations
  std::size_t queue_high_water = 0;  // max queue depth observed
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  // Event-driven tile gating (filled only by ShardedDecoder::health(); a
  // plain StreamServer never skips work, so these stay 0 there). Cumulative
  // like every other counter: tiles served stale from the previous
  // reconstruction, tiles decoded because their activity detector fired, and
  // tiles decoded only because their force-refresh period lapsed.
  std::size_t tiles_skipped = 0;
  std::size_t tiles_refreshed = 0;
  std::size_t tiles_forced = 0;
};

/// Optional per-submission control: an external deadline tightens the
/// worker's policy-derived solve deadline for the frame, and an external
/// cancel token is forwarded into the running solve by the watchdog
/// (without counting as a stall). Both default inert.
/// Used by ShardedDecoder to propagate one frame-level deadline/cancel into
/// every tile solve.
struct SubmitControl {
  Deadline deadline;
  CancelToken cancel;
  // When > 0, overrides the pipeline's configured sampling fraction for this
  // frame (forwarded as FrameControl::sampling_fraction). 0 keeps the
  // configured fraction.
  double sampling_fraction = 0.0;
};

/// One recovered frame as delivered by the server.
struct StreamResult {
  std::uint64_t stream_id = 0;
  std::uint64_t submit_index = 0;  // global submission order
  la::Matrix frame;
  RecoveryReport report;
  int degrade_level = 0;  // 0 = full ladder; higher = cheaper processing
  double queue_seconds = 0.0;    // submit → dequeue
  double latency_seconds = 0.0;  // submit → completion
};

/// Concurrent streaming front-end over RobustPipeline. All public methods
/// are safe to call from any thread; producers call submit(), any thread may
/// poll drain_results()/health(). close() (or destruction) stops intake,
/// drains the queue and joins every thread — nothing is ever detached.
class StreamServer {
 public:
  StreamServer(std::size_t rows, std::size_t cols, StreamOptions opts = {});
  ~StreamServer();  // close() + join

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Enqueues one corrupted frame for recovery. Returns false only after
  /// close(); under the Block/Degrade policies a full queue makes this call
  /// wait. Thread-safe.
  bool submit(std::uint64_t stream_id, la::Matrix frame) FLEXCS_EXCLUDES(mu_);

  /// Same, with a per-submission deadline/cancel token (see SubmitControl).
  bool submit(std::uint64_t stream_id, la::Matrix frame,
              const SubmitControl& ctrl) FLEXCS_EXCLUDES(mu_);

  /// Blocks until at least `target` frames have completed since construction
  /// (cumulative, monotone). The caller must guarantee `target` frames will
  /// actually complete: under DropOldest an evicted frame never completes,
  /// so gather-style callers (ShardedDecoder) must not use that policy.
  void wait_for_completed(std::size_t target) const
      FLEXCS_EXCLUDES(results_mu_);

  /// Stops intake, lets the workers drain the queue, and joins all threads.
  /// Idempotent; called by the destructor.
  void close() FLEXCS_EXCLUDES(mu_, watchdog_mu_);

  /// Moves out every completed result accumulated so far (in completion
  /// order, which under concurrency is not submission order).
  std::vector<StreamResult> drain_results() FLEXCS_EXCLUDES(results_mu_);

  /// Snapshot of the aggregate telemetry.
  StreamHealth health() const
      FLEXCS_EXCLUDES(mu_, results_mu_, inflight_mu_);

  const StreamOptions& options() const { return opts_; }

  /// Degrade level for a queue depth observed at dequeue (exposed for
  /// tests): 0 below half full, 1 at half, 2 from three-quarters up.
  static int degrade_level_for(std::size_t depth, std::size_t capacity);

  /// What a Degrade level spends on a frame. Shared with DecodeService,
  /// whose admission applies the same levels.
  struct DegradeCaps {
    double deadline_scale = 1.0;  // multiplies the frame deadline
    Strategy max_rung = Strategy::kResample;
    int max_decode_calls = -1;  // < 0 = the pipeline's own budget
  };
  /// Level 1 halves the deadline and stops the ladder at the trimmed decode;
  /// level 2 and above quarter it and allow only the plain decode.
  static DegradeCaps degrade_caps(int level);

 private:
  struct Pending {
    std::uint64_t stream_id = 0;
    std::uint64_t submit_index = 0;
    la::Matrix frame;
    Deadline::Clock::time_point submitted_at{};
    Deadline external_deadline;   // unlimited unless submitted with one
    CancelToken external_cancel;  // inert unless submitted with one
    double sampling_fraction = 0.0;  // 0 = pipeline default
  };

  // Per-worker in-flight slot, scanned by the watchdog.
  struct InFlight {
    bool active = false;
    bool stall_fired = false;
    Deadline::Clock::time_point started_at{};
    double stall_after_seconds = 0.0;  // <= 0 disables the watchdog for it
    CancelSource cancel;
    // External cancel token of the frame in flight; the watchdog forwards
    // it into `cancel` once it fires (not counted as a stall).
    CancelToken external;
  };

  void worker_loop(std::size_t worker_index)
      FLEXCS_EXCLUDES(mu_, results_mu_, inflight_mu_);
  void watchdog_loop() FLEXCS_EXCLUDES(inflight_mu_, watchdog_mu_);

  const std::size_t rows_;
  const std::size_t cols_;
  const StreamOptions opts_;

  // mu_ guards the intake side: the queue, the closed flag, the submit
  // counters and the queue high-water mark; producers and workers rendezvous
  // on the two condition variables. The FLEXCS_GUARDED_BY contracts are
  // verified by Clang TSA under the `analyze` preset.
  mutable common::Mutex mu_;
  common::CondVar queue_not_full_;
  common::CondVar queue_not_empty_;
  std::deque<Pending> queue_ FLEXCS_GUARDED_BY(mu_);
  bool closed_ FLEXCS_GUARDED_BY(mu_) = false;
  std::uint64_t next_submit_index_ FLEXCS_GUARDED_BY(mu_) = 0;
  std::size_t queue_high_water_ FLEXCS_GUARDED_BY(mu_) = 0;
  std::size_t submitted_ FLEXCS_GUARDED_BY(mu_) = 0;
  std::size_t dropped_ FLEXCS_GUARDED_BY(mu_) = 0;

  // results_mu_ guards the completion side: results, the latency histogram
  // and the completion counters; results_cv_ wakes wait_for_completed()
  // after each frame completes.
  mutable common::Mutex results_mu_;
  mutable common::CondVar results_cv_;
  std::vector<StreamResult> results_ FLEXCS_GUARDED_BY(results_mu_);
  LatencyHistogram latencies_ FLEXCS_GUARDED_BY(results_mu_);
  std::size_t completed_ FLEXCS_GUARDED_BY(results_mu_) = 0;
  std::size_t degraded_ FLEXCS_GUARDED_BY(results_mu_) = 0;
  std::size_t deadline_expired_ FLEXCS_GUARDED_BY(results_mu_) = 0;

  // inflight_mu_ guards the worker <-> watchdog handshake (in-flight slots
  // and the stall counter).
  mutable common::Mutex inflight_mu_;
  std::vector<InFlight> in_flight_ FLEXCS_GUARDED_BY(inflight_mu_);
  std::size_t stalled_ FLEXCS_GUARDED_BY(inflight_mu_) = 0;

  // Worker-owned state: element w is touched only by worker thread w after
  // construction, so no guard is needed.
  std::vector<std::unique_ptr<RobustPipeline>> pipelines_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  // watchdog_mu_ guards the watchdog shutdown flag for its wakeup CondVar.
  common::Mutex watchdog_mu_;
  common::CondVar watchdog_cv_;
  bool watchdog_stop_ FLEXCS_GUARDED_BY(watchdog_mu_) = false;
};

}  // namespace flexcs::runtime
