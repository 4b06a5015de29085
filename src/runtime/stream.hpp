// Deadline-aware concurrent streaming runtime: fans frames from N producer
// streams across a pool of worker threads, each owning one RobustPipeline
// (the pipeline is documented "not thread-safe; one instance per stream" —
// here one instance per *worker*, fed through a bounded MPMC queue).
//
// Backpressure is blocking: when the queue is full, submit() waits until a
// worker frees a slot, so producers throttle and every submitted frame is
// decoded with the full ladder. Shedding load is the activity gate's job
// (runtime/activity.hpp), which skips quiet tiles instead of decoding frames
// worse.
//
// Every frame is processed under a cooperative Deadline measured from
// dequeue (queueing time is reported separately as part of the
// submit→complete latency). The deadline and the caller's cancel token go
// straight into the frame's solves, which poll both every iteration, so
// either one stops a running frame at its next iteration boundary. The
// server starts exactly `workers` threads.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "runtime/deadline.hpp"
#include "runtime/pipeline.hpp"

namespace flexcs::runtime {

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
  // Per-frame processing deadline in seconds, measured from dequeue.
  // <= 0 disables the deadline (frames run to the ladder budget).
  double frame_deadline_seconds = 0.0;
  // Ignored (nothing reads it); goes with the next perfbench change.
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
  std::size_t deadline_expired = 0;  // frames whose solve was cut short
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
/// worker's frame deadline for the frame, and an external cancel token is
/// handed to the frame's solves, so firing it stops the frame even mid-solve.
/// Both default inert.
/// Used by ShardedDecoder to propagate one frame-level deadline/cancel into
/// every tile solve.
struct SubmitControl {
  Deadline deadline;
  CancelToken cancel;
  // When > 0, overrides the pipeline's configured sampling fraction for this
  // frame (forwarded as FrameControl::sampling_fraction). 0 keeps the
  // configured fraction.
  double sampling_fraction = 0.0;
  // The pipeline's frame index for this submission (it becomes
  // report.frame_index and keys the measurement-fault channel). Unset uses
  // the stream id. ShardedDecoder passes its running frame count here.
  std::optional<std::size_t> frame_index;
};

/// One recovered frame as delivered by the server.
struct StreamResult {
  std::uint64_t stream_id = 0;
  std::uint64_t submit_index = 0;  // global submission order
  la::Matrix frame;
  RecoveryReport report;
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
  /// close(); a full queue makes this call wait. Thread-safe.
  bool submit(std::uint64_t stream_id, la::Matrix frame) FLEXCS_EXCLUDES(mu_);

  /// Same, with a per-submission deadline/cancel token (see SubmitControl).
  bool submit(std::uint64_t stream_id, la::Matrix frame,
              const SubmitControl& ctrl) FLEXCS_EXCLUDES(mu_);

  /// Blocks until at least `target` frames have completed since construction
  /// (cumulative, monotone). Every submitted frame completes, so a caller
  /// may wait for as many frames as it submitted.
  void wait_for_completed(std::size_t target) const
      FLEXCS_EXCLUDES(results_mu_);

  /// Stops intake, lets the workers drain the queue, and joins all threads.
  /// Idempotent; called by the destructor.
  void close() FLEXCS_EXCLUDES(mu_);

  /// Moves out every completed result accumulated so far (in completion
  /// order, which under concurrency is not submission order).
  std::vector<StreamResult> drain_results() FLEXCS_EXCLUDES(results_mu_);

  /// Snapshot of the aggregate telemetry.
  StreamHealth health() const FLEXCS_EXCLUDES(mu_, results_mu_);

  const StreamOptions& options() const { return opts_; }

 private:
  struct Pending {
    std::uint64_t stream_id = 0;
    std::uint64_t submit_index = 0;
    la::Matrix frame;
    Deadline::Clock::time_point submitted_at{};
    SubmitControl ctrl;  // the caller's; inert unless submitted with one
  };

  void worker_loop(std::size_t worker_index)
      FLEXCS_EXCLUDES(mu_, results_mu_);

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

  // results_mu_ guards the completion side: results, the latency histogram
  // and the completion counters; results_cv_ wakes wait_for_completed()
  // after each frame completes.
  mutable common::Mutex results_mu_;
  mutable common::CondVar results_cv_;
  std::vector<StreamResult> results_ FLEXCS_GUARDED_BY(results_mu_);
  LatencyHistogram latencies_ FLEXCS_GUARDED_BY(results_mu_);
  std::size_t completed_ FLEXCS_GUARDED_BY(results_mu_) = 0;
  std::size_t deadline_expired_ FLEXCS_GUARDED_BY(results_mu_) = 0;

  // Worker-owned state: element w is touched only by worker thread w after
  // construction, so no guard is needed.
  std::vector<std::unique_ptr<RobustPipeline>> pipelines_;

  std::vector<std::thread> workers_;
};

}  // namespace flexcs::runtime
