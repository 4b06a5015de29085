#include "runtime/stream.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexcs::runtime {
namespace {

double seconds_since(Deadline::Clock::time_point t0,
                     Deadline::Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// Degrade only: the deadline becomes an end-to-end budget — queueing time
// is deducted from the processing deadline, floored at this fraction of
// frame_deadline_seconds so every frame still gets a sliver of solve time.
constexpr double kDegradeDeadlineFloor = 0.125;

// Watchdog: a frame in flight longer than this multiple of its effective
// deadline (or StreamOptions::stall_floor_seconds, whichever is larger) is
// cancelled and counted as a stall.
constexpr double kStallMultiplier = 4.0;

}  // namespace

double latency_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Linear interpolation between the two bracketing order statistics: the
  // quantile position in [0, n-1] splits into an index and a fraction. The
  // old nearest-rank (+0.5) rule biased every percentile upward — p50 of
  // {1, 2} reported 2 instead of 1.5.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double v_lo = values[lo];
  if (frac == 0.0 || lo + 1 == values.size()) return v_lo;
  // nth_element leaves the (lo+1)-th order statistic as the minimum of the
  // upper partition.
  const double v_hi = *std::min_element(
      values.begin() + static_cast<std::ptrdiff_t>(lo) + 1, values.end());
  return v_lo + frac * (v_hi - v_lo);
}

void LatencyHistogram::add(double seconds) {
  // Bucket k in [1, kBuckets - 2] covers kLowest * 10^([k-1, k) / kPerDecade);
  // bucket 0 takes anything below (and NaN), the last one anything above.
  const double pos = seconds >= kLowest
                         ? 1.0 + std::log10(seconds / kLowest) * kPerDecade
                         : 0.0;
  ++counts_[static_cast<std::size_t>(
      std::min(pos, static_cast<double>(kBuckets - 1)))];
  ++count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1) + 0.5);
  std::size_t k = 0;
  for (std::uint64_t seen = counts_[0]; seen <= rank; seen += counts_[k])
    ++k;
  const double centre = std::clamp(static_cast<double>(k) - 0.5, 0.0,
                                  static_cast<double>(kBuckets - 2));
  return kLowest * std::pow(10.0, centre / kPerDecade);
}

const char* backpressure_policy_name(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kDegrade: return "degrade";
  }
  return "unknown";
}

int StreamServer::degrade_level_for(std::size_t depth, std::size_t capacity) {
  if (capacity == 0) return 0;
  if (4 * depth >= 3 * capacity) return 2;
  if (2 * depth >= capacity) return 1;
  return 0;
}

StreamServer::DegradeCaps StreamServer::degrade_caps(int level) {
  if (level <= 0) return {};
  if (level == 1) return {0.5, Strategy::kTrimmedDecode, 3};
  return {0.25, Strategy::kPlainDecode, 1};
}

StreamServer::StreamServer(std::size_t rows, std::size_t cols,
                           StreamOptions opts)
    : rows_(rows), cols_(cols), opts_(std::move(opts)) {
  FLEXCS_CHECK(rows_ > 0 && cols_ > 0, "stream server over an empty array");
  FLEXCS_CHECK(opts_.workers >= 1, "stream server needs at least one worker");
  FLEXCS_CHECK(opts_.queue_capacity >= 1,
               "stream queue needs at least one slot");
  FLEXCS_CHECK(opts_.watchdog_period_seconds > 0.0,
               "watchdog period must be positive");

  in_flight_.resize(opts_.workers);
  pipelines_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w)
    pipelines_.push_back(std::make_unique<RobustPipeline>(
        rows_, cols_, opts_.pipeline, opts_.solver));

  workers_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  if (opts_.watchdog_enabled)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

StreamServer::~StreamServer() { close(); }

bool StreamServer::submit(std::uint64_t stream_id, la::Matrix frame) {
  return submit(stream_id, std::move(frame), SubmitControl{});
}

bool StreamServer::submit(std::uint64_t stream_id, la::Matrix frame,
                          const SubmitControl& ctrl) {
  FLEXCS_CHECK(frame.rows() == rows_ && frame.cols() == cols_,
               "stream: frame shape mismatch");
  const auto now = Deadline::Clock::now();
  {
    common::MutexLock lock(mu_);
    if (opts_.policy == BackpressurePolicy::kDropOldest) {
      if (closed_) return false;
      if (queue_.size() >= opts_.queue_capacity) {
        queue_.pop_front();  // evict the stalest frame, keep the freshest
        ++dropped_;
      }
    } else {
      // Block and Degrade both hold the producer on a full queue; Degrade
      // relies on the workers cheapening frames so the wait stays short.
      while (!closed_ && queue_.size() >= opts_.queue_capacity)
        queue_not_full_.wait(mu_);
      if (closed_) return false;
    }

    Pending item;
    item.stream_id = stream_id;
    item.submit_index = next_submit_index_++;
    item.frame = std::move(frame);
    item.submitted_at = now;
    item.external_deadline = ctrl.deadline;
    item.external_cancel = ctrl.cancel;
    item.sampling_fraction = ctrl.sampling_fraction;
    queue_.push_back(std::move(item));
    ++submitted_;
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
  }
  queue_not_empty_.notify_one();
  return true;
}

void StreamServer::worker_loop(std::size_t worker_index) {
  for (;;) {
    Pending item;
    std::size_t depth_after = 0;
    {
      common::MutexLock lock(mu_);
      while (!closed_ && queue_.empty()) queue_not_empty_.wait(mu_);
      if (queue_.empty()) return;  // closed and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
      depth_after = queue_.size();
    }
    queue_not_full_.notify_one();

    const auto dequeued_at = Deadline::Clock::now();

    // Degrade ladder: as the queue fills, spend less on each frame (see
    // degrade_caps). On top of the depth-based level, Degrade treats the
    // frame deadline as an end-to-end budget: time already burned in the
    // queue comes out of the processing deadline (floored so every frame
    // gets some solve time) — this is what keeps tail latency bounded once a
    // backlog exists.
    const bool degrade = opts_.policy == BackpressurePolicy::kDegrade;
    const int level =
        degrade ? degrade_level_for(depth_after, opts_.queue_capacity) : 0;
    const DegradeCaps caps = degrade_caps(level);
    double deadline_s = opts_.frame_deadline_seconds * caps.deadline_scale;
    FrameControl ctrl;
    ctrl.sampling_fraction = item.sampling_fraction;
    ctrl.max_rung = caps.max_rung;
    ctrl.max_decode_calls = caps.max_decode_calls;
    if (degrade && opts_.frame_deadline_seconds > 0.0) {
      const double queued = seconds_since(item.submitted_at, dequeued_at);
      const double remaining = opts_.frame_deadline_seconds - queued;
      const double floor =
          kDegradeDeadlineFloor * opts_.frame_deadline_seconds;
      deadline_s = std::min(deadline_s, std::max(floor, remaining));
    }
    // A frame counts as degraded when the ladder was capped (level >= 1) or
    // the budget deduction cost it a meaningful slice of its deadline.
    const bool cheapened =
        level >= 1 || (opts_.frame_deadline_seconds > 0.0 &&
                       deadline_s < 0.75 * opts_.frame_deadline_seconds);
    if (deadline_s > 0.0) ctrl.solve.deadline = Deadline::after(deadline_s);

    // An external per-submission deadline only ever tightens the
    // policy-derived one.
    if (!item.external_deadline.unlimited() &&
        (ctrl.solve.deadline.unlimited() ||
         item.external_deadline.when() < ctrl.solve.deadline.when()))
      ctrl.solve.deadline = item.external_deadline;

    // Register with the watchdog before starting the solve.
    CancelSource cancel;
    ctrl.solve.cancel = cancel.token();
    // A submission whose external token already fired is cancelled up
    // front; a token that fires mid-solve is forwarded by the watchdog.
    if (item.external_cancel.cancelled()) cancel.cancel();
    double stall_after = opts_.stall_floor_seconds;
    if (deadline_s > 0.0)
      stall_after = std::max(stall_after, kStallMultiplier * deadline_s);
    {
      common::MutexLock lock(inflight_mu_);
      InFlight& slot = in_flight_[worker_index];
      slot.active = true;
      slot.stall_fired = false;
      slot.started_at = dequeued_at;
      slot.stall_after_seconds = stall_after;
      slot.cancel = cancel;
      slot.external = item.external_cancel;
    }

    // The decode RNG and the frame index both derive from the stream id, so
    // the result is a pure function of (seed, id, content) — which worker
    // popped it, and what it decoded before, do not matter.
    Rng rng(opts_.seed ^ (0x9e3779b97f4a7c15ULL * (item.stream_id + 1)));
    RobustPipeline::FrameResult fr = pipelines_[worker_index]->process(
        item.frame, static_cast<std::size_t>(item.stream_id), rng, ctrl);

    bool was_stalled = false;
    {
      common::MutexLock lock(inflight_mu_);
      was_stalled = in_flight_[worker_index].stall_fired;
      in_flight_[worker_index].active = false;
      in_flight_[worker_index].external = CancelToken{};
    }

    const auto finished_at = Deadline::Clock::now();
    {
      common::MutexLock lock(results_mu_);
      StreamResult result;
      result.stream_id = item.stream_id;
      result.submit_index = item.submit_index;
      result.frame = std::move(fr.frame);
      result.report = std::move(fr.report);
      result.degrade_level = level;
      result.queue_seconds = seconds_since(item.submitted_at, dequeued_at);
      result.latency_seconds = seconds_since(item.submitted_at, finished_at);
      // A watchdog cancellation surfaces on the report as well: the solver's
      // cooperative check is what actually stopped the frame.
      if (was_stalled) result.report.deadline_expired = true;
      ++completed_;
      if (cheapened) ++degraded_;
      if (result.report.deadline_expired) ++deadline_expired_;
      latencies_.add(result.latency_seconds);
      results_.push_back(std::move(result));
    }
    results_cv_.notify_all();
  }
}

void StreamServer::wait_for_completed(std::size_t target) const {
  common::MutexLock lock(results_mu_);
  while (completed_ < target) results_cv_.wait(results_mu_);
}

void StreamServer::watchdog_loop() {
  for (;;) {
    {
      // The wakeup wait holds only watchdog_mu_; the in-flight scan below
      // runs off it, so watchdog_mu_ and inflight_mu_ are never nested (a
      // spurious wakeup merely scans early, which is harmless).
      common::MutexLock lock(watchdog_mu_);
      if (!watchdog_stop_)
        watchdog_cv_.wait_for_seconds(watchdog_mu_,
                                      opts_.watchdog_period_seconds);
      if (watchdog_stop_) return;
    }
    const auto now = Deadline::Clock::now();
    common::MutexLock guard(inflight_mu_);
    for (InFlight& slot : in_flight_) {
      if (!slot.active) continue;
      // Forward external cancellation into the running solve. Not a stall:
      // the caller asked for it, so it is not counted or marked as one.
      if (slot.external.cancelled()) slot.cancel.cancel();
      if (slot.stall_fired) continue;
      if (slot.stall_after_seconds <= 0.0) continue;
      if (seconds_since(slot.started_at, now) < slot.stall_after_seconds)
        continue;
      slot.cancel.cancel();  // frame stops at its next iteration boundary
      slot.stall_fired = true;
      ++stalled_;
    }
  }
}

void StreamServer::close() {
  {
    common::MutexLock lock(mu_);
    closed_ = true;
  }
  // Joins below are idempotent (joinable() is false after the first close).
  queue_not_full_.notify_all();
  queue_not_empty_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  {
    common::MutexLock lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::vector<StreamResult> StreamServer::drain_results() {
  common::MutexLock lock(results_mu_);
  std::vector<StreamResult> out;
  out.swap(results_);
  return out;
}

StreamHealth StreamServer::health() const {
  StreamHealth h;
  {
    common::MutexLock lock(mu_);
    h.submitted = submitted_;
    h.dropped = dropped_;
    h.queue_high_water = queue_high_water_;
  }
  {
    common::MutexLock lock(results_mu_);
    h.completed = completed_;
    h.degraded = degraded_;
    h.deadline_expired = deadline_expired_;
    h.p50_latency_seconds = latencies_.percentile(0.50);
    h.p99_latency_seconds = latencies_.percentile(0.99);
  }
  {
    common::MutexLock lock(inflight_mu_);
    h.stalled = stalled_;
  }
  return h;
}

}  // namespace flexcs::runtime
