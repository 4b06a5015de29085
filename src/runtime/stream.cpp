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

StreamServer::StreamServer(std::size_t rows, std::size_t cols,
                           StreamOptions opts)
    : rows_(rows), cols_(cols), opts_(std::move(opts)) {
  FLEXCS_CHECK(rows_ > 0 && cols_ > 0, "stream server over an empty array");
  FLEXCS_CHECK(opts_.workers >= 1, "stream server needs at least one worker");
  FLEXCS_CHECK(opts_.queue_capacity >= 1,
               "stream queue needs at least one slot");

  pipelines_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w)
    pipelines_.push_back(std::make_unique<RobustPipeline>(
        rows_, cols_, opts_.pipeline, opts_.solver));

  workers_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
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
    while (!closed_ && queue_.size() >= opts_.queue_capacity)
      queue_not_full_.wait(mu_);
    if (closed_) return false;

    Pending item;
    item.stream_id = stream_id;
    item.submit_index = next_submit_index_++;
    item.frame = std::move(frame);
    item.submitted_at = now;
    item.ctrl = ctrl;
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
    {
      common::MutexLock lock(mu_);
      while (!closed_ && queue_.empty()) queue_not_empty_.wait(mu_);
      if (queue_.empty()) return;  // closed and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();

    const auto dequeued_at = Deadline::Clock::now();

    FrameControl ctrl;
    ctrl.sampling_fraction = item.ctrl.sampling_fraction;
    // The caller's token goes into every solve of the frame, which polls it
    // each iteration; the frame deadline runs from dequeue, and an external
    // deadline only ever tightens it.
    ctrl.solve.cancel = item.ctrl.cancel;
    if (opts_.frame_deadline_seconds > 0.0)
      ctrl.solve.deadline = Deadline::after(opts_.frame_deadline_seconds);
    const Deadline& external = item.ctrl.deadline;
    if (!external.unlimited() && (ctrl.solve.deadline.unlimited() ||
                                  external.when() < ctrl.solve.deadline.when()))
      ctrl.solve.deadline = external;

    // The decode RNG derives from the stream id and the frame index comes
    // with the submission, so the result is a pure function of (seed, id,
    // frame index, content) — which worker popped it, and what it decoded
    // before, do not matter.
    Rng rng(opts_.seed ^ (0x9e3779b97f4a7c15ULL * (item.stream_id + 1)));
    const std::size_t frame_index = item.ctrl.frame_index.value_or(
        static_cast<std::size_t>(item.stream_id));
    RobustPipeline::FrameResult fr = pipelines_[worker_index]->process(
        item.frame, frame_index, rng, ctrl);

    const auto finished_at = Deadline::Clock::now();
    {
      common::MutexLock lock(results_mu_);
      StreamResult result;
      result.stream_id = item.stream_id;
      result.submit_index = item.submit_index;
      result.frame = std::move(fr.frame);
      result.report = std::move(fr.report);
      result.queue_seconds = seconds_since(item.submitted_at, dequeued_at);
      result.latency_seconds = seconds_since(item.submitted_at, finished_at);
      ++completed_;
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
    h.queue_high_water = queue_high_water_;
  }
  {
    common::MutexLock lock(results_mu_);
    h.completed = completed_;
    h.deadline_expired = deadline_expired_;
    h.p50_latency_seconds = latencies_.percentile(0.50);
    h.p99_latency_seconds = latencies_.percentile(0.99);
  }
  return h;
}

}  // namespace flexcs::runtime
