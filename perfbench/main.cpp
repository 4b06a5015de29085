// perfbench: closed-loop end-to-end benchmark of the flexcs decode runtime.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One caller drives a public executor (runtime::DecodeService or
// runtime::ShardedDecoder) with one frame in flight: frame i is generated
// from (seed, i) outside the timed call, then decoded by one process() call
// whose wall time is the frame's latency. Decode work depends only on the
// seed (no deadline, Block policy, batch depth 1, deterministic tile
// seeding), so rmse, failed_frac, the frame digest and every count below
// repeat exactly; only wall-clock numbers carry noise.
//
// --trace 0 prints the end-to-end metrics. --trace 1 decodes the same frames
// twice, untraced and then through the benchmark's tracing decorators, checks
// that both produce the same frame digest, and prints the per-layer metrics
// plus the tracing overhead on throughput. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "cs/metrics.hpp"
#include "dsp/fft.hpp"
#include "runtime/activity.hpp"
#include "runtime/service.hpp"
#include "runtime/shard.hpp"
#include "runtime/tile_grid.hpp"
#include "runtime/wire.hpp"
#include "scenes.hpp"
#include "solvers/fista.hpp"
#include "trace.hpp"

namespace {

using namespace flexcs;
using perfbench::SceneFrame;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  return runtime::latency_percentile(std::move(v), 0.5);
}

// --- program configuration --------------------------------------------------

// The matrix-free operator is selected through this guard alone, so the
// benchmark keeps compiling once the dense arm and its flag are gone.
template <typename DecoderOptions>
void select_matrix_free(DecoderOptions& d) {
  if constexpr (requires { d.implicit_psi = true; }) d.implicit_psi = true;
}

runtime::RobustPipelineOptions pipeline_options() {
  runtime::RobustPipelineOptions p;  // library ladder, thresholds, fraction
  select_matrix_free(p.decoder);
  return p;
}

constexpr std::size_t kWorkers = 2;

runtime::ShardOptions shard_options(
    std::size_t tile, std::shared_ptr<const solvers::SparseSolver> solver) {
  runtime::ShardOptions o;
  o.tile_rows = o.tile_cols = tile;  // halo stays at the library default
  o.stream.workers = kWorkers;
  // No deadline is set, so the watchdog would have nothing to cancel; off, it
  // keeps the thread budget at the caller plus the two decode workers.
  o.stream.watchdog_enabled = false;
  o.stream.pipeline = pipeline_options();
  o.stream.solver = std::move(solver);
  return o;
}

// --- executors --------------------------------------------------------------

struct Delivered {
  la::Matrix frame;
  runtime::ShardReport report;
  bool dropped = false;
};

class Executor {
 public:
  virtual ~Executor() = default;
  virtual Delivered process(const la::Matrix& frame) = 0;
  /// Service telemetry; empty for the in-process thread pool.
  virtual std::optional<runtime::ServiceHealth> service_health() const {
    return std::nullopt;
  }
};

class ShardExecutor final : public Executor {
 public:
  ShardExecutor(std::size_t dim, runtime::ShardOptions opts)
      : decoder_(dim, dim, std::move(opts)) {}
  Delivered process(const la::Matrix& frame) override {
    runtime::ShardFrameResult r = decoder_.process(frame);
    return {std::move(r.frame), std::move(r.report), false};
  }

 private:
  runtime::ShardedDecoder decoder_;
};

class ServiceExecutor final : public Executor {
 public:
  ServiceExecutor(std::size_t dim, runtime::ServiceOptions opts)
      : service_(dim, dim, std::move(opts)) {}
  Delivered process(const la::Matrix& frame) override {
    runtime::ServiceFrameResult r = service_.process(frame);
    return {std::move(r.frame), std::move(r.report), r.dropped};
  }
  std::optional<runtime::ServiceHealth> service_health() const override {
    return service_.health();
  }

 private:
  runtime::DecodeService service_;
};

using SolverPtr = std::shared_ptr<const solvers::SparseSolver>;

struct Workload {
  std::string name;
  std::size_t dim;    // square frame side
  std::size_t tile;   // tile side (library default of the executor)
  std::size_t halo;   // library default, for the standalone layer timings
  // Timed frames per second of --seconds. A constant, so the frame count —
  // and with it every count-type metric — depends only on the arguments.
  double frames_per_second;
  double rmse_ceiling;  // correctness: mean frame RMSE must stay below
  // Set-ups per run, setup_s being their median: more where a set-up is
  // short enough for host noise to swamp a single one.
  int setups;
  bool service;
  std::function<SceneFrame(std::uint64_t, std::uint64_t)> frame;
  std::function<std::unique_ptr<Executor>(SolverPtr)> make;
  runtime::ActivityGateOptions gate;  // the workload's gate; off by default
};

runtime::ActivityGateOptions tactile_gate() {
  runtime::ActivityGateOptions g;  // library thresholds and refresh period
  g.enabled = true;
  g.sparse_fraction = 0.3;  // forced refreshes of quiet tiles sample sparser
  return g;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    Workload t;
    t.name = "thermal-fleet";
    t.dim = 64;
    t.tile = runtime::ServiceOptions{}.tile_rows;
    t.halo = runtime::ServiceOptions{}.halo;
    t.frames_per_second = 20.0;
    t.rmse_ceiling = 0.02;
    t.setups = 9;
    t.service = true;
    t.frame = [](std::uint64_t s, std::uint64_t i) {
      return perfbench::thermal_frame(s, i, 64);
    };
    t.make = [](SolverPtr solver) -> std::unique_ptr<Executor> {
      runtime::ServiceOptions o;
      o.workers = 1;         // one forked socketpair worker ...
      o.remote_workers = 1;  // ... and one loopback TCP remote worker
      o.pipeline = pipeline_options();
      o.solver = std::move(solver);
      return std::make_unique<ServiceExecutor>(64, std::move(o));
    };
    w.push_back(std::move(t));
  }
  {
    Workload t;
    t.name = "tactile-events";
    t.dim = 128;
    t.tile = runtime::ShardOptions{}.tile_rows;
    t.halo = runtime::ShardOptions{}.halo;
    t.frames_per_second = 20.0;  // 200 frames: five whole contact laps
    t.rmse_ceiling = 0.04;
    t.setups = 3;
    t.service = false;
    t.gate = tactile_gate();
    t.frame = [](std::uint64_t s, std::uint64_t i) {
      return perfbench::tactile_frame(s, i);
    };
    t.make = [](SolverPtr solver) -> std::unique_ptr<Executor> {
      runtime::ShardOptions o =
          shard_options(runtime::ShardOptions{}.tile_rows, std::move(solver));
      o.gate = tactile_gate();
      return std::make_unique<ShardExecutor>(128, std::move(o));
    };
    w.push_back(std::move(t));
  }
  {
    Workload t;
    t.name = "defect-ladder";
    t.dim = 32;
    t.tile = 16;
    t.halo = runtime::ShardOptions{}.halo;
    t.frames_per_second = 3.0;
    t.rmse_ceiling = 0.06;
    t.setups = 3;
    t.service = false;
    t.frame = [](std::uint64_t s, std::uint64_t i) {
      return perfbench::defect_frame(s, i);
    };
    t.make = [](SolverPtr solver) -> std::unique_ptr<Executor> {
      return std::make_unique<ShardExecutor>(
          32, shard_options(16, std::move(solver)));
    };
    w.push_back(std::move(t));
  }
  return w;
}

// --- one closed-loop pass ---------------------------------------------------

constexpr std::size_t kMinTimedFrames = 100;  // p90 needs >= 10 samples beyond
// Set-up decodes frame 0 of this seed whatever --seed is, so set-up does the
// same work on every run and setup_s moves only with the program.
constexpr std::uint64_t kWarmupSeed = 0;

// FNV-1a over the bit patterns of every delivered pixel.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const la::Matrix& m) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
};

// Everything one pass measures, summed over its timed frames.
struct Tally {
  std::size_t frames = 0;
  std::vector<double> latencies;  // seconds, one per timed frame
  double rmse_sum = 0.0;
  std::size_t failed_frames = 0;   // lost, dropped, or any tile not accepted
  std::size_t tiles = 0;
  std::size_t tiles_decoded = 0;   // not served stale
  std::size_t tiles_forced = 0;
  std::size_t tiles_accepted = 0;
  std::size_t tiles_remote = 0;
  std::size_t decode_calls = 0;
  std::size_t rungs[runtime::kStrategyCount] = {};
  double tile_decode_seconds = 0.0;  // summed RecoveryReport::decode_seconds
  double wall_seconds = 0.0;         // summed frame latencies
  std::size_t stale_mismatches = 0;  // served-stale tile != previous frame
  std::size_t rungless_tiles = 0;    // decoded tile with no rung reported
  std::size_t tiles_dispatched = 0;  // service wire dispatches
  std::size_t frames_dropped = 0;    // admission drops (service)
  std::size_t frames_lost = 0;       // service health, since construction
  Digest digest;
  double activity_update_seconds = 0.0;  // shadow gate, traced pass only
  // Report of tile 0 of the first timed frame, for the wire sizes.
  runtime::RecoveryReport first_report;
};

bool tile_equal(const runtime::TileGrid& grid, std::size_t tile,
                const la::Matrix& a, const la::Matrix& b) {
  const std::size_t r0 = grid.tile_row(tile) * grid.tile_rows;
  const std::size_t c0 = grid.tile_col(tile) * grid.tile_cols;
  for (std::size_t i = 0; i < grid.tile_rows; ++i)
    if (std::memcmp(a.row_ptr(r0 + i) + c0, b.row_ptr(r0 + i) + c0,
                    grid.tile_cols * sizeof(double)) != 0)
      return false;
  return true;
}

struct PassResult {
  std::vector<double> setup_seconds;
  Tally tally;
  perfbench::CounterSnapshot counters;  // over the timed frames (traced)
};

// Builds the executor `setups` times (construction + the warm-up frame,
// which is charged to set-up), keeps the last one and decodes frames
// 1..frames of `seed` through it. In a traced pass, `counters` are the shared
// counters the solver reports into, and `shadow_gate` is fed every frame
// outside the timed call to time ActivityGate::update.
PassResult run_pass(const Workload& w, std::uint64_t seed, std::size_t frames,
                    int setups, const SolverPtr& solver,
                    const perfbench::SharedCounters* counters = nullptr,
                    runtime::ActivityGate* shadow_gate = nullptr) {
  PassResult out;
  Tally& t = out.tally;
  const runtime::TileGrid grid(w.dim, w.dim, w.tile, w.tile, w.halo);

  const SceneFrame warm = w.frame(kWarmupSeed, 0);
  std::unique_ptr<Executor> exec;
  Delivered prev;
  for (int s = 0; s < setups; ++s) {
    exec.reset();  // reaps the previous executor's workers first
    const Clock::time_point start = Clock::now();
    exec = w.make(solver);
    prev = exec->process(warm.input);
    out.setup_seconds.push_back(seconds_since(start));
  }
  t.digest.add(prev.frame);
  if (shadow_gate != nullptr) shadow_gate->update(warm.input);
  const std::optional<runtime::ServiceHealth> health0 = exec->service_health();
  const perfbench::CounterSnapshot counters0 =
      counters != nullptr ? counters->snapshot() : perfbench::CounterSnapshot{};

  for (std::size_t i = 1; i <= frames; ++i) {
    const SceneFrame scene = w.frame(seed, i);
    if (shadow_gate != nullptr) {
      const Clock::time_point g0 = Clock::now();
      shadow_gate->update(scene.input);
      t.activity_update_seconds += seconds_since(g0);
    }

    const Clock::time_point start = Clock::now();
    Delivered d = exec->process(scene.input);
    const double latency = seconds_since(start);

    ++t.frames;
    t.latencies.push_back(latency);
    t.wall_seconds += latency;
    t.digest.add(d.frame);
    t.rmse_sum += cs::rmse(d.frame, scene.clean);

    if (d.dropped) ++t.frames_dropped;
    bool failed = d.dropped;
    const runtime::ShardReport& rep = d.report;
    t.tiles += rep.tiles;
    t.tiles_forced += rep.tiles_forced;
    for (std::size_t k = 0; k < rep.tile_reports.size(); ++k) {
      const runtime::TileReport& tr = rep.tile_reports[k];
      if (tr.served_stale) {
        if (!tile_equal(grid, k, d.frame, prev.frame)) ++t.stale_mismatches;
        continue;
      }
      const runtime::RecoveryReport& rr = tr.report;
      if (i == 1 && k == 0) t.first_report = rr;
      ++t.tiles_decoded;
      t.tiles_remote += tr.remote ? 1 : 0;
      t.decode_calls += static_cast<std::size_t>(rr.decode_calls);
      t.tile_decode_seconds += rr.decode_seconds;
      const auto rung = static_cast<std::size_t>(rr.strategy);
      if (rr.decode_calls < 1 || rung >= runtime::kStrategyCount) {
        ++t.rungless_tiles;
      } else {
        ++t.rungs[rung];
      }
      if (rr.accepted) ++t.tiles_accepted;
      if (!rr.accepted || rr.budget_exhausted) failed = true;
    }
    if (failed) ++t.failed_frames;
    prev = std::move(d);
  }
  if (counters != nullptr) out.counters = counters->snapshot() - counters0;

  if (const std::optional<runtime::ServiceHealth> h = exec->service_health()) {
    t.tiles_dispatched = h->tiles_dispatched - health0->tiles_dispatched;
    t.frames_lost = h->frames_lost;
  }
  exec.reset();
  return out;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// A fixed integer/floating-point loop that calls no flexcs code. Its time
// moves only with the host (frequency, contention), so a reviewer can tell
// host drift from a program change.
[[gnu::noinline]] double calib_loop(std::uint64_t state) {
  double acc = 0.0;
  for (int i = 0; i < 4000000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc = (acc + static_cast<double>(state >> 40) * 1e-9) * 0.999999;
  }
  return acc;
}

// Median of five timings of calib_loop, in milliseconds.
double host_calib_ms() {
  std::vector<double> runs;
  double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point start = Clock::now();
    sink += calib_loop(0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(r));
    runs.push_back(seconds_since(start) * 1e3);
  }
  if (sink < 0.0) std::printf("calib %f\n", sink);  // keeps the loop live
  return median(runs);
}

// Peak RSS of this process image (VmHWM: unlike ru_maxrss it does not carry
// the launcher's footprint across exec) plus that of its largest reaped
// worker process.
double peak_rss_mb() {
  long self_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) break;
    std::fclose(f);
  }
  FLEXCS_CHECK(self_kb > 0, "perfbench: no VmHWM in /proc/self/status");
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self_kb + children.ru_maxrss) / 1024.0;
}

struct Checks {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

void check_pass(const Workload& w, const Tally& t, Checks& checks) {
  const double rmse = t.rmse_sum / static_cast<double>(t.frames);
  checks.require(std::isfinite(rmse) && rmse <= w.rmse_ceiling,
                 "rmse " + json_number(rmse) + " above the ceiling " +
                     json_number(w.rmse_ceiling));
  checks.require(t.stale_mismatches == 0,
                 std::to_string(t.stale_mismatches) +
                     " served-stale tiles differ from the previous frame");
  checks.require(t.rungless_tiles == 0,
                 std::to_string(t.rungless_tiles) + " tiles report no rung");
  checks.require(t.frames_lost == 0,
                 std::to_string(t.frames_lost) + " frames lost by the service");
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- standalone layer timings (traced run) ----------------------------------

// Median over `batches` batches of the mean time of `per_batch` calls, in us.
template <typename F>
double time_us(int batches, int per_batch, F&& call) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < per_batch; ++i) call();
    v.push_back(seconds_since(start) * 1e6 / per_batch);
  }
  return median(v);
}

double dct2d_pair_us(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  const dsp::Dct1dPlan row_plan(cols);
  const dsp::Dct1dPlan col_plan(rows);
  dsp::DctWorkspace ws;
  Rng rng(seed);
  std::vector<double> in(rows * cols), mid(rows * cols), out(rows * cols);
  for (double& x : in) x = rng.uniform();
  return time_us(9, 200, [&] {
    dsp::dct2d_apply(row_plan, col_plan, in.data(), mid.data(), rows, cols,
                     ws);
    dsp::idct2d_apply(row_plan, col_plan, mid.data(), out.data(), rows, cols,
                      ws);
  });
}

struct WireCost {
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double codec_us = 0.0;
};

WireCost wire_cost(const la::Matrix& padded_tile,
                   const runtime::RecoveryReport& report) {
  runtime::wire::TileRequest req;
  req.seq = 1;
  req.frame_index = 1;
  req.tile = padded_tile;
  runtime::wire::TileResponse resp;
  resp.seq = 1;
  resp.tile = padded_tile;
  resp.report = report;

  WireCost c;
  c.request_bytes =
      static_cast<double>(runtime::wire::encode_tile_request(req).size());
  c.response_bytes =
      static_cast<double>(runtime::wire::encode_tile_response(resp).size());
  const auto roundtrip = [](const std::vector<std::uint8_t>& bytes,
                            runtime::wire::Message& msg) {
    std::size_t consumed = 0;
    FLEXCS_CHECK(runtime::wire::decode_message(bytes.data(), bytes.size(), msg,
                                               consumed) ==
                     runtime::wire::DecodeStatus::kOk,
                 "perfbench: wire round trip failed");
  };
  c.codec_us = time_us(9, 50, [&] {
    runtime::wire::Message msg;
    roundtrip(runtime::wire::encode_tile_request(req), msg);
    const runtime::wire::TileRequest r =
        runtime::wire::decode_tile_request(msg);
    roundtrip(runtime::wire::encode_tile_response(resp), msg);
    const runtime::wire::TileResponse s =
        runtime::wire::decode_tile_response(msg);
    FLEXCS_CHECK(r.tile.size() == s.tile.size(), "perfbench: codec mismatch");
  });
  return c;
}

// --- the two run modes ------------------------------------------------------

std::vector<Metric> end_to_end(const PassResult& p) {
  const Tally& t = p.tally;
  const double n = static_cast<double>(t.frames);
  return {
      {"throughput_fps", n / t.wall_seconds, "1/s"},
      {"latency_p50_ms", runtime::latency_percentile(t.latencies, 0.5) * 1e3,
       "ms"},
      {"latency_p90_ms", runtime::latency_percentile(t.latencies, 0.9) * 1e3,
       "ms"},
      {"rmse", t.rmse_sum / n, "1"},
      {"ok_frac", 1.0 - static_cast<double>(t.failed_frames) / n, "ratio"},
      {"setup_s", median(p.setup_seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

int run_untraced(const Workload& w, std::uint64_t seed, std::size_t frames) {
  const double calib = host_calib_ms();
  const SolverPtr solver = std::make_shared<solvers::FistaSolver>();
  const PassResult p = run_pass(w, seed, frames, w.setups, solver);
  Checks checks;
  check_pass(w, p.tally, checks);
  std::printf("workload %s seed %llu frames %zu digest %s\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), p.tally.frames,
              hex(p.tally.digest.h).c_str());
  std::printf("host.calib_ms %.4f\n", calib);
  print_result(checks.ok, p.tally.frames,
               p.tally.frames_dropped + p.tally.frames_lost, end_to_end(p));
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed, std::size_t frames) {
  const double calib = host_calib_ms();
  const SolverPtr fista = std::make_shared<solvers::FistaSolver>();

  // Untraced reference pass over the same frames.
  const PassResult plain = run_pass(w, seed, frames, 1, fista);

  // Traced pass: counters live in a shared page created before any fork.
  const perfbench::SharedCounters counters;
  const SolverPtr traced =
      std::make_shared<perfbench::TracingSolver>(fista, counters.get());
  std::optional<runtime::ActivityGate> shadow;
  if (w.gate.enabled)
    shadow.emplace(runtime::TileGrid(w.dim, w.dim, w.tile, w.tile, w.halo),
                   w.gate);
  const PassResult tr = run_pass(w, seed, frames, 1, traced, &counters,
                                 shadow ? &*shadow : nullptr);
  const perfbench::CounterSnapshot& c = tr.counters;

  Checks checks;
  check_pass(w, plain.tally, checks);
  check_pass(w, tr.tally, checks);
  checks.require(plain.tally.digest.h == tr.tally.digest.h,
                 "traced digest " + hex(tr.tally.digest.h) +
                     " differs from untraced " + hex(plain.tally.digest.h));
  std::printf("workload %s seed %llu frames %zu digest %s traced %s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              tr.tally.frames, hex(plain.tally.digest.h).c_str(),
              hex(tr.tally.digest.h).c_str());

  const Tally& t = tr.tally;
  const double n = static_cast<double>(t.frames);
  const double tiles = static_cast<double>(t.tiles);
  const double decoded =
      std::max(1.0, static_cast<double>(t.tiles_decoded));
  const double solve_ms = static_cast<double>(c.solve_ns) / 1e6;
  const double apply_ms = static_cast<double>(c.apply_ns) / 1e6;
  const double workers = static_cast<double>(kWorkers);
  const double busy_frac =
      t.tile_decode_seconds / (workers * t.wall_seconds);
  const double overhead_ms =
      (t.wall_seconds - t.tile_decode_seconds / workers) / n * 1e3;

  const runtime::TileGrid grid(w.dim, w.dim, w.tile, w.tile, w.halo);
  const la::Matrix tile0 = grid.extract(w.frame(seed, 1).input, 0);
  const WireCost wire =
      w.service ? wire_cost(tile0, t.first_report) : WireCost{};

  const auto frac = [&](std::size_t rung) {
    return static_cast<double>(t.rungs[rung]) / decoded;
  };
  const auto only = [](bool on, double v) { return on ? v : 0.0; };
  const double fps_plain = n / plain.tally.wall_seconds;
  const double fps_traced = n / t.wall_seconds;

  std::vector<Metric> m = {
      {"dsp.dct2d_us",
       dct2d_pair_us(grid.padded_rows, grid.padded_cols, seed), "us"},
      {"cs.operator.applies_per_frame", static_cast<double>(c.applies) / n,
       "count"},
      {"cs.operator.apply_us",
       c.applies > 0 ? apply_ms * 1e3 / static_cast<double>(c.applies) : 0.0,
       "us"},
      {"solvers.calls_per_frame", static_cast<double>(c.solves) / n, "count"},
      {"solvers.iterations_per_call",
       c.solves > 0 ? static_cast<double>(c.solve_iterations) /
                          static_cast<double>(c.solves)
                    : 0.0,
       "count"},
      {"solvers.busy_ms_per_frame", solve_ms / n, "ms"},
      {"solvers.self_ms_per_frame", (solve_ms - apply_ms) / n, "ms"},
      {"pipeline.decode_calls_per_tile",
       static_cast<double>(t.decode_calls) / decoded, "count"},
      {"pipeline.rung_frac.plain", frac(0), "ratio"},
      {"pipeline.rung_frac.trimmed", frac(1), "ratio"},
      {"pipeline.rung_frac.fresh", frac(2), "ratio"},
      {"pipeline.rung_frac.resample", frac(3), "ratio"},
      {"pipeline.rung_frac.rpca", frac(4), "ratio"},
      {"pipeline.accepted_tile_frac",
       static_cast<double>(t.tiles_accepted) / decoded, "ratio"},
      {"pipeline.self_ms_per_frame",
       (t.tile_decode_seconds * 1e3 - solve_ms) / n, "ms"},
      {"shard.tiles_decoded_per_frame",
       only(!w.service, static_cast<double>(t.tiles_decoded) / n), "count"},
      {"shard.worker_busy_frac", only(!w.service, busy_frac), "ratio"},
      {"shard.overhead_ms_per_frame", only(!w.service, overhead_ms), "ms"},
      {"activity.decoded_tile_frac",
       static_cast<double>(t.tiles_decoded) / tiles, "ratio"},
      {"activity.forced_tile_frac", static_cast<double>(t.tiles_forced) / tiles,
       "ratio"},
      {"activity.update_us", t.activity_update_seconds * 1e6 / n, "us"},
      {"service.dispatches_per_tile",
       only(w.service, static_cast<double>(t.tiles_dispatched) / tiles),
       "count"},
      {"service.remote_tile_frac",
       only(w.service, static_cast<double>(t.tiles_remote) / tiles), "ratio"},
      {"service.worker_busy_frac", only(w.service, busy_frac), "ratio"},
      {"service.overhead_ms_per_frame", only(w.service, overhead_ms), "ms"},
      {"wire.request_bytes", wire.request_bytes, "bytes"},
      {"wire.response_bytes", wire.response_bytes, "bytes"},
      {"wire.codec_us", wire.codec_us, "us"},
      {"host.calib_ms", calib, "ms"},
      {"trace.fps_overhead_frac", 1.0 - fps_traced / fps_plain, "ratio"},
  };
  print_result(checks.ok, t.frames, t.frames_dropped + t.frames_lost, m);
  return 0;
}

// --- arguments --------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{thermal-fleet|tactile-events|defect-ladder} --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) usage("every flag takes one value");
  for (const char* key : {"workload", "seed", "seconds", "trace"})
    if (args.count(key) == 0) usage("missing flag");

  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args["workload"];
  });
  if (it == all.end()) usage("unknown workload");
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') usage("seed must be an unsigned integer");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) usage("seconds must be positive");
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") usage("trace must be 0 or 1");

  const std::size_t frames = std::max(
      kMinTimedFrames,
      static_cast<std::size_t>(std::lround(seconds * it->frames_per_second)));
  try {
    // The traced run decodes every frame twice, so it takes half as many.
    return trace == "1" ? run_traced(*it, seed, std::max<std::size_t>(
                                                    1, frames / 2))
                        : run_untraced(*it, seed, frames);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
