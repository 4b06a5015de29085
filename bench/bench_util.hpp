// Shared plumbing for the standalone bench_* sweeps (the ones with their own
// main, not the google-benchmark figures): flag parsing, JSON recording and
// a host speed probe.
//
// Every standalone sweep accepts the same flags:
//
//   --smoke      tiny configuration for the ctest smoke registration
//   --json       machine-readable output (one JSON array on stdout)
//   --out PATH   where to record the JSON. Defaults to the bench's
//                BENCH_<name>.json at the repository root; an explicit
//                --out records there even on smoke runs (a default-path
//                smoke run never writes, so ctest cannot clobber a
//                recorded sweep).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace flexcs::bench {

struct BenchArgs {
  bool json = false;
  bool smoke = false;
  std::string out;  // --out override; empty selects the bench's default
  bool ok = true;   // false: unknown flag or missing --out value
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        args.ok = false;
        return args;
      }
      args.out = argv[++i];
    } else {
      args.ok = false;
      return args;
    }
  }
  return args;
}

inline void print_bench_usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--smoke] [--json] [--out PATH]\n", argv0);
}

/// Records the JSON (best-effort: a read-only checkout only warns). Sweeps
/// default to the repo root so they are versioned alongside the code that
/// produced them.
inline void record_json(const std::string& json, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "recorded %s\n", path.c_str());
}

/// True when this run should record: every full run records to the default
/// path, and an explicit --out records unconditionally.
inline bool should_record(const BenchArgs& args) {
  return !args.smoke || !args.out.empty();
}

inline std::string record_path(const BenchArgs& args,
                               const std::string& default_path) {
  return args.out.empty() ? default_path : args.out;
}

/// A fixed integer and floating-point loop (an LCG feeding a damped sum)
/// whose work never changes, so its wall time tracks the host's speed.
[[gnu::noinline]] inline double calib_loop(std::uint64_t state) {
  double acc = 0.0;
  for (int i = 0; i < 4000000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc = (acc + static_cast<double>(state >> 40) * 1e-9) * 0.999999;
  }
  return acc;
}

/// Median of five timings of calib_loop, in milliseconds. Records taken at
/// different times compare per row after dividing each timing by the
/// calibration taken with it: a host that runs slower between runs reads
/// slower here too.
inline double host_calib_ms() {
  std::vector<double> runs;
  double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    sink += calib_loop(0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(r));
    runs.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  if (sink < 0.0) std::printf("calib %f\n", sink);  // keeps the loop live
  std::nth_element(runs.begin(), runs.begin() + 2, runs.end());
  return runs[2];
}

}  // namespace flexcs::bench
