// Shared plumbing for the standalone bench_* sweeps (the ones with their own
// main, not the google-benchmark figures): flag parsing, JSON recording, a
// host speed probe and the provenance a record carries.
//
// Every standalone sweep accepts the same flags:
//
//   --smoke      tiny configuration for the ctest smoke registration
//   --json       machine-readable output (one JSON document on stdout)
//   --out PATH   where to record the JSON. Defaults to the bench's
//                BENCH_<name>.json at the repository root; an explicit
//                --out records there even on smoke runs (a default-path
//                smoke run never writes, so ctest cannot clobber a
//                recorded sweep).
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
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

/// Where a record came from, so two records can be told apart before their
/// numbers are compared.
struct Provenance {
  std::string git_sha;     // HEAD of the source tree at run time
  bool git_dirty = false;  // tracked files differ from HEAD
  std::string build_type;  // CMake build type of this binary
  std::string compiler;
  long nproc = 0;          // online logical CPUs
  std::string utc_date;    // ISO 8601, when the run started

  /// Reads HEAD of the checkout at `source_dir` through git ("unknown" when
  /// git or the checkout is missing); `build_type` comes from the build.
  static Provenance collect(const std::string& source_dir,
                            const std::string& build_type) {
    Provenance p;
    p.git_sha = first_line_of("git -C '" + source_dir +
                              "' rev-parse HEAD 2>/dev/null");
    if (p.git_sha.empty()) p.git_sha = "unknown";
    p.git_dirty = !first_line_of("git -C '" + source_dir +
                                 "' status --porcelain --untracked-files=no "
                                 "2>/dev/null")
                       .empty();
    p.build_type = build_type.empty() ? "unknown" : build_type;
#if defined(__clang__)
    p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    p.compiler = "gcc " __VERSION__;
#else
    p.compiler = "unknown";
#endif
    p.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char date[32];
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
    p.utc_date = date;
    return p;
  }

  /// The record's "provenance" object.
  std::string to_json() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"git_sha\": \"%s\", \"git_dirty\": %s, "
                  "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                  "\"nproc\": %ld, \"utc_date\": \"%s\"}",
                  git_sha.c_str(), git_dirty ? "true" : "false",
                  build_type.c_str(), compiler.c_str(), nproc,
                  utc_date.c_str());
    return buf;
  }

 private:
  // First line of a shell command's stdout, without its newline; empty when
  // the command prints nothing or cannot start.
  static std::string first_line_of(const std::string& command) {
    std::FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) return {};
    char line[256] = {};
    std::string out;
    if (std::fgets(line, sizeof(line), pipe) != nullptr) out = line;
    ::pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
      out.pop_back();
    return out;
  }
};

}  // namespace flexcs::bench
