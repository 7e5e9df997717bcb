// One benchmark run: set-up, the measured windows, the correctness gate,
// and the metrics line.  main.cpp fills RunOptions from options_for();
// the self-test drives smoke runs through the same entry point.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace perfbench {

/// Everything one run depends on.  The rates, SLO, ladder, worker count
/// and bounds are part of the benchmark's definition: options_for() fills
/// them from a fixed per-workload table, and only the self-test's smoke
/// runs set them otherwise.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time of the run
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
  std::size_t workers = 3;      ///< EventLoopServer handler threads
  std::size_t connections = 4;  ///< generator connections (<= nproc)
  double light_rate = 0;        ///< ops/s
  double nominal_rate = 0;      ///< ops/s
  double slo_ms = 0;            ///< p99 limit for max_rate_ops
  double ladder_base = 0;       ///< rung k offers ladder_base * 1.06^k
  double rung_seconds = 1;
  /// Light-rate warm-up after set-up (fills the verify caches); not part
  /// of setup_s.
  double warmup_seconds = 2;
  int setup_reps = 5;           ///< set-ups per untraced run (median)
  double late_bound_ms = 25;    ///< generator p99 lateness bound
  double scale = 1;             ///< population scale (smoke runs < 1)
  std::string tmp_dir;          ///< journals live under here
};

/// The benchmark's settings for `workload` (connections capped at nproc).
/// Returns false for an unknown workload.
[[nodiscard]] bool options_for(const std::string& workload, RunOptions& out);

/// Result of one run: the metrics by name plus the verdict.
struct RunResult {
  bool correct = false;
  /// The generator kept up (gen_late_p99_ms within late_bound_ms).  An
  /// invalid run is flagged, not failed: on a host stealing a quarter of
  /// the CPU the generator falls behind too, and that says nothing about
  /// the program's correctness.
  bool valid = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> detail;  ///< provenance-grade extras
  std::string violations;                ///< gate failures, joined
};

[[nodiscard]] RunResult run_benchmark(const RunOptions& options,
                                      std::ostream& log);

/// Writes `result` as the one-line JSON object the runner expects.
void print_result(const RunResult& result, std::ostream& out);

}  // namespace perfbench
