// Order statistics for the benchmark's latency samples.
//
// Every timing the benchmark reports is a nearest-rank percentile over the
// raw samples of one window: no bucketing, so a reported p99 is a latency
// some request actually saw.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  `p` is clamped to [0, 100]; an empty input
/// yields 0.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// p50 / p99 of one sample set, with the sample count they rest on.
struct Summary {
  double p50 = 0;
  double p99 = 0;
  std::size_t count = 0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
