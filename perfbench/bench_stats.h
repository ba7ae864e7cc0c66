// Order statistics and answer checks of the end-to-end benchmark. Kept
// header-only and free of library dependencies so `vzbench selftest` can
// exercise them on known arrays before any workload runs.
#ifndef VZ_PERFBENCH_BENCH_STATS_H_
#define VZ_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vz::perfbench {

/// Nearest-rank percentile of `values` (q in [0, 1]): the smallest sample
/// with at least q * n samples at or below it. 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

/// Samples strictly above the q-th percentile's rank: n - ceil(q * n).
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t at_or_below =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at_or_below ? n - at_or_below : 0;
}

/// A tail figure: the percentile a workload fixes for one metric, the value
/// there, and how many samples back it.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  /// False when fewer than `kMinBeyond` samples lie past the percentile —
  /// the figure would then rest on a handful of outliers.
  bool valid = false;
};

inline constexpr size_t kMinBeyond = 10;

/// The tail of `values` at the fixed percentile `q`. Each workload fixes q
/// per metric so the percentile sits inside one mode of the distribution;
/// the figure is only `valid` with at least `kMinBeyond` samples beyond it.
inline Tail TailAt(const std::vector<double>& values, double q) {
  Tail tail;
  tail.q = q;
  tail.samples = values.size();
  tail.beyond = SamplesBeyond(values.size(), q);
  tail.valid = tail.beyond >= kMinBeyond;
  tail.value = Percentile(values, q);
  return tail;
}

/// Sorted, de-duplicated copy of an id list.
inline std::vector<int64_t> SortedIds(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// One query answer reduced to what the benchmark checks: candidate and
/// matched SVS ids (as sets) and the simulated GPU charges.
struct Answer {
  std::vector<int64_t> candidates;
  std::vector<int64_t> matched;
  double bottleneck_gpu_ms = 0.0;
  double total_gpu_ms = 0.0;
  bool degraded = false;
  bool timed_out = false;
};

/// Empty when `got` equals `want`; otherwise why it differs. Degraded or
/// timed-out replies never match: the reference is a complete answer.
inline std::string CompareAnswers(const Answer& want, const Answer& got) {
  if (got.degraded) return "degraded reply";
  if (got.timed_out) return "timed-out reply";
  if (SortedIds(got.candidates) != SortedIds(want.candidates)) {
    return "candidate set differs";
  }
  if (SortedIds(got.matched) != SortedIds(want.matched)) {
    return "matched set differs";
  }
  if (std::abs(got.bottleneck_gpu_ms - want.bottleneck_gpu_ms) > 1e-9) {
    return "bottleneck gpu ms differs";
  }
  if (std::abs(got.total_gpu_ms - want.total_gpu_ms) >
      1e-9 * std::max(1.0, std::abs(want.total_gpu_ms))) {
    return "total gpu ms differs";
  }
  return "";
}

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_BENCH_STATS_H_
