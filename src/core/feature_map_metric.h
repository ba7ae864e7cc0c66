#ifndef VZ_CORE_FEATURE_MAP_METRIC_H_
#define VZ_CORE_FEATURE_MAP_METRIC_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/omd.h"
#include "core/omd_cache.h"
#include "index/item_metric.h"
#include "vector/feature_map.h"

namespace vz::core {

/// OMD metric over an externally owned list of feature maps; item ids are
/// indices into the list. Used by the inter-camera index, whose items are
/// representative SVSs rather than stored SVSs, and by tests/benches that
/// operate on synthetic feature maps directly.
class FeatureMapListMetric : public index::ItemMetric {
 public:
  /// `maps` and `calculator` must outlive the metric. The list may grow
  /// (ids stay valid); it must not reorder existing entries. With `memoize`
  /// the metric caches pair distances and `num_distance_evals` counts cache
  /// misses only (actual OMD solves). With `quantized_prune`, `LowerBound`
  /// tightens OCD with the maps' quantized shadows (pruning-only — results
  /// of the search never change, only how many solves it needs).
  FeatureMapListMetric(const std::vector<FeatureMap>* maps,
                       OmdCalculator* calculator, bool memoize = false,
                       bool quantized_prune = true)
      : maps_(maps),
        calculator_(calculator),
        memoize_(memoize),
        quantized_prune_(quantized_prune) {}

  /// OMD between the two maps; +inf (poison) on out-of-range ids or solver
  /// failure, counted in `failed_distances`.
  double Distance(int a, int b) override;
  double LowerBound(int a, int b) override;
  uint64_t num_distance_evals() const override { return num_evals_; }
  /// Number of Distance calls that failed and returned the +inf poison.
  uint64_t failed_distances() const {
    return failed_distances_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { num_evals_ = 0; }

  /// Drops the cached centroid for slot `i`; callers that replace a map at
  /// an existing index (e.g. a popped-then-reused scratch slot) must call
  /// this or lower bounds would read the stale centroid.
  void InvalidateCentroid(size_t i) {
    if (i < centroids_.size()) centroids_[i] = FeatureVector();
  }

  /// Memoizes distances in `cache` under stable per-item keys, the way
  /// `SvsMetric::set_shared_cache` does under SVS ids: item `i <
  /// keys.size()` is cached as `keys[i]`, together with the OMD mode and
  /// alpha in force. Items past the end of `keys` (a query's scratch slot)
  /// and failed (+inf) solves never reach the cache. The cache must outlive
  /// the metric; it takes precedence over `memoize`.
  void set_shared_cache(OmdDistanceCache* cache, std::vector<SvsId> keys) {
    shared_cache_ = cache;
    keys_ = std::move(keys);
  }

 private:
  const std::vector<FeatureMap>* maps_;
  OmdCalculator* calculator_;
  bool memoize_;
  bool quantized_prune_;
  OmdDistanceCache* shared_cache_ = nullptr;
  std::vector<SvsId> keys_;  // index-aligned cache keys
  std::unordered_map<int64_t, double> memo_;
  std::vector<FeatureVector> centroids_;  // lazily filled, index-aligned
  uint64_t num_evals_ = 0;
  std::atomic<uint64_t> failed_distances_{0};
};

}  // namespace vz::core

#endif  // VZ_CORE_FEATURE_MAP_METRIC_H_
