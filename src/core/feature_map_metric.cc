#include "core/feature_map_metric.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace vz::core {

double FeatureMapListMetric::Distance(int a, int b) {
  if (a == b) return 0.0;
  // Failures poison the pair with +inf instead of reading as "identical";
  // see SvsMetric::Distance for the rationale.
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= maps_->size() ||
      static_cast<size_t>(b) >= maps_->size()) {
    VZ_LOG(Error) << "FeatureMapListMetric: id out of range";
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  const OmdOptions& omd_options = calculator_->options();
  const bool shared = shared_cache_ != nullptr &&
                      static_cast<size_t>(a) < keys_.size() &&
                      static_cast<size_t>(b) < keys_.size();
  int64_t key = 0;
  if (shared) {
    auto hit = shared_cache_->Lookup(keys_[a], keys_[b], omd_options.mode,
                                     omd_options.threshold_alpha);
    if (hit.has_value()) return *hit;
  } else if (memoize_) {
    const auto lo = static_cast<uint32_t>(std::min(a, b));
    const auto hi = static_cast<uint32_t>(std::max(a, b));
    key = static_cast<int64_t>((static_cast<uint64_t>(lo) << 32) | hi);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  ++num_evals_;
  auto result = calculator_->Distance((*maps_)[static_cast<size_t>(a)],
                                      (*maps_)[static_cast<size_t>(b)]);
  if (!result.ok()) {
    VZ_LOG(Error) << "OMD failed: " << result.status().ToString();
    failed_distances_.fetch_add(1, std::memory_order_relaxed);
    return std::numeric_limits<double>::infinity();
  }
  if (shared) {
    shared_cache_->Insert(keys_[a], keys_[b], omd_options.mode,
                          omd_options.threshold_alpha, *result);
  } else if (memoize_) {
    memo_.emplace(key, *result);
  }
  return *result;
}

double FeatureMapListMetric::LowerBound(int a, int b) {
  if (a == b) return 0.0;
  if (a < 0 || b < 0 || static_cast<size_t>(a) >= maps_->size() ||
      static_cast<size_t>(b) >= maps_->size()) {
    return 0.0;
  }
  if (centroids_.size() < maps_->size()) centroids_.resize(maps_->size());
  auto centroid_of = [this](size_t i) -> const FeatureVector& {
    if (centroids_[i].empty() && !(*maps_)[i].empty()) {
      centroids_[i] = (*maps_)[i].Centroid();
    }
    return centroids_[i];
  };
  const FeatureVector& ca = centroid_of(static_cast<size_t>(a));
  const FeatureVector& cb = centroid_of(static_cast<size_t>(b));
  double bound = 0.0;
  if (ca.dim() == cb.dim() && !ca.empty()) {
    bound = EuclideanDistance(ca, cb);
  }
  if (quantized_prune_) {
    bound = std::max(
        bound, QuantizedOmdLowerBound((*maps_)[static_cast<size_t>(a)],
                                      (*maps_)[static_cast<size_t>(b)],
                                      calculator_->options()));
  }
  return bound;
}

}  // namespace vz::core
